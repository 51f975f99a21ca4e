"""Shared benchmark utilities.

Every bench regenerates one thesis table/figure (see DESIGN.md's experiment
index); the rendered artifact is written under ``benchmarks/results/`` so
EXPERIMENTS.md can quote it, and key numbers are attached to the
pytest-benchmark record via ``extra_info``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: how many past runs each BENCH_*.json keeps in its ``history`` list
HISTORY_KEEP = 20

#: every BENCH_*.json artifact the suite maintains (bench name → filename);
#: all of them merge their perf trajectory through :func:`write_bench_json`
BENCH_JSON_FILES = {
    "adhoc": "BENCH_adhoc.json",
    "cluster": "BENCH_cluster.json",
    "mixed": "BENCH_mixed.json",
    "serving": "BENCH_serving.json",
}


def bench_json_path(name: str) -> pathlib.Path:
    """Repo-root path of a registered BENCH_*.json artifact."""
    return REPO_ROOT / BENCH_JSON_FILES[name]


def write_bench_json(path: pathlib.Path, report: dict) -> dict:
    """Write a bench report, merging (not overwriting) the perf trajectory.

    The previous file's latest run is appended to a bounded ``history``
    list, so ``BENCH_*.json`` accumulates one entry per bench run and PRs
    can be compared without digging through git history.  Unreadable or
    pre-history files degrade to an empty history.
    """
    data = dict(report)
    data["recorded_unix"] = round(time.time(), 3)
    history: list[dict] = []
    if path.exists():
        try:
            prior = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            prior = {}
        if isinstance(prior, dict):
            history = [e for e in prior.get("history", ()) if isinstance(e, dict)]
            latest = {k: v for k, v in prior.items() if k != "history"}
            if latest:
                history.append(latest)
    data["history"] = history[-HISTORY_KEEP:]
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return data


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def bench_history_writer():
    """The history-merging BENCH_*.json writer (fixture so benches share it)."""
    return write_bench_json


@pytest.fixture
def save_artifact(results_dir):
    """Writer for the regenerated table/figure text of one experiment."""

    def _save(experiment_id: str, text: str) -> pathlib.Path:
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return _save
