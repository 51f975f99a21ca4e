"""Shared benchmark utilities.

Every bench regenerates one thesis table/figure (see DESIGN.md's experiment
index); the rendered artifact is written under ``benchmarks/results/`` so
EXPERIMENTS.md can quote it, and key numbers are attached to the
pytest-benchmark record via ``extra_info``.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_artifact(results_dir):
    """Writer for the regenerated table/figure text of one experiment."""

    def _save(experiment_id: str, text: str) -> pathlib.Path:
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return _save
