"""Self-tests of the benchmark harness (not of the registry).

Run with ``python -m pytest benchmarks/e2e/test_harness.py``; not part of the
tier-1 ``testpaths``.  They check the rules the numbers rest on: the
sample-count rule for percentiles, open-loop timing from the due instant,
seed-determinism of the generated inputs, that ``BENCHMARK.json`` lists
exactly what a run prints, and that the oracle trips on a stale answer.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

import loadgen  # noqa: E402
import reference  # noqa: E402
import shape  # noqa: E402
from loadgen import Client, closed_trial, open_phase, percentile  # noqa: E402
from model import Oracle, expected_uris  # noqa: E402
from workloads import SPECS, Request, Sequence, make_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1100)), 0.99) == 1089
    assert percentile(list(range(1000)), 0.99) is None
    assert percentile(list(range(21)), 0.50) == 10
    assert percentile(list(range(20)), 0.50) is None
    assert percentile([], 0.50) is None


def test_scaling_divides_a_slow_box_out(monkeypatch):
    # a box that runs everything 3x slower — requests and reference units
    # alike — must read the same once scaled; only the raw figures move
    class Stream:
        position = 0

        def next(self):
            return Request("discovery", None)

    def trial(factor: float):
        def work(seconds: float) -> None:
            end = time.perf_counter() + seconds * factor
            while time.perf_counter() < end:
                pass

        class Fake(Client):
            def __init__(self):
                self.sequence = Stream()
                self.recording = False

            def issue(self, _request):
                work(400e-6)

        monkeypatch.setattr(reference, "unit", lambda: work(reference.NOMINAL_UNIT_S))
        return closed_trial([Fake()], 0.3)

    calm, slow = trial(1.0), trial(3.0)
    assert 2.5 < slow.reads[len(slow.reads) // 2] / calm.reads[len(calm.reads) // 2] < 3.5
    for t in (calm, slow):
        assert 380e3 < t.scaled_reads[len(t.scaled_reads) // 2] < 440e3
        assert 2200 < t.scaled_rps < 2600
    assert 0.9 < slow.scaled_rps / calm.scaled_rps < 1.1


class _StallingClient:
    """A fake client whose 100th request takes 50 ms; the rest are instant."""

    class _Stream:
        def next(self):
            return None

    def __init__(self) -> None:
        self.sequence = self._Stream()
        self.sent = 0

    def issue(self, _request) -> None:
        self.sent += 1
        if self.sent == 100:
            time.sleep(0.05)


def _nominal_unit() -> None:
    """A reference unit that takes its nominal time: the box at reference speed."""
    end = time.perf_counter() + reference.NOMINAL_UNIT_S
    while time.perf_counter() < end:
        pass


def test_open_loop_times_from_the_due_instant(monkeypatch):
    # 1 000/s for 0.4 s: a 50 ms stall delays the ~50 requests due during it.
    # Timed from *send*, only the stalled request would look slow.
    monkeypatch.setattr(reference, "unit", _nominal_unit)
    monkeypatch.setattr(loadgen, "unit", _nominal_unit)
    result = open_phase(_StallingClient(), rate=1000.0, seconds=0.4)
    delayed = [ns for ns in result.latencies if ns > 5e6]
    assert len(delayed) >= 30, len(delayed)
    assert result.sent == result.scheduled
    assert 380 <= result.scheduled <= 400
    assert result.backlog_max >= 30


def test_open_loop_offers_a_slow_box_less(monkeypatch):
    # units that take twice their nominal time stretch the schedule twofold
    def slow_unit() -> None:
        _nominal_unit()
        _nominal_unit()

    monkeypatch.setattr(reference, "unit", slow_unit)
    monkeypatch.setattr(loadgen, "unit", slow_unit)
    result = open_phase(_StallingClient(), rate=1000.0, seconds=0.4)
    assert result.sent == result.scheduled
    assert 185 <= result.scheduled <= 205


def _wire_bytes(workload: str, seed: int, count: int) -> tuple[list[str], int, int]:
    from repro.soap import SoapEnvelope, envelope_to_xml

    from loadgen import Client, replay
    from rig import Rig

    inputs = make_inputs(workload, seed)
    rig = Rig(inputs)
    try:
        stream = Sequence(inputs, 0, inputs.spec.clients, rig.templates)
        requests = [stream.next() for _ in range(count)]
        texts = [
            envelope_to_xml(SoapEnvelope.with_session(r.body, "token" if r.auth else None))
            for r in requests
        ]
        client = Client(rig, stream, verify_first=0)
        client.wire.spans = []
        replay(client, requests)
        assert client.failed == 0, client.failures
        spans = client.wire.spans
        return texts, sum(row[9] for row in spans), sum(row[10] for row in spans)
    finally:
        rig.close()


def test_same_seed_same_requests_same_bytes():
    first = _wire_bytes("mixed_rw", 11, 150)
    again = _wire_bytes("mixed_rw", 11, 150)
    other = _wire_bytes("mixed_rw", 12, 150)
    assert first == again
    assert first[0] != other[0]


def test_names_and_caps():
    contract = json.loads((shape.REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    assert workloads == list(SPECS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = workloads + [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(shape.OPEN_RATE) == set(shape.SEED_RPS) == set(workloads)
    for workload in workloads:
        assert shape.OPEN_RATE[workload] == float(
            f"{shape.OPEN_FRACTION * shape.SEED_RPS[workload]:.2g}"
        )


def test_benchmark_json_lists_exactly_what_a_run_prints():
    # run.py refuses to print when its metrics and BENCHMARK.json disagree
    contract = shape.load_contract()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "discovery_steady",
             "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.rstrip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(contract[group])
        for name, metric in result["metrics"].items():
            assert metric["unit"] == contract[group][name]["unit"]


def test_oracle_trips_on_a_stale_answer():
    from repro.persistence import DataStore

    inputs = make_inputs("discovery_steady", 5)
    index = next(i for i, s in enumerate(inputs.services) if len(s.bindings) >= 3)
    item = inputs.services[index]
    request = Request("discovery", None)
    request.service, request.limits = index, item.limits
    fresh = expected_uris(
        item.bindings, item.limits, inputs.static_samples, inputs.spec.mode, 8 * 60
    )

    class Binding:
        def __init__(self, uri):
            self.access_uri = uri

    class Answer:
        def __init__(self, uris):
            self.objects = [Binding(uri) for uri in uris]

    oracle = Oracle(inputs, DataStore())
    oracle.check([(request, Answer(fresh), -1, 8 * 60)])
    assert oracle.mismatches == []
    # the order a registry would return from samples that have since moved
    stale = [fresh[-1]] + fresh[:-1]
    oracle.check([(request, Answer(stale), -1, 8 * 60)])
    assert len(oracle.mismatches) == 1 and oracle.checked == 2
