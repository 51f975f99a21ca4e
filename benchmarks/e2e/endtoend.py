"""The untraced run: set-up, warm-up, closed trials, open phase, verification.

Produces the end-to-end metrics of one workload.  The program's own
observability (tracing, attribution) stays off here; the traced run in
:mod:`ladder` measures its cost separately.  Every timing is scaled to the
reference speed (:mod:`reference`).
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time

import shape
from loadgen import (
    Client,
    OpenResult,
    Trial,
    closed_trial,
    median_of,
    open_phase,
    percentile,
)
from model import Oracle
from reference import BATCH_REQUESTS, Reference
from rig import Rig
from workloads import Inputs, Sequence

#: load-generator threads: at most nproc of the 2-core box
GENERATORS = 2


def set_up(inputs: Inputs, verify_first: int, pace=None):
    """Build the system and its clients and push the first requests through.

    This is what ``setup_s`` times: registry construction and load, resolver
    attach, supervisor start, and :data:`shape.SETUP_WARM_REQUESTS` requests
    on the wire so lazily built state is paid for here, not in a trial.
    *pace* is called every few objects loaded and requests sent.
    """
    rig = Rig(inputs, pace)
    spec = inputs.spec
    clients = [
        Client(rig, Sequence(inputs, c, spec.clients, rig.templates), verify_first)
        for c in range(GENERATORS)
    ]
    warm = clients[0]
    for sent in range(shape.SETUP_WARM_REQUESTS):
        request = warm.sequence.next()
        answer = warm.issue(request)
        if request.resend:
            warm.resend(request, answer)
        if pace is not None and sent % BATCH_REQUESTS == 0:
            pace()
    return rig, clients


def timed_set_up(inputs: Inputs, verify_first: int):
    """One set-up and what it took in seconds, raw and at the reference speed."""
    reference = Reference()
    started = time.perf_counter()
    rig, clients = set_up(inputs, verify_first, pace=reference.burst)
    seconds = time.perf_counter() - started - reference.seconds
    return rig, clients, seconds, seconds / reference.slowness()


def us(ns: float | None) -> float | None:
    return None if ns is None else ns / 1e3


def trial_percentiles(trials: list[Trial], attr: str, q: float) -> list[float | None]:
    """Per-trial percentile of the read or write latencies, in µs."""
    return [us(percentile(getattr(trial, attr), q)) for trial in trials]


def verify(inputs: Inputs, rig: Rig, clients: list[Client]) -> list[str]:
    """Judge every recorded answer against the model; the mismatches.

    Must run before anything rewrites an object for a reason the request
    streams do not know of (the ladder's write probe): the scan engine the
    ad-hoc answers are compared with reads the heap as it is now.
    """
    oracle = Oracle(inputs, rig.registry.store)
    for client in clients:
        oracle.check(client.records)
    if inputs.spec.writes:
        oracle.check_replay(rig.registry.store)
    return oracle.mismatches


def tally(clients: list[Client], mismatches: list[str]) -> dict:
    """Requests attempted and failed: faults, refusals, diverged replays, wrong answers."""
    return {
        "attempted": sum(client.attempted for client in clients),
        "failed": sum(client.failed for client in clients) + len(mismatches),
        "messages": ([m for c in clients for m in c.failures] + mismatches)[:10],
    }


def measure(inputs: Inputs, seconds: float, *, setup_repeats: int) -> dict:
    spec = inputs.spec
    setups: list[float] = []
    raw_setups: list[float] = []
    rig = clients = None
    for _ in range(setup_repeats):
        if rig is not None:
            rig.close()
            rig = clients = None
            gc.collect()
        rig, clients, raw, scaled = timed_set_up(
            inputs, int(seconds * shape.VERIFY_PER_SECOND)
        )
        raw_setups.append(raw)
        setups.append(scaled)
    closed = clients[: spec.clients]

    closed_trial(closed, seconds * shape.WARMUP_SHARE, record=False)
    trial_seconds = seconds * shape.CLOSED_SHARE / shape.CLOSED_TRIALS
    window_seconds = seconds * shape.OPEN_SHARE / shape.OPEN_WINDOWS
    trials: list[Trial] = []
    windows: list[OpenResult] = []
    for index in range(shape.CLOSED_TRIALS):
        if index:
            windows.append(
                open_phase(clients[0], shape.OPEN_RATE[spec.name], window_seconds)
            )
        trials.append(closed_trial(closed, trial_seconds))
    counts = tally(clients, verify(inputs, rig, clients))
    rig.close()

    per_trial = {
        "rps": [t.scaled_rps for t in trials],
        "p50_us": trial_percentiles(trials, "scaled_reads", 0.50),
        "cpu_us_per_req": [t.scaled_cpu_us_per_req for t in trials],
    }
    # the windows are one open phase, cut up only to be spread over the run:
    # its p50 is read off all of them together (on churn a window holds five
    # NodeState sweeps, and the answers between two sweeps are alike)
    open_latencies = sorted(
        itertools.chain.from_iterable(w.scaled_latencies for w in windows)
    )
    metrics = {
        "setup_s": statistics.median(setups),
        **{name: median_of(values) for name, values in per_trial.items()},
        "open_p50_us": us(percentile(open_latencies, 0.50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_trial["open_p50_us"] = [
        us(percentile(w.scaled_latencies, 0.50)) for w in windows
    ]
    reads = sum(len(t.reads) for t in trials)
    completed = sum(t.completed for t in trials)
    open_lateness = sorted(itertools.chain.from_iterable(w.lateness for w in windows))
    samples = {
        "setup_s": len(setups),
        "rps": completed,
        "p50_us": reads,
        "cpu_us_per_req": completed,
        "open_p50_us": len(open_latencies),
        "peak_rss_mb": 1,
    }
    info = {
        # what the scaling took out: the same figures as the clock read them
        "reference_unit_us": statistics.median(t.unit_us for t in trials),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_rps": statistics.median(t.rps for t in trials),
        "raw_p50_us": median_of(trial_percentiles(trials, "reads", 0.50)),
        "raw_cpu_us_per_req": statistics.median(t.cpu_us_per_req for t in trials),
        # tails are per-layer diagnostics (serving.closed_p95_us, _p99_us)
        "p95_us": median_of(trial_percentiles(trials, "scaled_reads", 0.95)),
        "open_rate": shape.OPEN_RATE[spec.name],
        "open_achieved_rate_ratio": sum(w.sent for w in windows)
        / sum(w.scheduled for w in windows),
        "open_lateness_p99_us": us(percentile(open_lateness, 0.99)),
        "open_p99_us": us(percentile(open_latencies, 0.99)),
        "fail_ratio": counts["failed"] / counts["attempted"],
    }
    if spec.writes:
        # reads and writes apart; not in the contract, whose metrics must
        # exist on every workload
        writes = sorted(itertools.chain.from_iterable(t.scaled_writes for t in trials))
        info["write_p50_us"] = us(percentile(writes, 0.50))
        info["write_p99_us"] = us(percentile(writes, 0.99))
        info["writes"] = len(writes)
    return {
        "metrics": metrics,
        "samples": samples,
        **counts,
        "trials": {"setup_s": setups, "raw_setup_s": raw_setups, **per_trial},
        "info": info,
    }
