"""The run shape: identical for every workload, frozen here, never derived at run time.

``BENCHMARK.json`` admits only its contract's keys, so the shape lives in
this module; ``BENCHMARK.json`` stays the single list of metric names, units
and bounds, and :func:`load_contract` reads it so that a run can only print
what the contract names.

One run of one workload (``--seconds S``; ``BENCHMARK.json`` fixes S = 25)::

    set-up ×3 (median = setup_s) → warm-up 0.04·S → 7 closed trials of 0.08·S
    each, with one of the open phase's 6 windows (S/15 each, at the
    workload's frozen rate) between each pair → verification (untimed)

The issue's 7 × 3 s trials + 8 s open phase (≈ 40 s per workload) exceed what
the driver's 92 runs leave per run (≈ 37 s, set-up and verification
included), so trials are at their 2 s floor; the trial *count* is kept.  The
open phase has 10 s: its p50 is only as steady as the number of NodeState
sweeps (``discovery_churn``) and cold texts (``adhoc_mix``) it covers.
"""

from __future__ import annotations

import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
#: requests each timed set-up pushes through the wire before it counts as
#: done, so lazily built state (caches, plans, thread start) is inside setup_s
SETUP_WARM_REQUESTS = 200
WARMUP_SHARE = 0.04
CLOSED_TRIALS = 7
CLOSED_SHARE = 0.56
OPEN_SHARE = 0.4
#: the open phase runs as this many windows, one between each pair of closed
#: trials, so that both phases sample the whole run and not one stretch of it
OPEN_WINDOWS = CLOSED_TRIALS - 1
#: answers recorded for the oracle per client and second of run length, from
#: the start of the closed phase (plus every post-sweep and post-rewrite
#: answer): 500 in a run of 25 s.  The oracle's planner-off scan costs ~10 ms
#: per distinct ad-hoc text, all of it untimed wall the driver's budget pays for
VERIFY_PER_SECOND = 20
#: traced run (``--trace 1``): requests replayed with spans and per rung
TRACED_REQUESTS = 2000
#: requests that probe a rung the workload's own mix never reaches
PROBE_REQUESTS = 200
#: shares of S in the traced run: 7 alternating obs-off/obs-on trials, the
#: open phase at the frozen rate, and each of the three other rate steps
OBS_TRIAL_SHARE = 0.04
TRACED_OPEN_SHARE = 0.16
RATE_STEP_SHARE = 0.06
#: offered rates as a fraction of the seed's closed-loop rps; the open phase
#: proper runs at OPEN_FRACTION of it (the frozen OPEN_RATE below)
RATE_STEPS = (0.2, 0.4, 0.6, 0.8)
OPEN_FRACTION = 0.4

#: ``--smoke``: the same code path, one set-up and a short traced replay
SMOKE_SECONDS = 1.0
SMOKE_TRACED_REQUESTS = 200

#: measured on the seed (commit ce9d678, 2-core sandbox, one core used) and
#: frozen: closed-loop rps and read p50 at the reference speed, each the middle
#: of the medians of three 10-seed series taken an hour apart.  The open-loop
#: rate is 40 % of the rps, rounded to two significant figures, in requests per
#: second of reference time (``loadgen.open_phase``); ``serving.max_rate_ok``
#: accepts a rate step whose open tail stays within 10 × the seed p50.
SEED_RPS = {
    "discovery_steady": 2450.0,
    "discovery_churn": 1150.0,
    "adhoc_mix": 1650.0,
    "mixed_rw": 1120.0,
}
SEED_P50_US = {
    "discovery_steady": 395.0,
    "discovery_churn": 815.0,
    "adhoc_mix": 296.0,
    "mixed_rw": 855.0,
}
OPEN_RATE = {
    "discovery_steady": 980.0,
    "discovery_churn": 460.0,
    "adhoc_mix": 660.0,
    "mixed_rw": 450.0,
}


def load_contract() -> dict:
    """``BENCHMARK.json`` with its metric lists keyed by name."""
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        contract[group] = {metric["name"]: metric for metric in contract[group]}
    return contract
