"""LB-7 — fault tolerance: a host crashes mid-run and later recovers.

One of four hosts crashes at t=300 s (losing its queue, dropping off the
monitoring plane) and recovers at t=900 s.  Oblivious policies keep sending
work at the dead host; the thesis scheme stops certifying it at the first
monitoring sweep whose probe of it fails (NodeState holds only the hosts a
sweep reached) and starts using it again one sweep after recovery — fault
tolerance the thesis never claims but its architecture provides for free.

``sent_to_failed_host`` counts every dispatch to the host over the whole
run; ``sent_while_down`` only those inside the outage.
"""

from repro.bench import format_table
from repro.mtc import ExperimentConfig, ExperimentHarness, HostFailure

FAILED_HOST = "host1.cluster"
FAILURE = (HostFailure(FAILED_HOST, fail_at=300.0, recover_at=900.0),)
MONITOR_PERIOD = 10.0
POLICIES = ["first-uri", "random", "round-robin", "constraint-lb"]


def run_all():
    """policy → (result, dispatch times in seconds since the start of the run)."""
    results = {}
    for policy in POLICIES:
        harness = ExperimentHarness(
            ExperimentConfig(
                duration=1800.0,
                policy=policy,
                failures=FAILURE,
                monitor_period=MONITOR_PERIOD,
            )
        )
        result = harness.run()
        start = harness.config.start_of_day
        results[policy] = (
            result,
            [(record.time - start, record.host) for record in harness.client.records],
        )
    return results


def dispatched(records, begin, end, host=None):
    """Dispatches (to *host*, if given) at ``begin <= t < end``."""
    return sum(1 for t, h in records if begin <= t < end and (host is None or h == host))


def test_lb7_host_failure(save_artifact, benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    (failure,) = FAILURE
    rows = []
    for policy in POLICIES:
        result, records = results[policy]
        metrics = result.metrics
        rows.append(
            {
                "policy": policy,
                "completed": metrics.tasks_completed,
                "rejected": metrics.tasks_rejected,
                "resp_mean_s": round(metrics.responses.mean, 1),
                "sent_to_failed_host": result.dispatch_counts.get(FAILED_HOST, 0),
                "sent_while_down": dispatched(
                    records, failure.fail_at, failure.recover_at, FAILED_HOST
                ),
            }
        )
    save_artifact(
        "LB7_host_failure",
        format_table(
            rows,
            title="LB-7 — host1 crashes at t=300 s, recovers at t=900 s (30 min run)",
        ),
    )
    lb, lb_records = results["constraint-lb"]
    lb, rr, rnd = lb.metrics, results["round-robin"][0].metrics, results["random"][0].metrics
    # the scheme loses far less work to the dead host than oblivious spreading
    assert lb.tasks_rejected < rr.tasks_rejected / 2
    assert lb.tasks_rejected < rnd.tasks_rejected / 2
    assert lb.tasks_completed > rr.tasks_completed
    # the first sweep after the crash ejects the host: at most one monitor
    # period's arrivals can still reach it
    one_period = dispatched(
        lb_records, failure.fail_at, failure.fail_at + MONITOR_PERIOD
    )
    assert rows[-1]["sent_while_down"] <= one_period
    assert lb.tasks_rejected <= one_period
    # and it still uses the host before and after the failure window
    assert rows[-1]["sent_to_failed_host"] > 0
