"""Re-entrant kernel pipeline: concurrent execute() on ONE RegistryKernel.

The serving core's whole premise is that N worker threads can drive one
kernel at once.  These tests hammer a single kernel from several labelled
threads and then demand *exact* accounting:

* request ids are globally unique and exactly as many as requests made;
* pipeline_stats() merged counts are exact, and the per-worker trees
  partition the fleet total with no leakage between labels;
* every finished span tree is self-consistent — one trace id throughout,
  the full stage chain nested in order — i.e. no thread's spans ever
  attached to another thread's tree.
"""

from __future__ import annotations

import threading

from repro.obs import Telemetry
from repro.registry import RegistryConfig, RegistryServer
from repro.soap.binding import HttpGetBinding
from repro.util.clock import ManualClock
from repro.util.workers import set_worker_label

THREADS = 4
PER_THREAD = 50

STAGES = [
    "stage:account",
    "stage:fault-map",
    "stage:admit",
    "stage:resolve",
    "stage:authenticate",
    "stage:authorize",
    "stage:validate",
    "stage:dispatch",
]


def build_registry() -> RegistryServer:
    monotonic = ManualClock()
    telemetry = Telemetry(clock=monotonic, trace=True)
    registry = RegistryServer(
        RegistryConfig(seed=42),
        clock=ManualClock(),
        monotonic=monotonic,
        telemetry=telemetry,
    )
    telemetry.log.enabled = True
    return registry


def hammer(registry: RegistryServer, target: str) -> list[BaseException]:
    """THREADS labelled threads × PER_THREAD identical HTTP GET requests."""
    http = HttpGetBinding(registry)
    errors: list[BaseException] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        set_worker_label(f"stress-{index}")
        try:
            for _ in range(PER_THREAD):
                response = http.get(target)
                assert response.status == "Success", response
        except BaseException as error:  # noqa: BLE001 - collected for assert
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
        assert not thread.is_alive()
    return errors


def test_concurrent_execute_exact_accounting():
    registry = build_registry()
    _, credential = registry.register_user("gold")
    session = registry.login(credential)
    from repro.rim import Organization

    org = Organization(registry.ids.new_id(), name="SDSU")
    registry.lcm.submit_objects(session, [org])
    target = (
        f"http://x/omar?interface=QueryManager"
        f"&method=getRegistryObject&param-id={org.id}"
    )
    total = THREADS * PER_THREAD

    errors = hammer(registry, target)
    assert errors == [], errors

    # -- pipeline_stats: fleet-exact, per-worker partitioned ------------------
    fleet = registry.pipeline_stats()["http"]["getRegistryObject"]
    assert fleet["count"] == total
    assert fleet["faults"] == 0
    per_worker = registry.pipeline_stats(per_worker=True)
    labels = sorted(per_worker)
    assert labels == [f"stress-{i}" for i in range(THREADS)]
    for label in labels:
        shard = per_worker[label]["http"]["getRegistryObject"]
        assert shard["count"] == PER_THREAD
        assert shard["faults"] == 0
    assert sum(
        per_worker[label]["http"]["getRegistryObject"]["count"] for label in labels
    ) == total

    # -- request ids: disjoint and exactly one per request --------------------
    records = registry.telemetry.log.find("request")
    assert len(records) == total
    request_ids = [record["request_id"] for record in records]
    assert len(set(request_ids)) == total
    assert all(rid.startswith("urn:repro:request:") for rid in request_ids)

    # -- span trees: one self-consistent tree per request ---------------------
    traces = list(registry.telemetry.tracer.traces)
    assert traces, "tracing was enabled but produced no finished roots"
    seen_request_ids = set()
    for root in traces:
        assert root.name == "request"
        seen_request_ids.add(root.tags["request_id"])
        spans = list(root.iter_spans())
        # every span of the tree carries the root's trace id — nothing from
        # another thread's request ever attached here
        assert {span.trace_id for span in spans} == {root.trace_id}
        # the stage chain nests single-child, in pipeline order
        chain, node = [], root
        while node.children:
            assert len(node.children) == 1, [c.name for c in node.children]
            node = node.children[0]
            chain.append(node.name)
        assert chain == STAGES
    # retained roots (bounded deque) all belong to distinct requests
    assert len(seen_request_ids) == len(traces)
    trace_ids = {root.trace_id for root in traces}
    assert len(trace_ids) == len(traces)


def test_worker_labels_isolated_per_thread():
    """A label set in one thread never bleeds into another's accounting."""
    registry = build_registry()
    _, credential = registry.register_user("gold")
    session = registry.login(credential)
    from repro.rim import Organization

    org = Organization(registry.ids.new_id(), name="SDSU")
    registry.lcm.submit_objects(session, [org])
    http = HttpGetBinding(registry)
    target = (
        f"http://x/omar?interface=QueryManager"
        f"&method=getRegistryObject&param-id={org.id}"
    )

    def labelled(label: str) -> None:
        set_worker_label(label)
        http.get(target)

    thread = threading.Thread(target=labelled, args=("side-thread",))
    thread.start()
    thread.join()
    http.get(target)  # main thread, unlabelled → "main"

    per_worker = registry.pipeline_stats(per_worker=True)
    assert sorted(per_worker) == ["main", "side-thread"]
    for label in ("main", "side-thread"):
        assert per_worker[label]["http"]["getRegistryObject"]["count"] == 1


def test_caller_threads_leave_bounded_shards_and_labels():
    """One-request caller threads must not grow what the kernel keeps: the
    request series (which replaced the per-thread stats shards) are per
    worker label, not per thread."""
    from repro.registry.kernel import OperationSpec
    from repro.serving import ServingConfig, ServingSupervisor

    registry = RegistryServer(RegistryConfig(seed=42))
    noop = OperationSpec(name="noop", handler=lambda ctx: None)
    callers, batch = 2000, 20
    with ServingSupervisor(registry, ServingConfig(workers=2)) as supervisor:
        for _ in range(callers // batch):
            # 20 at a time against 2 permits: most run inline, some queue
            threads = [
                threading.Thread(target=supervisor.call, kwargs={"spec": noop})
                for _ in range(batch)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        supervisor.drain()
        # what the kernel keeps per request is a series per (edge, operation,
        # worker label): 2 000 caller threads share the one "caller" label
        latency = registry.telemetry.request_latency
        assert len(latency.series()) <= 3  # the two workers and "caller"
        per_worker = registry.pipeline_stats(per_worker=True)
        assert len(latency.series()) <= 3  # reading a snapshot adds none
        serving = supervisor.serving_stats()
        supervisor.close()

    assert set(per_worker) <= {"caller", "worker-0", "worker-1"}
    counts = {label: tree["serving"]["noop"]["count"] for label, tree in per_worker.items()}
    assert counts["caller"] == serving["served_inline"]
    assert sum(counts.values()) == callers
    assert registry.pipeline_stats()["serving"]["noop"]["count"] == callers
    # the same bounded label set on the per-worker telemetry series
    series = {worker for (_, _, worker), _ in latency.series()}
    assert series and series <= {"caller", "worker-0", "worker-1"}
