"""SERV-1 — concurrent serving core: QPS vs worker count, parity, tail latency.

The serving core (``repro.serving``) puts N worker threads behind one
bounded dispatch queue, all executing the shared kernel pipeline against
one MVCC-snapshot DataStore.  This bench offers a fixed closed workload —
a discovery/ad-hoc mix of ``GetServiceBindingsRequest`` and
``AdhocQueryRequest`` traffic — to fleets of 1/2/4/8 workers in two modes:

* **wire mode** — each request carries ``wire_delay_s`` of simulated
  wire/IO time (a GIL-releasing sleep).  This is the regime a real
  registry serves in (requests wait on sockets, not the interpreter), and
  where worker concurrency must pay off: discovery QPS is asserted to
  climb monotonically from 1 to 4 workers.
* **cpu mode** — zero wire time, pure-Python compute.  Recorded for the
  curve (the GIL serializes compute, so no scaling is asserted), and as
  the honest baseline of what threading cannot buy.

Every fleet size replays the *same* request order against a freshly built
(deterministic, seed-locked) registry, and the full response list must be
``==``-identical to the single-worker run — the lock-free read snapshots
may not change a single answer.  Tail latency (p50/p99 of enqueue→complete
time) shows the saturation curve: under closed offered load a small fleet
queues, a larger one drains.

Scale knobs (for the CI smoke job): ``BENCH_SERVING_SERVICES``,
``BENCH_SERVING_REQUESTS``, ``BENCH_SERVING_WIRE_MS``,
``BENCH_SERVING_WORKERS``.  Results merge into ``BENCH_serving.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from repro.obs.metrics import parse_exposition
from repro.persistence.nodestate import NodeSample
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Service, ServiceBinding
from repro.serving import ServingConfig, ServingSupervisor
from repro.soap.messages import AdhocQueryRequest, GetServiceBindingsRequest
from repro.util.clock import ManualClock

SERVICES = int(os.environ.get("BENCH_SERVING_SERVICES", "150"))
HOSTS = 16
REQUESTS = int(os.environ.get("BENCH_SERVING_REQUESTS", "600"))
WIRE_MS = float(os.environ.get("BENCH_SERVING_WIRE_MS", "2.0"))
WORKER_COUNTS = tuple(
    int(n) for n in os.environ.get("BENCH_SERVING_WORKERS", "1,2,4,8").split(",")
)

#: every fourth request is an ad-hoc SQL query; the rest are discovery
ADHOC_EVERY = 4

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def build_registry() -> tuple[RegistryServer, list[str]]:
    """A deterministic registry: same seed + manual clock ⇒ same ids/answers."""
    clock = ManualClock(start=11 * 3600.0)
    registry = RegistryServer(RegistryConfig(seed=7), clock=clock)
    hosts = [f"host{i:03d}.bench" for i in range(HOSTS)]
    for i, host in enumerate(hosts):
        registry.node_state.record_sample(
            NodeSample(
                host=host,
                load=(i % 40) / 10.0,
                memory=4 << 30,
                swap_memory=1 << 30,
                updated=clock.now(),
            )
        )
    ids = registry.ids
    service_ids: list[str] = []
    for i in range(SERVICES):
        service = Service(ids.new_id(), name=f"Svc{i:04d}")
        bindings = [
            ServiceBinding(
                ids.new_id(),
                service=service.id,
                access_uri=f"http://{host}:8080/svc{i}/endpoint",
            )
            for host in hosts[: 1 + i % 4]
        ]
        for binding in bindings:
            service.binding_ids.append(binding.id)
        registry.store.insert_object(service)
        for binding in bindings:
            registry.store.insert_object(binding)
        service_ids.append(service.id)
    return registry, service_ids


def build_workload(service_ids: list[str]) -> list[tuple[str, object]]:
    """The fixed (kind, body) request sequence every fleet size replays."""
    rng = random.Random(42)
    workload: list[tuple[str, object]] = []
    for i in range(REQUESTS):
        if i % ADHOC_EVERY == ADHOC_EVERY - 1:
            name = f"Svc{rng.randrange(SERVICES):04d}"
            workload.append(
                (
                    "adhoc",
                    AdhocQueryRequest(
                        query=f"SELECT id FROM Service WHERE name = '{name}'"
                    ),
                )
            )
        else:
            workload.append(
                ("discovery", GetServiceBindingsRequest(rng.choice(service_ids)))
            )
    return workload


def run_fleet(
    workers: int, wire_delay_s: float, workload: list[tuple[str, object]]
) -> tuple[dict, list]:
    """Offer the whole workload to one fleet; measure QPS + tail latency."""
    registry, _service_ids = build_registry()
    supervisor = ServingSupervisor(
        registry,
        ServingConfig(
            workers=workers,
            queue_capacity=len(workload) + workers,
            wire_delay_s=wire_delay_s,
        ),
    )
    completions: list[float | None] = [None] * len(workload)

    def completion_recorder(index: int):
        def record(_future) -> None:
            completions[index] = time.perf_counter()

        return record

    with supervisor:
        started = time.perf_counter()
        futures = []
        for index, (_kind, body) in enumerate(workload):
            future = supervisor.submit(body=body)
            future.add_done_callback(completion_recorder(index))
            futures.append(future)
        responses = [future.result(timeout=120.0) for future in futures]
        elapsed = time.perf_counter() - started
        stats = supervisor.serving_stats()
        pipeline = registry.pipeline_stats()
        per_worker = registry.pipeline_stats(per_worker=True)
    supervisor.close()

    latencies_ms = sorted(
        (done - started) * 1000.0 for done in completions if done is not None
    )
    faults = sum(op["faults"] for op in pipeline.get("serving", {}).values())
    discovery = sum(1 for kind, _ in workload if kind == "discovery")
    report = {
        "workers": workers,
        "qps": len(workload) / elapsed,
        "discovery_qps": discovery / elapsed,
        "adhoc_qps": (len(workload) - discovery) / elapsed,
        "elapsed_s": elapsed,
        "p50_ms": latencies_ms[len(latencies_ms) // 2],
        "p99_ms": latencies_ms[min(len(latencies_ms) - 1, int(len(latencies_ms) * 0.99))],
        "faults": faults,
        "served_per_worker": stats["served_per_worker"],
        "workers_reporting": sorted(per_worker),
        "store": registry.store.concurrency_stats(),
    }
    return report, responses


#: fleet size for the cost-attribution section
ATTR_WORKERS = 4


def run_attribution_profile(workload: list[tuple[str, object]]) -> dict:
    """The cost-attribution section: a traced 4-worker cpu run.

    Request wall time is measured *outside* the serving stack (submit →
    completion callback on ``time.perf_counter``), so the acceptance gate —
    ``queue_wait + stage + forward_hop`` accounting for ≥ 90 % of measured
    wall time — compares the attribution plane against an independent
    clock, not against itself.
    """
    registry, _service_ids = build_registry()
    registry.enable_attribution()
    registry.enable_tracing()
    supervisor = ServingSupervisor(
        registry,
        ServingConfig(
            workers=ATTR_WORKERS, queue_capacity=len(workload) + ATTR_WORKERS
        ),
    )
    submits: list[float] = [0.0] * len(workload)
    completions: list[float] = [0.0] * len(workload)

    def completion_recorder(index: int):
        def record(_future) -> None:
            completions[index] = time.perf_counter()

        return record

    with supervisor:
        futures = []
        for index, (_kind, body) in enumerate(workload):
            submits[index] = time.perf_counter()
            future = supervisor.submit(body=body)
            future.add_done_callback(completion_recorder(index))
            futures.append(future)
        for future in futures:
            future.result(timeout=120.0)
        supervisor.drain()
        attr = registry.telemetry.attribution_stats()
        exemplar_series = registry.telemetry.exemplar_index()
        exposition = registry.telemetry.render_prometheus()
        serving = supervisor.serving_stats()
    supervisor.close()

    external_wall_s = sum(
        done - started for started, done in zip(submits, completions)
    )
    # the exemplar-bearing exposition must survive the strict parser
    parsed, parsed_exemplars = parse_exposition(exposition, return_exemplars=True)
    latency_exemplars = parsed_exemplars.get(
        "repro_request_latency_seconds_bucket", {}
    )
    round_trip = bool(latency_exemplars) and all(
        "trace_id" in entry["labels"] and entry["value"] >= 0.0
        for entry in latency_exemplars.values()
    )
    return {
        "workers": ATTR_WORKERS,
        "requests": attr["requests"],
        "components_s": {
            "queue_wait": attr["queue_wait_s"],
            "stage": attr["stage_s"],
            "forward_hop": attr["forward_hop_s"],
            "wire": attr["wire_s"],
        },
        "stages_s": attr["stages"],
        "attributed_s": attr["attributed_s"],
        "total_s": attr["total_s"],
        "coverage_internal": attr["coverage"],
        "external_wall_s": external_wall_s,
        "coverage_vs_wall": (
            attr["attributed_s"] / external_wall_s if external_wall_s else 1.0
        ),
        "queue_wait": serving["queue_wait"],
        "queue_depth_high_water": serving["queue_depth_high_water"],
        "exemplar_series": len(exemplar_series),
        "exemplar_round_trip": round_trip,
        "exposition_families": len(parsed),
    }


def run_bench() -> tuple[dict, dict[str, dict[int, list]]]:
    registry, service_ids = build_registry()
    workload = build_workload(service_ids)
    del registry  # each fleet builds its own identical copy
    report: dict = {
        "bench": "serving",
        "scale": {
            "services": SERVICES,
            "hosts": HOSTS,
            "requests": REQUESTS,
            "wire_ms": WIRE_MS,
            "worker_counts": list(WORKER_COUNTS),
        },
    }
    responses_by_mode: dict[str, dict[int, list]] = {}
    for mode, wire_delay_s in (("wire", WIRE_MS / 1000.0), ("cpu", 0.0)):
        mode_report: dict[str, dict] = {}
        mode_responses: dict[int, list] = {}
        for workers in WORKER_COUNTS:
            fleet, responses = run_fleet(workers, wire_delay_s, workload)
            mode_report[str(workers)] = fleet
            mode_responses[workers] = responses
        report[mode] = mode_report
        responses_by_mode[mode] = mode_responses

    # parity: every fleet size must produce ==-identical response lists
    baseline_workers = WORKER_COUNTS[0]
    mismatches = []
    for mode, by_workers in responses_by_mode.items():
        baseline = by_workers[baseline_workers]
        for workers, responses in by_workers.items():
            if responses != baseline:
                mismatches.append((mode, workers))
    report["parity"] = {
        "identical": not mismatches,
        "mismatched_runs": [f"{mode}:{workers}" for mode, workers in mismatches],
        "baseline_workers": baseline_workers,
        "responses_compared": REQUESTS * len(WORKER_COUNTS) * 2,
    }
    report["attribution"] = run_attribution_profile(workload)
    return report, responses_by_mode


def test_serving_scaling(save_artifact, bench_history_writer, benchmark):
    report, _responses = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    merged = bench_history_writer(JSON_PATH, report)

    lines = [
        f"SERV-1 — serving core, {REQUESTS} requests "
        f"({REQUESTS // ADHOC_EVERY} ad-hoc), {SERVICES} services, "
        f"wire {WIRE_MS:.1f} ms, fleets {list(WORKER_COUNTS)}",
        "",
        f"{'mode':6s} {'workers':>7s} {'qps':>10s} {'disc qps':>10s} "
        f"{'p50 ms':>9s} {'p99 ms':>9s}",
    ]
    for mode in ("wire", "cpu"):
        for workers in WORKER_COUNTS:
            row = report[mode][str(workers)]
            lines.append(
                f"{mode:6s} {workers:7d} {row['qps']:10.0f} "
                f"{row['discovery_qps']:10.0f} {row['p50_ms']:9.2f} "
                f"{row['p99_ms']:9.2f}"
            )
    lines.append(
        f"\nparity: {report['parity']['responses_compared']} responses compared, "
        f"identical={report['parity']['identical']}"
    )
    attribution = report["attribution"]
    components = attribution["components_s"]
    lines.append(
        f"attribution ({attribution['workers']} workers, cpu): "
        f"{attribution['coverage_vs_wall'] * 100.0:.1f}% of measured wall "
        f"(queue_wait {components['queue_wait']:.3f}s, "
        f"stage {components['stage']:.3f}s, "
        f"hop {components['forward_hop']:.3f}s); "
        f"{attribution['exemplar_series']} exemplar series"
    )
    save_artifact("SERV1_serving_scaling", "\n".join(lines))

    # concurrent answers must be bit-identical to the single-worker run
    assert report["parity"]["identical"], report["parity"]["mismatched_runs"]
    for mode in ("wire", "cpu"):
        for workers in WORKER_COUNTS:
            row = report[mode][str(workers)]
            assert row["faults"] == 0, row
            # every worker in the fleet actually served traffic …
            assert len(row["served_per_worker"]) == workers
            assert sum(row["served_per_worker"].values()) == REQUESTS
            # … and reported its own pipeline-stats shard
            if workers > 1:
                assert len(row["workers_reporting"]) > 1, row

    # the tentpole claim: with wire time in the request, discovery QPS climbs
    # monotonically as the fleet grows 1 → 4 (sleeps overlap across workers)
    if WIRE_MS > 0:
        scaling = [
            report["wire"][str(workers)]["discovery_qps"]
            for workers in WORKER_COUNTS
            if workers <= 4
        ]
        assert all(b > a for a, b in zip(scaling, scaling[1:])), scaling
    # cost-attribution acceptance: the split explains ≥ 90 % of externally
    # measured request wall time, and exemplars round-trip the parser
    assert attribution["requests"] == REQUESTS
    assert attribution["coverage_vs_wall"] >= 0.9, attribution
    assert attribution["coverage_internal"] >= 0.9, attribution
    assert attribution["exemplar_round_trip"] is True, attribution
    benchmark.extra_info["attribution_coverage_vs_wall"] = round(
        attribution["coverage_vs_wall"], 4
    )
    benchmark.extra_info["wire_qps_by_workers"] = {
        str(workers): round(report["wire"][str(workers)]["qps"], 1)
        for workers in WORKER_COUNTS
    }
    from conftest import HISTORY_KEEP

    assert len(merged["history"]) <= HISTORY_KEEP


def test_bench_json_valid():
    """The smoke check CI runs at reduced scale: the artifact must be valid."""
    assert JSON_PATH.exists(), "run test_serving_scaling first"
    data = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    assert data["bench"] == "serving"
    assert data["parity"]["identical"] is True
    for mode in ("wire", "cpu"):
        for workers, row in data[mode].items():
            assert int(workers) == row["workers"]
            assert row["qps"] > 0
            assert row["p99_ms"] >= row["p50_ms"]
            assert row["faults"] == 0
    attribution = data["attribution"]
    assert attribution["coverage_vs_wall"] >= 0.9
    assert attribution["exemplar_round_trip"] is True
