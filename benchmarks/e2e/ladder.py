"""The traced run: per-layer metrics, measured from outside the program.

Two rigs are built.  On the first, real traffic runs: closed trials that
alternate the program's own tracing + attribution off and on (the enabled
cost of ``obs``), then the open phase at the workload's frozen rate and at
three more rate steps (``serving``); these loops carry the reference kernel
and their timings are scaled to the reference speed, as in the untraced run.
On the second, one client's first N requests are replayed single-threaded,
timed as the clock reads,

* through the wire path with bench-owned spans at every boundary, and
* at each rung of the ladder — DAO, resolver parts, QueryEngine,
  QueryManager, kernel — by timing calls into the layers' public functions.

Each rung replays the same requests (and, on churn, the same NodeState
sweeps at the same positions), so "rung n minus rung n-1" is taken per
request and summarised as a p50.  A rung the workload's own mix never
reaches is driven by a small fixed probe, so every rung exists — and is a
real measurement — on every workload.  The federation hop has no workload;
its rung is measured on a 2-member federation built here.
"""

from __future__ import annotations

import statistics
import time
from time import perf_counter_ns

from repro.query import parse_select
from repro.registry import RegistryConfig, RegistryFederation, RegistryServer
from repro.rim import Service
from repro.soap import (
    AdhocQueryRequest,
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    SoapEnvelope,
    SoapRegistryBinding,
    UpdateObjectsRequest,
    deserialize,
    serialize,
)
from repro.util.ids import IdFactory

import shape
from endtoend import set_up, tally, us, verify
from loadgen import (
    MIN_TAIL_SAMPLES,
    closed_trial,
    median_iqr,
    open_phase,
    percentile,
    replay,
)
from rig import SPANS, Rig
from workloads import SWEEP_EVERY, Inputs, Request, adhoc_kind_of, write_probe

# indexes into the tuple Wire.request appends per traced request
_REQUEST_BYTES, _RESPONSE_BYTES, _OBJECTS = 9, 10, 11


def _p50(values: list) -> float | None:
    """p50 in µs of ns samples (``None`` entries are requests a rung skipped)."""
    return us(percentile(sorted(v for v in values if v is not None), 0.50))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _diff(a: list, b: list) -> list:
    """Per-request a − b where both rungs ran."""
    return [x - y if x is not None and y is not None else None for x, y in zip(a, b)]


def _timed(call) -> int:
    started = perf_counter_ns()
    call()
    return perf_counter_ns() - started


def tail(sorted_values: list) -> tuple[float | None, float]:
    """The 99th percentile, or the highest one with ten samples beyond it."""
    n = len(sorted_values)
    index = min(int(n * 0.99), n - MIN_TAIL_SAMPLES - 1)
    if index < n // 2:
        return None, 0.0
    return sorted_values[index], index / n


# -- rig 1: real traffic -------------------------------------------------------


def _serving_and_obs(inputs: Inputs, seconds: float) -> dict:
    spec = inputs.spec
    # nothing is recorded here: the replay on the second rig is what is judged
    rig, clients = set_up(inputs, 0)
    registry = rig.registry
    closed = clients[: spec.clients]
    closed_trial(closed, seconds * shape.WARMUP_SHARE, record=False)

    # the program's observability off/on, alternating so drift hits both sides
    trials = {False: [], True: []}
    attributed_s = stage_s = 0.0
    attributed_requests = 0
    call_ns = 0
    for index in range(shape.CLOSED_TRIALS):
        enabled = index % 2 == 1
        registry.enable_tracing(enabled)
        registry.enable_attribution(enabled)
        if enabled:
            before = registry.telemetry.attribution_stats()
            for client in closed:
                client.wire.spans = []
        trials[enabled].append(
            closed_trial(closed, seconds * shape.OBS_TRIAL_SHARE, record=False)
        )
        if enabled:
            after = registry.telemetry.attribution_stats()
            attributed_s += after["attributed_s"] - before["attributed_s"]
            stage_s += after["stage_s"] - before["stage_s"]
            attributed_requests += after["requests"] - before["requests"]
            for client in closed:
                call_ns += sum(row[4] - row[3] for row in client.wire.spans)
                client.wire.spans = None
    registry.enable_tracing(False)
    registry.enable_attribution(False)
    closed_reads = sorted(ns for t in trials[False] for ns in t.scaled_reads)
    rps_off, iqr_off = median_iqr([t.scaled_rps for t in trials[False]])
    rps_on, _ = median_iqr([t.scaled_rps for t in trials[True]])

    # open loop: the frozen rate first, then the other steps of the rate ladder
    queue_before = rig.supervisor.serving_stats()["queue_wait"]
    generator = clients[0]
    opened = open_phase(
        generator, shape.OPEN_RATE[spec.name], seconds * shape.TRACED_OPEN_SHARE
    )
    serving = rig.supervisor.serving_stats()
    queue_after = serving["queue_wait"]
    steps = [opened] + [
        open_phase(
            generator, fraction * shape.SEED_RPS[spec.name], seconds * shape.RATE_STEP_SHARE
        )
        for fraction in shape.RATE_STEPS
        if fraction != shape.OPEN_FRACTION
    ]
    limit_ns = 10 * shape.SEED_P50_US[spec.name] * 1e3
    ok_rates = [
        step.rate
        for step in steps
        if (step_tail := tail(step.scaled_latencies)[0]) is not None
        and step_tail <= limit_ns
        and not step.backlog_growing
        and step.achieved_rate_ratio >= 0.98
    ]
    open_tail, open_tail_q = tail(opened.scaled_latencies)

    planner = registry.qm.query_plan_stats()
    writes = registry.write_stats()
    constraint_cache = rig.balancer.service_constraint.cache_stats()
    resolver = rig.balancer.resolver
    pipeline = registry.pipeline_stats()
    counts = tally(clients, verify(inputs, rig, clients))
    rig.close()

    metrics = {
        "persistence.generations_published": writes["version"],
        "persistence.coalesce_ratio": writes["coalesce_ratio"],
        "persistence.changelog_records": writes["changelog_records"],
        "persistence.result_view_hit_ratio": _ratio(
            planner["result_hits"], planner["result_hits"] + planner["result_misses"]
        ),
        "core.constraint_cache_hit_ratio": _ratio(
            constraint_cache["hits"], constraint_cache["hits"] + constraint_cache["misses"]
        ),
        "core.balanced_resolution_ratio": _ratio(
            resolver.balanced_resolutions, resolver.resolutions
        ),
        "query.plan_cache_hit_ratio": _ratio(
            planner["plan_hits"], planner["plan_hits"] + planner["plans_built"]
        ),
        "query.rows_materialized_per_result": _ratio(
            planner["rows_materialized"], planner["result_misses"]
        ),
        "query.subquery_hit_ratio": _ratio(
            planner["subquery_hits"],
            planner["subquery_hits"] + planner["subquery_materializations"],
        ),
        "registry.faults": sum(
            op["faults"] for edge in pipeline.values() for op in edge.values()
        ),
        "registry.idempotent_replays": writes["idempotent_duplicates"],
        "serving.queue_wait_mean_us": 1e6
        * _ratio(
            queue_after["total_s"] - queue_before["total_s"],
            queue_after["count"] - queue_before["count"],
        ),
        "serving.queue_depth_high_water": serving["queue_depth_high_water"],
        "serving.rejected": serving["rejected"],
        "serving.closed_p95_us": us(percentile(closed_reads, 0.95)),
        "serving.closed_p99_us": us(tail(closed_reads)[0]),
        "serving.open_tail_us": us(open_tail),
        "serving.open_backlog_max": opened.backlog_max,
        "serving.max_rate_ok": max(ok_rates, default=0.0),
        "obs.trace_overhead_ratio": _ratio(rps_on, rps_off),
        "obs.attribution_coverage": _ratio(attributed_s, call_ns / 1e9),
        "loadgen.lateness_p99_us": us(tail(opened.lateness)[0]),
        "loadgen.achieved_rate_ratio": opened.achieved_rate_ratio,
        "loadgen.trial_iqr_ratio": _ratio(iqr_off, rps_off),
    }
    return {
        "metrics": metrics,
        "samples": {
            "serving.closed_p95_us": len(closed_reads),
            "serving.closed_p99_us": len(closed_reads),
            "serving.open_tail_us": len(opened.latencies),
            "loadgen.lateness_p99_us": len(opened.lateness),
            "obs.trace_overhead_ratio": sum(
                t.completed for side in trials.values() for t in side
            ),
            "obs.attribution_coverage": attributed_requests,
        },
        "info": {
            "open_tail_quantile": open_tail_q,
            "open_p50_us": us(percentile(opened.scaled_latencies, 0.50)),
            "rate_steps": {
                f"{step.rate:g}/s": {
                    "tail_us": us(tail(step.scaled_latencies)[0]),
                    "achieved": step.achieved_rate_ratio,
                    "backlog_growing": step.backlog_growing,
                }
                for step in steps
            },
        },
        # as the clock read it, like the traced replay's rps it is printed beside
        "untraced_rps": statistics.median(t.rps for t in trials[False]),
        "stage_us_per_request": 1e6 * _ratio(stage_s, attributed_requests),
        **counts,
    }


# -- rig 2: the traced replay and the ladder -------------------------------------


def _rung(rig: Rig, requests: list[Request], prepare, *, kind: str | None = None) -> list:
    """Time ``prepare(request)()`` per read request, replaying what moves state.

    *prepare* does a rung's untimed preparation and returns the call to
    time.  ``kind`` restricts the rung to discovery or ad-hoc reads; other
    requests yield ``None``.  State moves as it did on the wire: churn's
    sweeps run at the same positions, and every ``UpdateObjectsRequest`` of
    the stream is applied again (untimed, without its idempotency key, which
    would only replay the recorded result), so each rung meets the same
    invalidations.  Submit/Remove pairs cannot be applied twice and are
    skipped.
    """
    out = []
    for index, request in enumerate(requests):
        if request.sweep:
            rig.sweep(index // SWEEP_EVERY)
        if request.kind == "write":
            if isinstance(request.body, UpdateObjectsRequest):
                rig.registry.lcm.update_objects(
                    rig.session, [deserialize(data) for data in request.body.objects]
                )
            out.append(None)
            continue
        call = prepare(request) if kind in (None, request.kind) else None
        out.append(None if call is None else _timed(call))
    return out


def _probe_reads(inputs: Inputs, kind: str) -> list[Request]:
    """A fixed set of reads of a kind the workload's own mix lacks."""
    if kind == "discovery":
        picks = inputs.services[: shape.PROBE_REQUESTS]
        return [Request("discovery", GetServiceBindingsRequest(s.id)) for s in picks]
    texts = (inputs.hot_texts + inputs.cold_texts)[: shape.PROBE_REQUESTS]
    return [Request("adhoc", AdhocQueryRequest(text)) for text in texts]


def _ladder(inputs: Inputs, seconds: float, count: int) -> dict:
    rig, clients = set_up(inputs, count)
    registry = rig.registry
    closed_trial(clients[:1], seconds * shape.WARMUP_SHARE, record=False)

    # the wire path, with spans.  Client 1's stream is untouched by the
    # warm-up above, and on mixed_rw it owns a partition client 0 never
    # writes, so every answer of the replay can be judged exactly.
    tracer = clients[1]
    tracer.wire.spans = []
    tracer.recording = True
    started = time.perf_counter()
    timed = replay(tracer, [tracer.sequence.next() for _ in range(count)])
    traced_rps = len(timed) / (time.perf_counter() - started)
    tracer.recording = False
    spans, tracer.wire.spans = tracer.wire.spans, None
    requests = [request for request, _ns in timed]
    # an idempotent re-send appends a span of its own; keep each request's first
    firsts, position = [], 0
    for request in requests:
        firsts.append(spans[position])
        position += 2 if request.resend else 1
    spans = firsts
    is_read = [r.kind != "write" for r in requests]
    mismatches = verify(inputs, rig, clients)

    services = registry.daos.services
    bindings_dao = registry.daos.service_bindings
    constraint = rig.balancer.service_constraint
    load_status = rig.balancer.load_status
    qm, engine = registry.qm, registry.engine
    edge = SoapRegistryBinding(registry)
    edge.register_session(rig.session)
    ranked_hosts: list[int] = []
    objects_coded: list[int] = []

    # one ``prepare`` per rung
    def get_view(r):
        return lambda: services.get_view(r.body.service_id)

    def check(r):
        view = services.get_view(r.body.service_id)
        return lambda: constraint.check(view)

    def rank(r):
        view = services.get_view(r.body.service_id)
        checked = constraint.check(view)
        if not checked.active:
            return None
        hosts = [b.host for b in bindings_dao.for_service(view, copy=False)]
        ranked_hosts.append(len(hosts))
        return lambda: load_status.rank(hosts, checked.constraints)

    def dao_resolve(r):
        view = services.get_view(r.body.service_id)
        return lambda: services.resolve_bindings(view, copy=False)

    def serialize_answer(r):
        found = qm.get_service_bindings(r.body.service_id)
        objects_coded.append(len(found))
        return lambda: [serialize(binding) for binding in found]

    def deserialize_answer(r):
        data = [serialize(b) for b in qm.get_service_bindings(r.body.service_id)]
        return lambda: [deserialize(item) for item in data]

    def parse(r):
        return lambda: parse_select(r.body.query)

    def execute(r):
        return lambda: engine.execute(r.body.query)

    def query_manager(r):
        body = r.body
        if r.kind == "discovery":
            return lambda: qm.get_service_bindings(body.service_id)
        return lambda: qm.execute_adhoc_query(
            body.query,
            query_language=body.query_language,
            start_index=body.start_index,
            max_results=body.max_results,
        )

    def handle(r):
        envelope = SoapEnvelope.with_session(
            r.body, rig.session.token if r.auth else None
        )
        return lambda: edge.handle(envelope)

    def write_commit(r):
        objects = [deserialize(data) for data in r.body.objects]
        return lambda: registry.lcm.update_objects(rig.session, objects)

    # a kind the workload's own mix lacks is driven by a probe, warmed once
    own_kinds = {r.kind for r in requests}
    streams = {}
    for kind in ("discovery", "adhoc"):
        if kind in own_kinds:
            streams[kind] = requests
        else:
            streams[kind] = _probe_reads(inputs, kind)
            _rung(rig, streams[kind], handle)
    ns = {
        name: _rung(rig, streams[kind], prepare, kind=kind)
        for name, kind, prepare in (
            ("get_view", "discovery", get_view),
            ("check", "discovery", check),
            ("rank", "discovery", rank),
            ("dao_resolve", "discovery", dao_resolve),
            ("serialize", "discovery", serialize_answer),
            ("deserialize", "discovery", deserialize_answer),
            ("parse", "adhoc", parse),
            ("execute", "adhoc", execute),
        )
    }
    ns["qm"] = _rung(rig, requests, query_manager)
    ns["handle"] = _rung(rig, requests, handle)
    # per own read, what runs below the QueryManager and what serialize costs
    nothing = [None] * len(requests)
    own = {
        name: ns[name] if streams[kind] is requests else nothing
        for name, kind in (
            ("get_view", "discovery"), ("check", "discovery"), ("rank", "discovery"),
            ("dao_resolve", "discovery"), ("serialize", "discovery"), ("execute", "adhoc"),
        )
    }
    # writes: the same 64 description-preserving rewrites at both rungs, then
    # through the wire
    probe = write_probe(inputs, rig.templates, 64)
    write_rung = {
        name: [_timed(prepare(request)) for request in probe]
        for name, prepare in (("write_commit", write_commit), ("write_handle", handle))
    }
    write_rung["wire"] = [elapsed for _r, elapsed in replay(tracer, probe)]

    guest = registry.guest()
    check_read_ns = [
        _timed(lambda: registry.check_read(guest)) for _ in range(shape.PROBE_REQUESTS)
    ]
    # 64 record_sample calls, whatever the host count
    samples = inputs.sweep_samples(0) if inputs.spec.churn else inputs.static_samples
    passes = range(64 // len(samples))
    sweep_ns = [
        _timed(lambda: [rig.record_samples(samples) for _pass in passes])
        for _ in range(30)
    ]

    counts = tally(clients, mismatches)
    rig.close()

    def span(name: str) -> list[int]:
        _n, a, b, _p = next(s for s in SPANS if s[0] == name)
        return [row[b] - row[a] for row in spans]

    def reads_only(values: list) -> list:
        return [v if read else None for v, read in zip(values, is_read)]

    call = reads_only(span("serving.call"))
    transport_self = [
        t - d - c - e
        for t, d, c, e in zip(
            span("transport.request"), span("endpoint.decode"),
            span("serving.call"), span("endpoint.encode"),
        )
    ]
    below = [
        x if v is None else v + d
        for v, d, x in zip(own["get_view"], own["dao_resolve"], own["execute"])
    ]
    querymgr = _diff(ns["qm"], below)
    kernel = [
        None if h is None else h - q - (s or 0)
        for h, q, s in zip(ns["handle"], ns["qm"], own["serialize"])
    ]
    handoff = _diff(call, ns["handle"])

    metrics: dict = {}
    samples: dict = {}
    for name, values in (
        ("persistence.dao_resolve_us", ns["dao_resolve"]),
        ("persistence.get_view_us", ns["get_view"]),
        ("persistence.nodestate_sweep_us", sweep_ns),
        ("persistence.write_commit_us", write_rung["write_commit"]),
        ("core.constraint_check_us", ns["check"]),
        ("core.rank_us", ns["rank"]),
        ("query.parse_us", ns["parse"]),
        ("query.execute_us", ns["execute"]),
        ("security.check_read_us", check_read_ns),
        ("registry.querymgr_us", querymgr),
        ("registry.kernel_us", kernel),
        ("registry.lifecycle_us", _diff(write_rung["write_handle"], write_rung["write_commit"])),
        ("registry.write_p50_us", write_rung["wire"]),
        ("soap.encode_request_us", span("client.encode")),
        ("soap.decode_request_us", span("endpoint.decode")),
        ("soap.encode_response_us", span("endpoint.encode")),
        ("soap.decode_response_us", span("client.decode")),
        ("soap.transport_us", transport_self),
        ("serving.handoff_us", handoff),
    ):
        metrics[name] = _p50(values)
        samples[name] = _count(values)
    coded = sum(objects_coded)
    metrics.update(
        {
            "core.hosts_ranked_per_answer": statistics.fmean(ranked_hosts),
            "soap.serialize_us_per_object": _ratio(_total_us(ns["serialize"]), coded),
            "soap.deserialize_us_per_object": _ratio(_total_us(ns["deserialize"]), coded),
            "soap.request_bytes": sum(row[_REQUEST_BYTES] for row in spans),
            "soap.response_bytes": sum(row[_RESPONSE_BYTES] for row in spans),
        }
    )
    samples["soap.serialize_us_per_object"] = coded
    samples["soap.deserialize_us_per_object"] = coded

    # each layer's total µs over the workload's own reads, as a share of
    # their total wire latency (means add up; medians do not)
    core = _total_us(own["check"]) + _total_us(own["rank"])
    layer_us = {
        "core": core,
        "persistence": _total_us(own["get_view"]) + _total_us(own["dao_resolve"]) - core,
        "query": _total_us(own["execute"]),
        "registry": _total_us(querymgr) + _total_us(kernel),
        "soap.serialize": _total_us(own["serialize"]),
        "serving": _total_us(handoff),
        "soap.codec": sum(
            _total_us(reads_only(span(name)))
            for name in ("client.encode", "endpoint.decode", "endpoint.encode",
                         "client.decode", "client.deserialize")
        ),
        "soap.transport": _total_us(reads_only(transport_self)),
    }
    wire_us = sum(elapsed for r, elapsed in timed if r.kind != "write") / 1e3
    by_kind: dict[str, float] = {}
    for request, elapsed in timed:
        kind = request.kind
        if kind == "adhoc":
            kind = "adhoc." + adhoc_kind_of(request.body.query)
        by_kind[kind] = by_kind.get(kind, 0.0) + elapsed
    rung_p50_sum = sum(
        _p50(values) or 0.0
        for values in (below, querymgr, kernel, own["serialize"], handoff)
    )
    return {
        "metrics": metrics,
        "samples": samples,
        "info": {
            "traced_requests": len(requests),
            "traced_rps": traced_rps,
            "wire_read_mean_us": wire_us / sum(is_read),
            "layer_share_of_wire_mean": {
                layer: _ratio(total, wire_us) for layer, total in layer_us.items()
            },
            "time_share_by_kind": {
                kind: total / sum(by_kind.values()) for kind, total in sorted(by_kind.items())
            },
            "serving_call_p50_us": _p50(call),
            "ladder_sum_over_serving_call_p50": _ratio(rung_p50_sum, _p50(call) or 0.0),
        },
        "handle_mean_us": _ratio(_total_us(ns["handle"]), _count(ns["handle"])),
        "spans": [
            {"request": index, "name": name, "start_ns": row[a], "end_ns": row[b],
             "parent": parent}
            for index, row in enumerate(spans)
            for name, a, b, parent in SPANS
        ],
        **counts,
    }


def _total_us(values: list) -> float:
    return sum(v for v in values if v is not None) / 1e3


def _count(values: list) -> int:
    return sum(v is not None for v in values)


# -- the federation rung ---------------------------------------------------------


def _federation(seed: int) -> tuple[dict, dict]:
    """One forwarded hop and one replicated record, on a 2-member federation."""
    owner, other = (
        RegistryServer(RegistryConfig(home=f"http://{name}.bench:8080/omar/registry", seed=seed))
        for name in ("owner", "other")
    )
    federation = RegistryFederation("bench")
    federation.join(owner)
    federation.join(other)
    ids = IdFactory(seed)
    owned: list[str] = []
    while len(owned) < 64:
        object_id = ids.new_id()
        if federation.shard_map.owner(object_id) == owner.home:
            owner.store.insert_object(
                Service(object_id, name=f"Fed{len(owned):02d}", home=owner.home)
            )
            owned.append(object_id)
    transport = federation.transport
    endpoints = [federation.endpoint_for(member.home) for member in (owner, other)]
    hops = []
    for _round in range(4):
        for object_id in owned:
            envelope = SoapEnvelope(GetRegistryObjectRequest(object_id))
            timings = []
            for endpoint in endpoints:
                started = perf_counter_ns()
                transport.request(endpoint, envelope)
                timings.append(perf_counter_ns() - started)
            hops.append(timings[1] - timings[0])
    forwarded = federation.router_for(other.home).stats()["forwarded"]
    link = federation.link(owner, other)
    started = perf_counter_ns()
    applied = link.pump()
    pump_ns = perf_counter_ns() - started
    metrics = {
        "federation.hop_us": _p50(hops),
        "federation.apply_us_per_record": _ratio(pump_ns / 1e3, applied),
        "federation.forwarded": forwarded,
    }
    return metrics, {"federation.hop_us": len(hops), "federation.apply_us_per_record": applied}


def measure(inputs: Inputs, seconds: float, *, traced_requests: int) -> dict:
    traffic = _serving_and_obs(inputs, seconds)
    laddered = _ladder(inputs, seconds, traced_requests)
    federation, federation_samples = _federation(inputs.seed)
    metrics = {**laddered["metrics"], **traffic["metrics"], **federation}
    # the attribution plane's per-request stage time against the ladder's
    # kernel rung (handle = all stages + everything below), both as means
    metrics["obs.attribution_vs_ladder"] = _ratio(
        traffic["stage_us_per_request"], laddered["handle_mean_us"]
    )
    return {
        "metrics": metrics,
        "samples": {**laddered["samples"], **traffic["samples"], **federation_samples},
        "attempted": traffic["attempted"] + laddered["attempted"],
        "failed": traffic["failed"] + laddered["failed"],
        "messages": (traffic["messages"] + laddered["messages"])[:10],
        "info": {
            **traffic["info"], "untraced_rps": traffic["untraced_rps"], **laddered["info"]
        },
        "spans": laddered["spans"],
    }
