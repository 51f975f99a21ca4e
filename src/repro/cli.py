"""Command-line administrative tools (thesis §2.2.1 / §3.4.5).

freebXML ships command-line utilities; the thesis drives its API with
``java SampleProject "action.xml" "connection.xml"``.  This CLI reproduces
that workflow plus the experiment harness:

``repro init <state.json>``
    create a fresh registry state file;
``repro register <state.json> <alias> <password> [--keystore ks.json]``
    run user registration and write the credential into a client keystore
    (the wizard + KeystoreMover flow in one step);
``repro execute <state.json> <connection.xml> <action.xml> [--keystore ks.json]``
    the SampleProject equivalent: run an AccessRegistry action document and
    print the thesis-style output (``Organization id :- urn:uuid:…``);
``repro query <state.json> "<SQL>"``
    run an ad hoc query and print rows;
``repro stats <state.json> [--format table|json|prometheus]``
    print the registry's merged telemetry snapshot;
``repro top <state.json>``
    print the per-host NodeState table (load, memory, sample age) and the
    registry health/SLO summary — the operator's ``top`` for the cluster;
``repro slo [--fail-host h --fail-at t [--recover-at t]]``
    run an SLO-instrumented experiment (optionally with an induced outage)
    and print the burn-rate alert timeline; ``--expect page`` makes the
    exit code assert the availability SLO reached that state (the CI
    ``slo-smoke`` contract) and ``--export-trace out.json`` writes the
    Chrome trace export;
``repro experiment [--duration N] [--policies a,b,c]``
    run the LB-1 policy comparison and print the metrics table;
``repro sweep-period [--periods 5,10,25,60]``
    run the LB-2 staleness ablation;
``repro cluster [--members N --objects M --requests R --max-lag L]``
    run a deterministic federated demo cluster (shard-routed requests,
    changelog replication) and print the member table, replication-link
    watermarks, and the replication-lag SLO state.

State files are JSON registry snapshots (:mod:`repro.persistence.snapshot`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench import format_table
from repro.client.access import ClientEnvironment, Registry
from repro.persistence.snapshot import load_registry_file, save_registry_file
from repro.registry import RegistryConfig, RegistryServer
from repro.security.keystore import Keystore, load_keystore, save_keystore
from repro.util.clock import WallClock
from repro.util.errors import RegistryError

DEFAULT_URL = "http://localhost:8080/omar/registry"


def _open_registry(path: str, *, must_exist: bool = True) -> RegistryServer:
    registry = RegistryServer(RegistryConfig(home=DEFAULT_URL), clock=WallClock())
    if os.path.exists(path):
        load_registry_file(registry, path)
    elif must_exist:
        raise SystemExit(f"error: no registry state at {path!r}; run 'repro init' first")
    return registry


def _open_keystore(path: str | None) -> tuple[Keystore, str]:
    resolved = path or os.path.expanduser("~/.repro-keystore.json")
    if os.path.exists(resolved):
        return load_keystore(resolved), resolved
    return Keystore(), resolved


def cmd_init(args: argparse.Namespace) -> int:
    registry = RegistryServer(RegistryConfig(home=DEFAULT_URL), clock=WallClock())
    save_registry_file(registry, args.state)
    print(f"initialized empty registry state at {args.state}")
    return 0


def cmd_register(args: argparse.Namespace) -> int:
    registry = _open_registry(args.state)
    keystore, keystore_path = _open_keystore(args.keystore)
    _, credential = registry.register_user(args.alias)
    keystore.set_entry(args.alias, credential, args.password)
    keystore.import_trusted("registryOperator", registry.authority.certificate)
    save_registry_file(registry, args.state)
    save_keystore(keystore, keystore_path)
    print(f"registered user {args.alias!r}")
    print(f"credential stored in {keystore_path} (alias {args.alias!r})")
    return 0


def cmd_execute(args: argparse.Namespace) -> int:
    registry = _open_registry(args.state)
    keystore, keystore_path = _open_keystore(args.keystore)
    env = ClientEnvironment(
        registries={DEFAULT_URL: registry},
        keystores={keystore_path: keystore},
        default_keystore_path=keystore_path,
    )
    try:
        api = Registry(args.connection, args.action, environment=env)
        published, modified, uris = api.execute()
    except RegistryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # thesis §3.4.5 output format
    for org_id in published:
        print(f"Organization id :- {org_id}")
    for org_id in modified:
        print(f"Organization Modified :- {org_id}")
    for uri in uris:
        print(uri)
    save_registry_file(registry, args.state)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    registry = _open_registry(args.state)
    try:
        response = registry.qm.execute_adhoc_query(args.sql)
    except RegistryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if response.rows:
        print(format_table(response.rows))
    print(f"{response.total_result_count} row(s)")
    return 0


def _flatten_snapshot(value: object, prefix: str = "") -> list[dict]:
    """Nested snapshot → rows of dotted-key/value pairs (table rendering)."""
    import json

    rows: list[dict] = []
    if isinstance(value, dict):
        for key in value:
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flatten_snapshot(value[key], child_prefix))
    elif isinstance(value, (list, tuple)):
        rows.append({"key": prefix, "value": json.dumps(value, default=str)})
    else:
        rows.append({"key": prefix, "value": value})
    return rows


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    registry = _open_registry(args.state)
    if args.format == "prometheus":
        # the exposition is already worker-labelled (request latency series);
        # --per-worker only reshapes the snapshot formats
        sys.stdout.write(registry.telemetry.render_prometheus())
        return 0
    snapshot = registry.telemetry_snapshot()
    if getattr(args, "writes", False):
        snapshot = {"writes": snapshot["writes"]}
    elif getattr(args, "per_worker", False):
        snapshot["pipeline"] = registry.pipeline_stats(per_worker=True)
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, default=str))
        return 0
    rows = _flatten_snapshot(snapshot)
    title = "write spine" if getattr(args, "writes", False) else "registry telemetry"
    if rows:
        print(format_table(rows, title=title))
    return 0


def _print_span_tree(span: dict, indent: int = 1) -> None:
    """Render one exported span tree (Span.to_dict) as an indented outline."""
    tags = span.get("tags") or {}
    scalar_tags = {
        key: value
        for key, value in sorted(tags.items())
        if not isinstance(value, (dict, list))
    }
    suffix = (
        " [" + " ".join(f"{k}={v}" for k, v in scalar_tags.items()) + "]"
        if scalar_tags
        else ""
    )
    duration_ms = (span.get("duration") or 0.0) * 1000.0
    print(f"{'  ' * indent}{span['name']}  {duration_ms:.3f} ms{suffix}")
    for child in span.get("children", ()):
        _print_span_tree(child, indent + 1)


def cmd_top(args: argparse.Namespace) -> int:
    registry = _open_registry(args.state)
    now = registry.clock.now()
    rows = [
        {
            "host": sample.host,
            "load": round(sample.load, 2),
            "memory_mb": sample.memory >> 20,
            "swap_mb": sample.swap_memory >> 20,
            "age_s": round(now - sample.updated, 1),
        }
        for sample in sorted(registry.node_state.all_samples(), key=lambda s: s.host)
    ]
    if rows:
        print(format_table(rows, title="node status"))
    else:
        print("no NodeState samples recorded")
    health = registry.telemetry.health()
    print(f"health: {health['status']}")
    for name, check in sorted((health.get("checks") or {}).items()):
        detail = {k: v for k, v in check.items() if k != "status"}
        suffix = f" {detail}" if detail else ""
        print(f"  {name}: {check['status']}{suffix}")
    flapping = registry.telemetry.history.flapping(600.0)
    if flapping:
        print(f"flapping hosts (10 min): {', '.join(flapping)}")
    exemplars = registry.telemetry.exemplar_index()
    if exemplars:
        exemplar_rows = [
            {
                "metric": entry["metric"],
                "labels": ",".join(
                    f"{k}={v}" for k, v in sorted(entry["labels"].items())
                ),
                "le": entry["le"],
                "value_ms": round(entry["value"] * 1000.0, 3),
                "trace_id": entry.get("trace_id", ""),
            }
            for entry in exemplars
        ]
        print(format_table(exemplar_rows, title="slow-bucket exemplars"))
        slowest = max(exemplars, key=lambda entry: entry["value"])
        trace_id = slowest.get("trace_id")
        trace = registry.telemetry.find_trace(trace_id) if trace_id else None
        if trace is not None:
            print(f"slowest exemplar trace ({trace_id}):")
            _print_span_tree(trace)
    if getattr(args, "per_worker", False):
        worker_rows = [
            {
                "worker": worker,
                "edge": edge,
                "operation": operation,
                "count": stats["count"],
                "faults": stats["faults"],
                "mean_ms": round(stats["mean_latency_s"] * 1000.0, 3),
            }
            for worker, edges in sorted(
                registry.pipeline_stats(per_worker=True).items()
            )
            for edge, operations in sorted(edges.items())
            for operation, stats in sorted(operations.items())
        ]
        if worker_rows:
            print(format_table(worker_rows, title="pipeline by worker"))
        else:
            print("no per-worker pipeline traffic recorded")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.mtc.experiment import ExperimentConfig, ExperimentHarness, HostFailure
    from repro.obs.slo import default_slos

    failures: tuple[HostFailure, ...] = ()
    if args.fail_host:
        failures = (
            HostFailure(
                host=args.fail_host,
                fail_at=args.fail_at,
                recover_at=args.recover_at,
            ),
        )
    windows = tuple(float(w) for w in args.windows.split(","))
    config = ExperimentConfig(
        duration=args.duration,
        monitor_period=args.period,
        failures=failures,
        slos=default_slos(windows=windows),
        history=True,
        log=True,
        trace=args.export_trace is not None,
    )
    harness = ExperimentHarness(config)
    result = harness.run()
    rows = [
        {
            "t": round(entry["t"] - config.start_of_day, 1),
            "slo": entry["slo"],
            "from": entry["from"],
            "to": entry["to"],
        }
        for entry in result.slo_timeline
    ]
    if rows:
        print(format_table(rows, title="SLO alert timeline"))
    else:
        print("no SLO alert transitions")
    print("final states: " + json.dumps(result.slo_states, sort_keys=True))
    marks = harness.registry.telemetry.history.high_water_marks()
    print(
        f"history: {marks['series']} series, "
        f"max {marks['max_points']}/{marks['capacity']} points"
    )
    if args.export_trace is not None:
        with open(args.export_trace, "w") as fh:
            fh.write(harness.registry.telemetry.tracer.export_chrome())
        print(f"chrome trace written to {args.export_trace}")
    if args.expect is not None:
        reached = any(
            entry["to"] == args.expect
            and (args.expect_slo is None or entry["slo"] == args.expect_slo)
            for entry in result.slo_timeline
        )
        if not reached:
            which = args.expect_slo or "any SLO"
            print(f"error: {which} never reached {args.expect!r}", file=sys.stderr)
            return 1
    return 0


def cmd_keystoremover(args: argparse.Namespace) -> int:
    """The thesis §3.4.3 KeystoreMover, option-for-option (Table 3.2)."""
    from repro.security.keystore import KeystoreMover

    source = load_keystore(args.sourceKeystorePath)
    if os.path.exists(args.destinationKeystorePath):
        destination = load_keystore(args.destinationKeystorePath)
    else:
        destination = Keystore()
    try:
        KeystoreMover.move(
            source=source,
            source_alias=args.sourceAlias,
            source_key_password=args.sourceKeyPassword,
            destination=destination,
            destination_alias=args.destinationAlias,
            destination_key_password=args.destinationKeyPassword,
        )
    except RegistryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # trusted certificates travel too (the registryOperator import step)
    for alias in ("registryOperator",):
        cert = source.trusted(alias)
        if cert is not None:
            destination.import_trusted(alias, cert)
    save_keystore(destination, args.destinationKeystorePath)
    print(
        f"moved alias {args.sourceAlias!r} into {args.destinationKeystorePath}"
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.mtc import ExperimentConfig, compare_policies

    policies = args.policies.split(",")
    config = ExperimentConfig(duration=args.duration, monitor_period=args.period)
    results = compare_policies(config, policies)
    print(format_table([results[p].metrics.row() for p in policies]))
    for policy in policies:
        print(f"  {policy:20s} dispatch: {results[policy].dispatch_counts}")
    return 0


def cmd_sweep_period(args: argparse.Namespace) -> int:
    from repro.mtc import ExperimentConfig, run_experiment

    rows = []
    for period in (float(p) for p in args.periods.split(",")):
        result = run_experiment(
            ExperimentConfig(duration=args.duration, monitor_period=period)
        )
        metrics = result.metrics
        rows.append(
            {
                "period_s": period,
                "load_std": round(metrics.uniformity.load_stddev, 3),
                "fairness": round(metrics.fairness, 3),
                "resp_mean_s": round(metrics.responses.mean, 2),
            }
        )
    print(format_table(rows, title="TimeHits period sweep"))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run a deterministic demo cluster and print its operator tables."""
    import json as _json
    import random

    from repro.registry.federation import RegistryFederation
    from repro.rim import Organization
    from repro.serving import ClusterConfig, ClusterSupervisor, ServingConfig
    from repro.soap.messages import GetRegistryObjectRequest
    from repro.util.clock import ManualClock

    federation = RegistryFederation("cli-cluster")
    registries = []
    for index in range(args.members):
        registry = RegistryServer(
            RegistryConfig(
                seed=40 + index,
                home=f"http://member{index}.cluster:8080/omar/registry",
            ),
            clock=ManualClock(start=9 * 3600.0),
        )
        federation.join(registry)
        registries.append(registry)

    cluster = ClusterSupervisor(
        federation,
        ClusterConfig(
            serving=ServingConfig(workers=args.workers),
            max_replication_lag=args.max_lag,
        ),
    )
    # place every object on its shard owner, so forwarding always lands
    object_ids: list[str] = []
    sessions = {}
    for registry in registries:
        _, cred = registry.register_user(f"publisher-{registry.home}")
        sessions[registry.home] = registry.login(cred)
    with cluster:
        for i in range(args.objects):
            object_id = registries[0].ids.new_id()
            owner_home = federation.shard_map.owner(object_id)
            owner = federation.member(owner_home)
            org = Organization(object_id, name=f"ClusterOrg{i:03d}")
            owner.lcm.submit_objects(sessions[owner_home], [org])
            object_ids.append(object_id)
        rng = random.Random(7)
        futures = [
            cluster.submit(body=GetRegistryObjectRequest(rng.choice(object_ids)))
            for _ in range(args.requests)
        ]
        for future in futures:
            future.result(timeout=60.0)
        cluster.drain()
        pre_pump_lag = cluster.replication_lag()
        pumps = cluster.pump_until_converged()
        stats = cluster.cluster_stats()

    if args.format == "json":
        print(_json.dumps(stats, indent=2, default=str))
        return 0

    member_rows = []
    for home, member in stats["members"].items():
        route = member["route"]
        member_rows.append(
            {
                "member": home,
                "objects": member["objects"],
                "records": member["changelog"]["records"],
                "accepted": member["serving"]["accepted"],
                "local": route.get("local", 0),
                "forwarded": route.get("forwarded", 0),
                "served_for_peers": route.get("forwarded_served", 0),
            }
        )
    print(format_table(member_rows, title="cluster members"))

    link_rows = [
        {
            "link": f"{link['source']} -> {link['target']}",
            "watermark": link["watermark"],
            "lag": link["lag"],
            "applied": link["applied"],
            "barriers": link["skipped_barriers"],
        }
        for link in stats["replication"]
    ]
    if link_rows:
        print(format_table(link_rows, title="replication links"))
    slo_states = cluster.telemetry.slos.states()
    print(
        f"replication lag: {pre_pump_lag} record(s) before pumping, "
        f"{stats['replication_lag']} after {pumps} pump(s) "
        f"(bound {args.max_lag:g}); "
        f"replication-lag SLO: {slo_states.get('replication-lag', 'ok')}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ebXML registry load-balancing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create an empty registry state file")
    p.add_argument("state")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("register", help="register a user and write the keystore")
    p.add_argument("state")
    p.add_argument("alias")
    p.add_argument("password")
    p.add_argument("--keystore")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("execute", help="run an action.xml against the registry")
    p.add_argument("state")
    p.add_argument("connection")
    p.add_argument("action")
    p.add_argument("--keystore")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("query", help="run an ad hoc SQL query")
    p.add_argument("state")
    p.add_argument("sql")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats", help="print the registry telemetry snapshot")
    p.add_argument("state")
    p.add_argument(
        "--per-worker",
        action="store_true",
        help="break the pipeline source down by serving worker "
        "(default: fleet-aggregated)",
    )
    p.add_argument(
        "--format", choices=("table", "json", "prometheus"), default="table"
    )
    p.add_argument(
        "--writes",
        action="store_true",
        help="show only the write-spine view (changelog length, last applied "
        "sequence, coalesce ratio, idempotent duplicates)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("top", help="print the per-host NodeState/health table")
    p.add_argument("state")
    p.add_argument(
        "--per-worker",
        action="store_true",
        help="append a per-worker pipeline table (default: fleet-aggregated)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("slo", help="run an SLO-instrumented experiment")
    p.add_argument("--duration", type=float, default=1800.0)
    p.add_argument("--period", type=float, default=25.0)
    p.add_argument("--windows", default="120,600")
    p.add_argument("--fail-host")
    p.add_argument("--fail-at", type=float, default=300.0)
    p.add_argument("--recover-at", type=float)
    p.add_argument("--export-trace", metavar="PATH")
    p.add_argument("--expect", choices=("warning", "page"))
    p.add_argument("--expect-slo")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser(
        "keystoremover", help="copy a credential between keystores (thesis §3.4.3)"
    )
    p.add_argument("--sourceKeystorePath", required=True)
    p.add_argument("--sourceAlias", required=True)
    p.add_argument("--sourceKeyPassword", required=True)
    p.add_argument("--destinationKeystorePath", required=True)
    p.add_argument("--destinationAlias")
    p.add_argument("--destinationKeyPassword")
    p.set_defaults(func=cmd_keystoremover)

    p = sub.add_parser("experiment", help="run the policy-comparison experiment")
    p.add_argument("--duration", type=float, default=900.0)
    p.add_argument("--period", type=float, default=25.0)
    p.add_argument(
        "--policies", default="first-uri,random,round-robin,constraint-lb"
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep-period", help="run the monitoring-period ablation")
    p.add_argument("--duration", type=float, default=900.0)
    p.add_argument("--periods", default="5,10,25,60,120")
    p.set_defaults(func=cmd_sweep_period)

    p = sub.add_parser(
        "cluster",
        help="run a demo federated cluster and print members/watermarks/lag",
    )
    p.add_argument("--members", type=int, default=3)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--objects", type=int, default=24)
    p.add_argument("--requests", type=int, default=48)
    p.add_argument(
        "--max-lag",
        type=float,
        default=64.0,
        help="replication-lag SLO bound, in changelog records",
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
