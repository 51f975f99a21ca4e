"""The wire-path benchmark's one entry point.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
runs one workload in this process and prints, as its last line, the result
object the driver reads: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.

Without ``--workload`` it runs the whole suite, one fresh subprocess per
workload and trace mode, prints every metric of every workload, and writes
``benchmarks/e2e/out/suite.json``.  ``--aa`` runs the suite's untraced half
twice, interleaved, and compares the two against the bounds; ``--smoke`` is
the same code path at a fraction of the length, correctness checks on,
timings printed but not bounded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

import shape  # noqa: E402


def fingerprint(seed: int) -> dict:
    """Where and on what this result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=shape.REPO, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu_model = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model,
        "loadavg_at_start": load,
        "noisy": load > nproc,
        "switch_interval_s": sys.getswitchinterval(),
        "git_commit": commit,
        "seed": seed,
    }


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, (int, float)):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_format(v)}" for k, v in value.items()) + "}"
    return str(value)


# -- one workload, in this process ---------------------------------------------


def pin_to_one_core() -> None:
    """Keep every thread of this process on one core (the last it may use).

    One request is in flight per client and the GIL runs one thread at a
    time, so a second core adds nothing but cross-core wake-ups — which a
    busy host delays by hundreds of µs when the other virtual CPU sleeps.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_one(args) -> int:
    from workloads import make_inputs

    if not args.smoke:
        # the smoke suite runs two children at a time, one per core
        pin_to_one_core()
    env = fingerprint(args.seed)
    contract = shape.load_contract()
    group = contract["per_layer" if args.trace else "end_to_end"]
    inputs = make_inputs(args.workload, args.seed)
    if args.trace:
        import ladder

        result = ladder.measure(
            inputs,
            args.seconds,
            traced_requests=(
                shape.SMOKE_TRACED_REQUESTS if args.smoke else shape.TRACED_REQUESTS
            ),
        )
    else:
        import endtoend

        result = endtoend.measure(
            inputs, args.seconds, setup_repeats=1 if args.smoke else shape.SETUP_REPEATS
        )
    measured = result["metrics"]
    if set(measured) != set(group):
        raise SystemExit(
            f"metrics measured and BENCHMARK.json disagree: "
            f"{sorted(set(measured) ^ set(group))}"
        )
    missing = [name for name, value in measured.items() if value is None]
    if missing and not args.smoke:
        raise SystemExit(f"too few samples to report: {missing}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name in group:
        n = result["samples"].get(name)
        count = "" if n is None else f"  n={n}"
        print(f"{name:38s} {_format(measured[name]):>12s} {group[name]['unit']}{count}")
    for name, value in result["info"].items():
        print(f"  ({name} {_format(value)})")
    for message in result["messages"]:
        print(f"  FAIL {message}")

    shape.OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, **result}
    spans = record.pop("spans", None)
    if spans is not None:
        with open(shape.OUT / f"trace-{args.workload}.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    (shape.OUT / f"run-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": measured[name], "unit": group[name]["unit"]}
                    for name in group
                },
            }
        )
    )
    return 0


# -- the suite: one subprocess per workload and trace mode ----------------------


def _child(workload: str, trace: int, args) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}")
    lines = done.stdout.rstrip().splitlines()
    return {"text": "\n".join(lines[:-1]), "result": json.loads(lines[-1])}


def run_suite(args) -> int:
    contract = shape.load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    jobs = [(w, trace) for w in workloads for trace in (0, 1)]
    # smoke timings are not bounded, so its children run two at a time, unpinned
    with concurrent.futures.ThreadPoolExecutor(2 if args.smoke else 1) as pool:
        outcomes = list(pool.map(lambda job: _child(*job, args), jobs))
    failed = 0
    for outcome in outcomes:
        print(outcome["text"])
        failed += outcome["result"]["failed"]
    summary = {
        "environment": fingerprint(args.seed),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "results": {
            f"{w}/trace{t}": o["result"] for (w, t), o in zip(jobs, outcomes)
        },
        "claim": None,
    }
    shape.OUT.mkdir(exist_ok=True)
    (shape.OUT / "suite.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"failed": failed, "claim": None}))
    return 1 if failed else 0


def run_aa(args) -> int:
    """Two interleaved sets of untraced runs of the same code, against the bounds."""
    contract = shape.load_contract()
    bounds = contract["end_to_end"]
    sides: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in contract["workloads"]):
        sides[workload] = [_child(workload, 0, args)["result"] for _side in "AB"]
    breaches = 0
    report = {}
    for workload, (a, b) in sides.items():
        print(f"# {workload}: A vs B (same code)")
        for name, metric in bounds.items():
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
            breach = abs(worse) > metric["bound"]
            breaches += breach
            report[f"{workload}/{name}"] = {"a": va, "b": vb, "relative": worse,
                                            "bound": metric["bound"], "breach": breach}
            print(
                f"{name:18s} A {va:12.6g}  B {vb:12.6g}  "
                f"diff {worse:+7.2%}  bound {metric['bound']:.0%}"
                f"{'  BREACH' if breach else ''}"
            )
        breaches += a["failed"] + b["failed"]
    shape.OUT.mkdir(exist_ok=True)
    (shape.OUT / "aa.json").write_text(
        json.dumps(
            {"environment": fingerprint(args.seed), "seconds": args.seconds,
             "metrics": report, "runs": sides, "claim": None},
            indent=1,
        )
    )
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="A/A: two sets, one code")
    parser.add_argument("--smoke", action="store_true", help="short, unbounded")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (
            shape.SMOKE_SECONDS if args.smoke else shape.load_contract()["run_seconds"]
        )
    started = time.perf_counter()
    if args.workload:
        return run_one(args)
    code = run_aa(args) if args.aa else run_suite(args)
    print(f"# suite wall time {time.perf_counter() - started:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
