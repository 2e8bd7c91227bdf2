"""Closed-loop sweep benchmark of the lattice-dirac CLI experiments.

    python3 perfbench/run.py --workload potential-neumann --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                 # every workload, summary table
    python3 perfbench/run.py --workload all --smoke         # reduced sizes: checks the harness

One caller drives the CLI in-process: each sweep (one pass over the
workload's commands, see ``workloads.py``) starts after the previous one
returns.  Sweeps repeat while the next one, as long as the last, would end
within ``--seconds``; a run makes at least one sweep.
Every sweep is checked against the recorded reference error columns.

``--trace 0`` reports the end-to-end metrics of untraced sweeps:
``sweep_s`` and ``cpu_s`` (medians per sweep), ``setup_s`` (median of
several fresh interpreters from spawn to a validated ``RunConfig``) and
``peak_rss_mb`` (this process's high-water mark; the process runs one
workload only).  ``--trace 1`` alternates untraced and traced sweeps and
reports the per-layer medians of the traced ones plus the tracing overhead;
the spans go to ``.perfbench_work/``.  ``--workload all`` runs each workload
untraced and traced in fresh interpreters and checks the attribution.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import benchenv  # first: pins the thread pools before numpy loads
import check
import spans
import workloads

SETUP_PROBES = 5

UNITS = {"sweep_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return {"points": "points", "bytes_computed": "B", "flops_computed": "flop",
            "cells": "cells"}.get(name.rsplit(".", 1)[-1], "count")


def measure_setup(argv: list[str]) -> list[float]:
    """Spawn-to-validated-config times of fresh interpreters; one unrecorded warm-up."""
    probe = os.path.join(benchenv.HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_PROBES + 1):
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, probe, *argv], capture_output=True, text=True,
                              cwd=benchenv.ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]) - spawned)
    return times


def high_percentile(values: list[float]):
    """The highest of p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for q in (90, 99):
        if len(values) * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(values, n=100)[q - 1])
    return best


def run_sweep(cli, commands, refs, index, tracer=None) -> dict:
    """One timed pass over ``commands``; checked against ``refs`` after the clock stops."""
    outs = [os.path.join(benchenv.WORK, f"out-{os.getpid()}-{k}.csv") for k in range(len(commands))]
    results = []
    if tracer is not None:
        tracer.begin_sweep(index)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for argv, out in zip(commands, outs):
            results.append(check.run_cli(cli, argv, out))
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.end_sweep()
    ok, worst, reasons = True, 0.0, []
    for argv, out, (code, summary) in zip(commands, outs, results):
        good, dev, why = check.compare(argv, code, summary, check.read_rows(out), refs)
        ok = ok and good
        worst = max(worst, dev or 0.0)
        if not good:
            reasons.append(f"{workloads.key(argv)}: {why}")
    return {"wall": wall, "cpu": cpu, "ok": ok, "deviation": worst, "reasons": reasons,
            "traced": tracer is not None}


def run_workload(args) -> int:
    commands = workloads.commands(args.workload, args.seed, args.smoke)
    setup = [] if args.trace else measure_setup(commands[0])
    cli = benchenv.import_program()
    refs = check.load_refs()
    os.makedirs(benchenv.WORK, exist_ok=True)
    print(f"# machine {json.dumps(benchenv.machine())}")
    print(f"# workload {args.workload} seed {args.seed} smoke {args.smoke} trace {args.trace}; "
          f"closed loop, 1 caller; commands: {' ; '.join(map(workloads.key, commands))}")

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    sweeps = []
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(sweeps) % 2 == 1
            sweeps.append(run_sweep(cli, commands, refs, len(sweeps), tracer if traced else None))
            s = sweeps[-1]
            print(f"# sweep {len(sweeps) - 1}: {s['wall']:.4f} s wall, {s['cpu']:.4f} s cpu, "
                  f"{'traced' if s['traced'] else 'untraced'}, "
                  f"{'ok' if s['ok'] else 'FAILED ' + '; '.join(s['reasons'])}, "
                  f"max relative deviation {s['deviation']:.3g}", flush=True)
            # stop before a sweep that would end past --seconds, so a run lasts
            # about --seconds (or one sweep, when a sweep is longer)
            done = time.perf_counter() - start + s["wall"] > args.seconds
            if done and (tracer is None or len(sweeps) >= 2):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = sum(not s["ok"] for s in sweeps)
    plain = [s for s in sweeps if not s["traced"]]
    walls = [s["wall"] for s in plain]
    if tracer is None:
        metrics = {
            "sweep_s": statistics.median(walls),
            "cpu_s": statistics.median(s["cpu"] for s in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
        top = high_percentile(walls)
        extra = f"; p{top[0]} {top[1]:.4f} s" if top else "; no percentile has 10 samples beyond it"
        print(f"# sweep_s samples {len(walls)}{extra}; setup_s samples {len(setup)}")
    else:
        traced = [s for s in sweeps if s["traced"]]
        per_sweep = [spans.sweep_metrics(tracer.spans, i) for i, s in enumerate(sweeps) if s["traced"]]
        metrics = {}
        for name in per_sweep[0]:
            values = [m[name] for m in per_sweep]
            # counts take the lower middle value, so they stay whole numbers
            timed = name.endswith(("_s", "_frac"))
            metrics[name] = statistics.median(values) if timed else statistics.median_low(values)
        metrics["trace.overhead_s"] = (statistics.median(s["wall"] for s in traced)
                                       - statistics.median(walls))
        units = {name: layer_unit(name) for name in metrics}
        path = os.path.join(benchenv.WORK, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": benchenv.machine(),
                       "spans": tracer.records()}, fh)
        print(f"# {len(per_sweep)} traced sweeps; spans written to {os.path.relpath(path, benchenv.ROOT)}")
    for name, value in metrics.items():
        print(f"{name:<38} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':<38} {failed / len(sweeps):>16.6g} ratio ({failed}/{len(sweeps)} sweeps)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(sweeps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, each in a fresh interpreter; print a table."""
    ok = True
    rows = []
    for name in workloads.NAMES:
        for tr in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(tr)]
            proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), capture_output=True,
                                  text=True, cwd=benchenv.ROOT, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            for metric, entry in result["metrics"].items():
                rows.append((name, metric, entry["value"], entry["unit"]))
            if tr == 0:
                rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
            else:
                share = result["metrics"]["lab.attributed_frac"]["value"]
                if share < 0.9:
                    print(f"# {name}: named spans cover only {share:.1%} of sweep_s", file=sys.stderr)
                    ok = False
                ref = result["metrics"]["lab.reference.busy_s"]["value"]
                whole = result["metrics"]["lab.sweep_s"]["value"]
                if name == "potential-neumann" and not args.smoke and ref < 0.9 * whole:
                    print(f"# {name}: reference is only {ref / whole:.1%} of sweep_s", file=sys.stderr)
                    ok = False
    for name, metric, value, unit in rows:
        print(f"{name:<18} {metric:<38} {value:>16.6g} {unit}")
    print(f"# {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced meshes, for checking the harness")
    args = parser.parse_args()
    if not benchenv.program_present():
        print(f"error: no lattice-dirac sources under {benchenv.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
