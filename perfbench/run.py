"""Benchmark of parlmc: one workload per process, timed from outside parlmc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times blocks of outer iterations for S seconds and prints the
end-to-end metrics; ``--trace 1`` runs the same blocks untraced and then
traced and prints the per-layer metrics.  Both check parlmc's output, and
the last line of standard output is one JSON object.  ``--workload all``
runs every workload, each in its own process.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import bootstrap

HERE = Path(__file__).resolve().parent
NAMES = ("single-chain", "kinetic-tuned", "vanilla-tuned", "logistic-parallel")
SETUP_PROBES = 7
FLOOR_WINDOWS = 10
SPLIT_TOLERANCE = 0.05
RUN_DIR = bootstrap.ROOT / ".perfbench_run"


def read_cpu_ticks():
    """(steal, total) jiffies of the whole host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def tail_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it, or None."""
    n = len(values)
    if n < 40:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def window_floor(values, windows=FLOOR_WINDOWS):
    """Median over `windows` consecutive groups of blocks of each group's fastest block."""
    size = len(values) / windows
    if size < 1:
        return statistics.median(values)
    return statistics.median(min(values[round(k * size):round((k + 1) * size)]) for k in range(windows))


def metric(value, unit):
    return {"value": value, "unit": unit}


def probe_setup(name: str, npz: Path) -> dict:
    """Median of SETUP_PROBES fresh-interpreter set-ups, per stage and in total."""
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--inputs", str(npz)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        stages = json.loads(done.stdout.strip().splitlines()[-1])
        stages["total_s"] = sum(stages.values())
        runs.append(stages)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    bootstrap.configure()
    bootstrap.pin_to_one_cpu()
    try:
        import parlmc
    except ImportError as exc:
        print(f"cannot import parlmc from {bootstrap.SRC}: {exc}", file=sys.stderr)
        return 2
    bootstrap.require_checkout_build(parlmc)
    import numpy as np

    import workloads

    ticks0 = read_cpu_ticks()
    w = workloads.WORKLOADS[args.workload]
    workdir = RUN_DIR / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.make_inputs(w, args.seed, workdir)
        npz = workdir / "inputs.npz"
        np.savez(npz, **{k: v for k, v in inputs.items() if k not in ("X", "y")})
        setup = probe_setup(w.name, npz)
        session, _ = workloads.setup(w, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass
    cfg = session.config
    print(f"workload {w.name}: {w.kind}, {w.chains} chains, R={cfg.R} Q={cfg.Q} h={cfg.h:g}"
          f"{'' if cfg.gamma is None else f' gamma={cfg.gamma:g}'}, {cfg.n} steps per block, "
          f"{bootstrap.WORKERS} pool workers on {len(os.sched_getaffinity(0))} CPU(s), 1 BLAS thread")
    # One untimed block creates the round pool and fills caches.
    warm = workloads.run_blocks(session, args.seed, session.initial, 0, count=1)
    verdicts = list(warm.verdicts)

    if args.trace == 0:
        timed = workloads.run_blocks(session, args.seed, warm.state, 1, until=perf_counter() + args.seconds)
        verdicts += timed.verdicts
        verdicts += workloads.final_checks(session, inputs, timed.state, warm.snapshots + timed.snapshots,
                                           warm.steps + timed.steps, args.seed)
        step_ms = [1e3 * t / cfg.n for t in timed.wall]
        cpu_ms = [1e3 * t / cfg.n for t in timed.cpu]
        timing = window_floor if w.timing == "floor" else statistics.median
        metrics = {
            "step_ms": metric(timing(step_ms), "ms"),
            "cpu_ms_per_step": metric(timing(cpu_ms), "ms"),
            "setup_s": metric(setup["total_s"], "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"step_ms over {len(step_ms)} blocks: median {statistics.median(step_ms):.4f}, "
              f"window floor {window_floor(step_ms):.4f}; {w.timing} is reported")
        tail = tail_percentile(step_ms)
        if tail is not None:
            print(f"step p{tail[0]}: {tail[1]:.4f} ms over {len(step_ms)} blocks (not bounded)")
        attempted = len(timed.wall)
    else:
        from tracer import GRADIENT, ROOT, ROUND, Tracer, layer_totals

        plain = workloads.run_blocks(session, args.seed, warm.state, 1, until=perf_counter() + args.seconds / 2)
        verdicts += plain.verdicts
        verdicts += workloads.final_checks(session, inputs, plain.state, warm.snapshots + plain.snapshots,
                                           warm.steps + plain.steps, args.seed)
        with Tracer() as tracer:
            traced = workloads.run_blocks(session, args.seed, warm.state, 1, count=len(plain.wall),
                                          wrap=lambda fn: tracer.wrap(fn, "metrics.record"))
        threads = threading.active_count()
        verdicts += traced.verdicts
        same = np.array_equal(plain.state.theta, traced.state.theta) and (
            plain.state.v is None or np.array_equal(plain.state.v, traced.state.v))
        verdicts.append((same, f"traced final state {'equals' if same else 'differs from'} untraced, bitwise"))

        totals = layer_totals(tracer.spans, threading.main_thread().ident)
        steps = traced.steps

        def ms(layer, key="self"):
            return 1e3 * totals.get(layer, {}).get(key, 0.0) / steps

        def count(layer):
            return totals.get(layer, {}).get("count", 0) / steps

        main_layers = ("noise.stream", "noise.midpoints", "noise.draw", "noise.coeff", "parallel.combine",
                       "metrics.record", ROOT)
        split = sum(ms(layer) for layer in main_layers) + ms(ROUND, "busy")
        wall = 1e3 * sum(traced.wall) / steps
        negative = [layer for layer, t in totals.items() if t["self"] < -1e-9]
        verdicts.append((not negative and abs(split - wall) <= SPLIT_TOLERANCE * wall,
                         f"self-time split {split:.4f} ms vs traced step wall {wall:.4f} ms"
                         f"{f'; negative self time in {negative}' if negative else ''}"))
        round_busy = totals.get(ROUND, {}).get("busy", 0.0)
        records = totals.get("metrics.record", {}).get("count", 0)
        metrics = {
            "noise.stream_ms": metric(ms("noise.stream"), "ms"),
            "noise.stream_calls": metric(count("noise.stream"), "count"),
            "noise.midpoints_ms": metric(ms("noise.midpoints"), "ms"),
            "noise.draw_ms": metric(ms("noise.draw"), "ms"),
            "noise.draw_peak_mb": metric(tracer.draw_peak_bytes / 2**20, "MB"),
            "noise.coeff_ms": metric(ms("noise.coeff"), "ms"),
            "parallel.round_ms": metric(ms(ROUND, "busy"), "ms"),
            "parallel.round_self_ms": metric(ms(ROUND), "ms"),
            "parallel.rounds": metric(count(ROUND), "count"),
            "parallel.threads": metric(threads, "count"),
            "parallel.overlap": metric(totals.get(GRADIENT, {}).get("busy", 0.0) / round_busy if round_busy else 0.0,
                                       "ratio"),
            "parallel.combine_ms": metric(ms("parallel.combine"), "ms"),
            "potentials.gradient_ms": metric(ms(GRADIENT, "busy"), "ms"),
            "potentials.gradient_calls": metric(count(GRADIENT), "count"),
            "samplers.self_ms": metric(ms(ROOT), "ms"),
            "metrics.record_ms": metric(
                1e3 * totals.get("metrics.record", {}).get("self", 0.0) / records if records else 0.0, "ms"),
            "setup.import_s": metric(setup["import_s"], "s"),
            "setup.potential_s": metric(setup["potential_s"], "s"),
            "setup.tune_s": metric(setup["tune_s"], "s"),
            "trace.overhead_ms": metric(statistics.median(1e3 * t / cfg.n for t in traced.wall)
                                        - statistics.median(1e3 * t / cfg.n for t in plain.wall), "ms"),
        }
        attempted = len(plain.wall) + len(traced.wall)

    ticks1 = read_cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        print(f"host steal during the run: {100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]):.2f}% "
              f"of all CPU time (diagnostic)")
    for ok, detail in verdicts:
        print(f"check {'ok  ' if ok else 'FAIL'} {detail}")
    print(json.dumps({"correct": all(ok for ok, _ in verdicts), "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
