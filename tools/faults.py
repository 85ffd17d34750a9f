"""Wall time, minor page faults and system time per outer iteration of one sampler shape.

    python tools/faults.py KIND --R 37 --Q 5 --chains 1000 [--p 10] [--steps 40]
        [--block 2] [--warmup 2] [--workers 1] [--cpu 0] [--src DIR]
        [--target quadratic|logistic]

Runs ``parlmc.run`` with step h = 0.05 / M on a p-dimensional target: by
default a quadratic (diagonal from 1 to 10); with ``--target logistic`` a
ridge-logistic potential (ridge 1, kappa 4) on a 2000 x p Gaussian design
with labels drawn from a logistic model, generated from a fixed seed.  It
runs in blocks of ``--block`` outer iterations, each block continuing the chains
where the previous one left them, as a user who resumes chains does.  After
``--warmup`` steps it runs ``--steps`` more and reads ``getrusage`` of the
whole process around them; it prints the median wall ms per step over the
blocks, their window floor (the median over 10 consecutive groups of blocks
of each group's fastest block: the statistic perfbench reports for
``single-chain``), and the minor faults and system ms per step, then the
same as one JSON line.

The process pins itself to one CPU (``--cpu``) and sets ``PARLMC_WORKERS``
and ``OPENBLAS_NUM_THREADS`` in its own environment before numpy loads, so
the shell's environment and other processes are left as they are.
``--src`` imports parlmc from another source tree, for example a checkout
of an older commit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from time import perf_counter

WINDOWS = 10


def window_floor(values, windows=WINDOWS):
    """Median over `windows` consecutive groups of `values` of each group's minimum (the plain median if too few)."""
    size = len(values) / windows
    if size < 1:
        return statistics.median(values)
    return statistics.median(min(values[round(k * size):round((k + 1) * size)]) for k in range(windows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=("lmc", "rlmc", "prlmc", "rklmc", "prklmc"))
    parser.add_argument("--R", type=int, required=True)
    parser.add_argument("--Q", type=int, required=True)
    parser.add_argument("--chains", type=int, required=True)
    parser.add_argument("--p", type=int, default=10)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--block", type=int, default=2)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cpu", type=int, default=0)
    parser.add_argument("--target", choices=("quadratic", "logistic"), default="quadratic")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)

    os.environ["PARLMC_WORKERS"] = str(args.workers)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, str(args.src))
    import numpy as np

    import parlmc

    if args.target == "logistic":
        rng = np.random.default_rng(2402)
        X = rng.standard_normal((2000, args.p))
        X *= np.sqrt(12.0) / np.linalg.norm(X, 2)  # M = 1 + |X|_op^2 / 4 = 4
        logits = X @ rng.standard_normal(args.p)
        logits /= logits.std()
        y = np.where(rng.random(2000) < 0.5 * (1.0 + np.tanh(0.5 * logits)), 1.0, -1.0)
        potential = parlmc.LogisticRidgePotential(X, y, ridge=1.0)
    else:
        potential = parlmc.QuadraticPotential.from_diagonal(np.linspace(1.0, 10.0, args.p))
    M = potential.spec.smoothness
    config = parlmc.SamplerConfig(h=0.05 / M, n=args.block, R=args.R, Q=args.Q, gamma=2.0 * np.sqrt(M), seed=1)
    state = None

    def block(seed):
        nonlocal state
        cfg = config if state is None else replace(config, seed=seed, theta0=state.theta, v0=state.v)
        start = perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = parlmc.run(args.kind, cfg, potential, n_chains=args.chains).final_state
        return perf_counter() - start

    blocks_warm = -(-args.warmup // args.block)
    blocks = max(1, args.steps // args.block)
    for b in range(blocks_warm):
        block(100 + b)
    before = resource.getrusage(resource.RUSAGE_SELF)
    walls = [block(1000 + b) for b in range(blocks)]
    after = resource.getrusage(resource.RUSAGE_SELF)
    steps = blocks * args.block
    out = {
        "kind": args.kind, "target": args.target, "R": args.R, "Q": args.Q, "chains": args.chains, "p": args.p,
        "workers": args.workers, "steps": steps, "block": args.block,
        "wall_ms": 1e3 * statistics.median(walls) / args.block,
        "floor_ms": 1e3 * window_floor(walls) / args.block,
        "faults": (after.ru_minflt - before.ru_minflt) / steps,
        "sys_ms": 1e3 * (after.ru_stime - before.ru_stime) / steps,
    }
    print(f"{args.kind} {args.target} R={args.R} Q={args.Q} C={args.chains} p={args.p} block={args.block}: "
          f"wall {out['wall_ms']:.4f} ms/step (window floor {out['floor_ms']:.4f}), "
          f"faults {out['faults']:.0f}/step, sys {out['sys_ms']:.2f} ms/step")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
