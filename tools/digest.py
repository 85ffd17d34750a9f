"""Same-seed run digests of parlmc, and a bitwise comparison of two digests.

    python tools/digest.py OUT.npz [--src DIR]
    python tools/digest.py --compare A.npz B.npz

The first form runs ``parlmc.run`` over a fixed matrix -- the five kinds,
three targets (a 10-d diagonal quadratic, a 10-d dense quadratic from a fixed
seed, a 40x3 logistic), C in {1, 8} chains, (R, Q) in {(1,1), (1,2), (4,3),
(24,1), (37,5)} and width None or 3 -- with one seed, 300 runs, and stores
each run's final theta, v and ``to_csv()`` text under the run's name.  ``--src`` imports parlmc from another source tree, for example an
older checkout, so two versions can be digested by the same script.

The second form prints, per run, whether the two files agree bitwise and the
largest relative difference of theta and v (max |a - b| / max |a|), then a
count of the runs that differ; it exits 1 if any run differs, else 0.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

KINDS = ("lmc", "rlmc", "prlmc", "rklmc", "prklmc")
TARGETS = ("quadratic", "dense", "logistic")
CHAINS = (1, 8)
RQ = ((1, 1), (1, 2), (4, 3), (24, 1), (37, 5))
WIDTHS = (None, 3)
SEED, STEPS, H, GAMMA = 11, 10, 0.01, 5.0


def _targets(parlmc):
    rng = np.random.default_rng(314)
    X = rng.standard_normal((40, 3))
    y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    B = np.random.default_rng(271).standard_normal((10, 10))  # non-diagonal SPD: covers the dense BLAS products
    return {
        "quadratic": lambda: parlmc.QuadraticPotential(np.diag(np.linspace(1.0, 10.0, 10))),
        "dense": lambda: parlmc.QuadraticPotential(B @ B.T / 10 + np.eye(10)),
        "logistic": lambda: parlmc.LogisticRidgePotential(X, y, ridge=0.7),
    }


def digest(out: Path, src: Path) -> None:
    sys.path.insert(0, str(src))
    import parlmc

    targets = _targets(parlmc)
    arrays = {}
    for kind in KINDS:
        for target in TARGETS:
            for chains in CHAINS:
                for R, Q in RQ:
                    for width in WIDTHS:
                        name = f"{kind}-{target}-C{chains}-R{R}Q{Q}-w{width or 'R'}"
                        cfg = parlmc.SamplerConfig(h=H, n=STEPS, R=R, Q=Q, seed=SEED, parallel_width=width,
                                                   gamma=GAMMA if kind.endswith("klmc") else None)
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            trace = parlmc.run(kind, cfg, targets[target](), n_chains=chains, record_every=2)
                        arrays[f"{name}/theta"] = trace.final_state.theta
                        if trace.final_state.v is not None:
                            arrays[f"{name}/v"] = trace.final_state.v
                        arrays[f"{name}/csv"] = np.array(trace.to_csv())
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays from {parlmc.__file__} -> {out}")


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - b))) / scale if scale else float(np.max(np.abs(a - b)))


def compare(a_path: Path, b_path: Path) -> int:
    a, b = np.load(a_path), np.load(b_path)
    runs = sorted({key.rsplit("/", 1)[0] for key in (*a.files, *b.files)})
    differ = 0
    for run in runs:
        keys = sorted({k for k in (*a.files, *b.files) if k.rsplit("/", 1)[0] == run})
        missing = [k for k in keys if k not in a.files or k not in b.files]
        if missing:
            print(f"{run}  missing {', '.join(missing)}")
            differ += 1
            continue
        equal = all(np.array_equal(a[k], b[k]) for k in keys)
        rel = max(_max_rel(a[k], b[k]) for k in keys if not k.endswith("/csv"))
        differ += not equal
        print(f"{run}  bitwise={equal}  max_rel={rel:.3e}")
    print(f"{differ} of {len(runs)} runs differ")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, help="digest file to write")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree to import parlmc from (default: this checkout's src)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.out:
        digest(args.out, args.src)
    else:
        parser.error("give OUT.npz or --compare A B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
