"""Same-seed run digests of parlmc, and a bitwise comparison of two digests.

    python tools/digest.py OUT.npz [--src DIR]
    python tools/digest.py --compare A.npz B.npz

The first form runs ``parlmc.run`` over a fixed matrix -- the five kinds,
three targets (a 10-d diagonal quadratic, a 10-d dense quadratic from a fixed
seed, a 40x3 logistic), C in {1, 8} chains, (R, Q) in {(1,1), (1,2), (4,3),
(24,1), (37,5)} and width None or 3 -- with one seed, 300 runs, and stores
each run's final theta, v and ``to_csv()`` text under the run's name.  It
also stores a rules block, the numbers the stability rules produce over a
fixed grid: the JSON of ``tune(...).to_dict()`` (both regimes, several eps and
kappa, w2_init None/0/3, R None/4), of each ``check_preconditions`` result
(both regimes, gamma below and above 5 M) and of each theorem bound's
(total, precondition_ok, terms).  ``--src`` imports parlmc from another source
tree, for example an older checkout, so two versions can be digested by the
same script.

The second form prints, per run and per rule, whether the two files agree
bitwise and, for a run, the largest relative difference of theta and v
(max |a - b| / max |a|), then a count of the rules that differ and, last, of
the runs that differ with a count per kind, for example
``108 of 300 runs differ (rklmc 60, prklmc 48)``, so a change declared to
touch one regime can be checked at a glance; it exits 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

KINDS = ("lmc", "rlmc", "prlmc", "rklmc", "prklmc")
TARGETS = ("quadratic", "dense", "logistic")
CHAINS = (1, 8)
RQ = ((1, 1), (1, 2), (4, 3), (24, 1), (37, 5))
WIDTHS = (None, 3)
SEED, STEPS, H, GAMMA = 11, 10, 0.01, 5.0
RULE_PREFIX = "rule-"


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


def _rules(parlmc) -> dict:
    """Rule name -> JSON text of a tune plan, a check report or a bound, over a fixed grid."""
    texts = {}
    for regime, eps, kappa, w2, R in itertools.product(("vanilla", "kinetic"), (0.05, 0.3, 0.9), (1.0, 10.0, 1e4),
                                                       (None, 0.0, 3.0), (None, 4)):
        plan = parlmc.tune(parlmc.TuneRequest(epsilon=eps, m=0.5, M=0.5 * kappa, p=10, regime=regime, w2_init=w2, R=R))
        texts[f"tune-{regime}-e{eps}-k{kappa}-w{w2}-R{R}"] = plan.to_dict()
    curvatures, gamma_factors = ((1.0, 1.0), (1.0, 10.0), (0.1, 100.0)), (None, 2.0, 5.0, 8.0)  # gamma / M
    for (m, M), h, R, Q, gamma_factor in itertools.product(curvatures, (1e-3, 0.01, 0.1), (1, 4, 37), (1, 3, 5),
                                                           gamma_factors):
        regime, gamma = ("vanilla", None) if gamma_factor is None else ("kinetic", gamma_factor * M)
        name = f"m{m}-M{M}-h{h}-R{R}-Q{Q}-g{gamma}"
        config = SimpleNamespace(h=h, R=R, Q=Q, gamma=gamma)
        spec = SimpleNamespace(strong_convexity=m, smoothness=M)
        texts[f"check-{regime}-{name}"] = [c.to_dict() for c in parlmc.check_preconditions(config, spec, regime)]
        shared = dict(h=h, Q=Q, R=R, m=m, M=M, p=10, w2_init=3.0, n=50)
        bound = (parlmc.theorem1_bound(**shared) if gamma is None else
                 parlmc.theorem2_bound(**shared, gamma=gamma, f_gap=2.0))
        texts[f"bound-{regime}-{name}"] = [bound.total, bool(bound.precondition_ok), bound.terms]
    return {RULE_PREFIX + name: json.dumps(value, sort_keys=True) for name, value in texts.items()}


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
    for name, text in _rules(parlmc).items():
        arrays[f"{name}/json"] = np.array(text)
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays from {parlmc.__file__} -> {out}")


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - b))) / scale if scale else float(np.max(np.abs(a - b)))


def compare(a_path: Path, b_path: Path) -> int:
    a, b = np.load(a_path), np.load(b_path)
    names = sorted({key.rsplit("/", 1)[0] for key in (*a.files, *b.files)})
    differ, total = {"rules": 0, "runs": 0}, {"rules": 0, "runs": 0}
    kinds = dict.fromkeys(KINDS, 0)  # differing runs per kind
    for name in names:
        layer = "rules" if name.startswith(RULE_PREFIX) else "runs"
        total[layer] += 1
        keys = sorted({k for k in (*a.files, *b.files) if k.rsplit("/", 1)[0] == name})
        missing = [k for k in keys if k not in a.files or k not in b.files]
        equal = not missing and all(np.array_equal(a[k], b[k]) for k in keys)
        differ[layer] += not equal
        if layer == "runs" and not equal:
            kind = name.split("-", 1)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        if missing:
            print(f"{name}  missing {', '.join(missing)}")
            continue
        if layer == "rules":
            print(f"{name}  bitwise={equal}")
            continue
        rel = max(_max_rel(a[k], b[k]) for k in keys if not k.endswith("/csv"))
        print(f"{name}  bitwise={equal}  max_rel={rel:.3e}")
    per_kind = ", ".join(f"{kind} {count}" for kind, count in kinds.items() if count)
    for layer, count in differ.items():
        print(f"{count} of {total[layer]} {layer} differ" + (f" ({per_kind})" if layer == "runs" and count else ""))
    return sum(differ.values())


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
