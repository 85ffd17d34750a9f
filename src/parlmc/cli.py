"""Benchmark command line: sample, tune, noise-check, benchmark, check.

Experiment configs are JSON with a strict schema (unknown keys rejected).
Runs on Gaussian targets report exact W2 to the target from ensemble moments
plus the matching theorem bound; other targets report moment drift between
snapshots.  Traces are written as JSON (full, with timings) and CSV
(deterministic columns only, so same-seed reruns are byte-identical).

Exit codes: 0 ok, 2 configuration error, 3 divergence, 4 statistical-check
failure.  The PARLMC_WORKERS environment variable caps physical worker
threads without changing the round accounting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import noise as noise_mod
from .errors import ConfigurationError, DivergenceError, ParlmcError
from .metrics import GaussianSummary, empirical_summary, theorem1_bound, theorem2_bound, w2_gaussian
from .potentials import LogisticRidgePotential, QuadraticPotential, SyntheticDelayPotential
from .samplers import KINDS, KINETIC_KINDS, SamplerConfig, _initial_theta, _preconditions, effective_rq, run
from .tuning import TuneRequest, iters_limited, tune

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_STATCHECK = 4

# Per potential kind: the allowed keys, then the required ones.
_POTENTIAL_KEYS = {
    "quadratic": ({"kind", "precision", "precision_diag", "mean"}, ()),
    "logistic_ridge": ({"kind", "csv_path", "ridge"}, ("csv_path", "ridge")),
    "synthetic_delay": ({"kind", "dimension", "delay_seconds"}, ("dimension", "delay_seconds")),
}
_floats = partial(np.asarray, dtype=float)
_EXPERIMENT_KEYS = {"potential", "sampler", "h", "n", "R", "Q", "gamma", "seed", "parallel_width", "chains",
                    "record_every", "theta0", "v0", "w2_init"}


def _require(cond, message):
    if not cond:
        raise ConfigurationError(message)


def _strict_object(raw, what: str, allowed=None, required=()) -> dict:
    """`raw` if it is a JSON object with no key outside `allowed` (when given) and every `required` key."""
    _require(isinstance(raw, dict), f"{what} must be a JSON object")
    unknown = set(raw) - allowed if allowed is not None else set()
    _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        _require(key in raw, f"{what} key {key!r} is required")
    return raw


def _field(raw: dict, key: str, convert=float, default=None):
    """raw[key] (or `default` when absent) through `convert`; None stays None, a bad value names its key."""
    value = raw.get(key, default)
    if value is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"key {key!r} has an invalid value {value!r} ({exc})") from None


def _read_json(path: str, what: str):
    """The JSON value in file `path`, or on stdin for '-'."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None


def build_potential(spec: dict):
    kind = _strict_object(spec, "potential").get("kind")
    _require(kind in _POTENTIAL_KEYS, f"unknown potential kind {kind!r}")
    _strict_object(spec, "potential", *_POTENTIAL_KEYS[kind])
    if kind == "quadratic":
        _require(
            ("precision" in spec) != ("precision_diag" in spec),
            "quadratic potential needs exactly one of precision / precision_diag",
        )
        mean = _field(spec, "mean", _floats)
        if "precision_diag" in spec:
            return QuadraticPotential.from_diagonal(_field(spec, "precision_diag", _floats), mean)
        return QuadraticPotential(_field(spec, "precision", _floats), mean)
    if kind == "logistic_ridge":
        return LogisticRidgePotential.from_csv(spec["csv_path"], _field(spec, "ridge"))
    return SyntheticDelayPotential(_field(spec, "dimension", int), _field(spec, "delay_seconds"))


def load_experiment(path: str) -> dict:
    required = ("potential", "sampler", "h", "n")
    raw = _strict_object(_read_json(path, "config"), "config", _EXPERIMENT_KEYS, required)
    _require(raw["sampler"] in KINDS, f"sampler must be one of {KINDS}, got {raw['sampler']!r}")
    return raw


def _sampler_config(raw: dict, seed_override=None, width_override=None) -> SamplerConfig:
    return SamplerConfig(
        h=_field(raw, "h"),
        n=_field(raw, "n", int),
        R=_field(raw, "R", int, 1),
        Q=_field(raw, "Q", int, 1),
        gamma=_field(raw, "gamma"),
        seed=seed_override if seed_override is not None else _field(raw, "seed", int, 0),
        parallel_width=width_override if width_override is not None else _field(raw, "parallel_width", int),
        theta0=_field(raw, "theta0", _floats),
        v0=_field(raw, "v0", _floats),
    )


def _quadratic_metric(potential, config, kind, n_chains, w2_init, start):
    """Per-snapshot exact W2 to the Gaussian target plus the theorem bound from `start`."""
    target = GaussianSummary(mean=potential.mean, covariance=potential.target_covariance())
    spec = potential.spec
    kinetic = kind in KINETIC_KINDS
    eff_r, eff_q = effective_rq(kind, config)
    if kinetic:
        f_gap = float(potential.value(start) - potential.value(spec.minimizer))

    def metric(iteration, state):
        if n_chains >= spec.dimension + 1:
            row = {"w2": w2_gaussian(empirical_summary(np.atleast_2d(state.theta)), target)}
        else:
            row = {"dist_to_mean": float(np.sqrt(np.sum((state.theta - potential.mean) ** 2, axis=-1)).max())}
        shared = dict(h=config.h, Q=eff_q, R=eff_r, m=spec.strong_convexity, M=spec.smoothness, p=spec.dimension,
                      w2_init=w2_init, n=iteration)
        bound = theorem2_bound(**shared, gamma=config.gamma, f_gap=f_gap) if kinetic else theorem1_bound(**shared)
        row.update(bound_total=bound.total, bound_initialization=bound.initialization_term,
                   bound_discretization=bound.discretization_term)
        return row

    return metric


def _drift_metric(n_chains, dimension):
    """Mean/covariance drift between consecutive snapshots (non-Gaussian targets)."""
    previous = {}

    def metric(iteration, state):
        if n_chains < dimension + 1:
            return {}
        summary = empirical_summary(np.atleast_2d(state.theta))
        drift = 0.0 if not previous else float(np.linalg.norm(summary.mean - previous["mean"])
                                               + np.linalg.norm(summary.covariance - previous["cov"]))
        previous.update(mean=summary.mean, cov=summary.covariance)
        return {"moment_drift": drift}

    return metric


def _default_w2_init(raw, potential, start):
    if raw.get("w2_init") is not None:
        return _field(raw, "w2_init")
    if isinstance(potential, QuadraticPotential):
        point = GaussianSummary(mean=start, covariance=np.zeros((potential.spec.dimension,) * 2))
        target = GaussianSummary(mean=potential.mean, covariance=potential.target_covariance())
        return w2_gaussian(point, target)
    return 0.0


def cmd_sample(args) -> int:
    raw = load_experiment(args.config)
    potential = build_potential(raw["potential"])
    config = _sampler_config(raw, args.seed, args.parallel_width)
    kind = raw["sampler"]
    n_chains = _field(raw, "chains", int, 1)
    record_every = _field(raw, "record_every", int)
    start = np.atleast_2d(_initial_theta(config, potential, n_chains))[0]  # chain 0's start, as run sets it
    w2_init = _default_w2_init(raw, potential, start)
    if isinstance(potential, QuadraticPotential):
        metric = _quadratic_metric(potential, config, kind, n_chains, w2_init, start)
    else:
        metric = _drift_metric(n_chains, potential.spec.dimension)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        trace = run(kind, config, potential, n_chains=n_chains, record_every=record_every, metric_fn=metric)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trace is not None:
            exc.trace.config.update({"potential": raw["potential"], "w2_init": w2_init})
            _write_trace(exc.trace, out_dir, args.format, stem="trace_partial")
        return EXIT_DIVERGED
    trace.config.update({"potential": raw["potential"], "w2_init": w2_init})
    paths = _write_trace(trace, out_dir, args.format, stem="trace")
    for p in paths:
        print(p)
    return EXIT_OK


def _write_trace(trace, out_dir: Path, fmt: str, stem: str):
    paths = []
    for ext, render in (("json", trace.to_json), ("csv", trace.to_csv)):
        if fmt in (ext, "both"):
            path = out_dir / f"{stem}.{ext}"
            path.write_text(render(), newline="")
            paths.append(str(path))
    return paths


def cmd_tune(args) -> int:
    required = ("regime", "epsilon", "m", "M", "p")
    raw = _strict_object(_read_json(args.request, "request"), "request", {*required, "w2_init", "R"}, required)
    req = TuneRequest(
        epsilon=_field(raw, "epsilon"),
        m=_field(raw, "m"),
        M=_field(raw, "M"),
        p=_field(raw, "p", int),
        regime=raw["regime"],
        w2_init=_field(raw, "w2_init"),
        R=_field(raw, "R", int),
    )
    plan = tune(req)
    payload = plan.to_dict()
    if req.R is not None:
        # fixed parallel width: attach the limited-units iteration guidance
        payload["iters_limited"] = {
            "R": req.R,
            "n": iters_limited(req.regime, req.kappa, req.epsilon, req.R),
        }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tune_plan.json").write_text(text)
    return EXIT_OK


def cmd_noise_check(args) -> int:
    _require(args.samples >= 10_000, f"need at least 1e4 samples, got {args.samples}")
    _require(args.R >= 1, "R must be >= 1")
    _require(args.h > 0, "h must be positive")
    rng_u = noise_mod.stream(args.seed, 0, noise_mod.ROLE_MIDPOINTS)
    u = noise_mod.draw_midpoints(args.R, rng_u)
    rng = noise_mod.stream(args.seed, 0, noise_mod.ROLE_PATH)
    if args.kind == "vanilla":
        draw = noise_mod.draw_vanilla_noise(args.R, args.h, 1, u, rng, size=args.samples)
        samples = np.concatenate([draw.xi_mid[:, :, 0].T, draw.xi_full], axis=1)
        tu = np.append(u, 1.0)
        analytic = 2.0 * args.h * np.minimum(tu[:, None], tu[None, :])
        labels = [f"xi_{r + 1}" for r in range(args.R)] + ["xi_full"]
    else:
        _require(args.gamma is not None and args.gamma > 0, "kinetic noise needs --gamma > 0")
        draw = noise_mod.draw_kinetic_noise(args.R, args.gamma, args.h, 1, u, rng, size=args.samples)
        samples = np.concatenate([draw.xi_mid[:, :, 0].T, draw.xi_full, draw.xi_bar], axis=1)
        analytic = noise_mod.kinetic_covariance(args.R, args.gamma, args.h, u)
        labels = [f"xi_{r + 1}" for r in range(args.R)] + ["xi_full", "xi_bar"]

    empirical = np.cov(samples, rowvar=False)
    n = samples.shape[0]
    se = np.sqrt((np.outer(np.diag(analytic), np.diag(analytic)) + analytic**2) / (n - 1))
    z = (empirical - analytic) / se

    print(f"noise covariance check: kind={args.kind} R={args.R} h={args.h} "
          f"gamma={args.gamma} N={args.samples} U={np.array2string(u, precision=6)}")
    print(f"{'entry':>16} {'analytic':>14} {'empirical':>14} {'z':>8}")
    worst = 0.0
    for i in range(len(labels)):
        for j in range(i + 1):
            worst = max(worst, abs(z[i, j]))
            print(f"{labels[i] + ',' + labels[j]:>16} {analytic[i, j]:14.8f} "
                  f"{empirical[i, j]:14.8f} {z[i, j]:8.2f}")
    if args.dump_cov:
        np.savetxt(args.dump_cov, analytic, delimiter=",")
        print(f"analytic covariance written to {args.dump_cov}")
    if worst > 5.0:
        print(f"FAIL: max |z| = {worst:.2f} exceeds 5", file=sys.stderr)
        return EXIT_STATCHECK
    print(f"OK: max |z| = {worst:.2f}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    raw = load_experiment(args.config)
    potential = build_potential(raw["potential"])
    _require(
        isinstance(potential, SyntheticDelayPotential),
        "benchmark requires a synthetic_delay potential (fixed per-gradient cost)",
    )
    kind = raw["sampler"]
    base = _sampler_config(raw, args.seed, None)
    widths = sorted({int(w) for w in args.widths.split(",")} if args.widths else
                    {2**i for i in range(int(math.log2(base.R)) + 1)} | {base.R})
    _require(all(w >= 1 for w in widths), "widths must be >= 1")

    rows = []
    for width in widths:
        config = _sampler_config(raw, args.seed, width)
        trace = run(kind, config, potential, n_chains=1, record_every=max(1, config.n))
        rows.append((width, trace.elapsed_seconds / max(1, config.n)))
    baseline = rows[0][1]  # the narrowest width, 1 when it was scanned

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "benchmark.csv"
    with open(path, "w") as fh:
        fh.write("width,mean_iteration_seconds,speedup\n")
        print(f"benchmark: sampler={kind} R={base.R} Q={base.Q} n={base.n} seed={base.seed}")
        print(f"{'width':>6} {'s/iter':>12} {'speedup':>9}")
        for width, per_iter in rows:
            speedup = baseline / per_iter if per_iter > 0 else float("inf")
            fh.write(f"{width},{per_iter:.6f},{speedup:.3f}\n")
            print(f"{width:>6} {per_iter:>12.6f} {speedup:>9.2f}")
    print(path)
    return EXIT_OK


def cmd_check(args) -> int:
    raw = load_experiment(args.config)
    potential = build_potential(raw["potential"])
    config = _sampler_config(raw, args.seed, args.parallel_width)
    kind = raw["sampler"]
    regime, R, Q, checks = _preconditions(kind, config, potential.spec)
    report = {
        "sampler": kind,
        "regime": regime,
        "effective_R": R,
        "effective_Q": Q,
        "checks": [c.to_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parlmc",
        description="Parallel randomized-midpoint Langevin samplers: run, tune, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="run an ensemble and write trace files")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out-dir", default=".")
    p_sample.add_argument("--parallel-width", type=int, default=None)
    p_sample.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p_sample.set_defaults(func=cmd_sample)

    p_tune = sub.add_parser("tune", help="mixing-time parameter selection (JSON in/out)")
    p_tune.add_argument("--request", required=True, help="request JSON path, or - for stdin")
    p_tune.add_argument("--out-dir", default=None)
    p_tune.set_defaults(func=cmd_tune)

    p_noise = sub.add_parser("noise-check", help="empirical vs analytic noise covariance")
    p_noise.add_argument("--kind", choices=("vanilla", "kinetic"), required=True)
    p_noise.add_argument("--R", type=int, required=True)
    p_noise.add_argument("--h", type=float, required=True)
    p_noise.add_argument("--gamma", type=float, default=None)
    p_noise.add_argument("--samples", type=int, default=100_000)
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.add_argument("--dump-cov", default=None, help="write the analytic covariance as CSV")
    p_noise.set_defaults(func=cmd_noise_check)

    p_bench = sub.add_parser("benchmark", help="wall-clock speedup across parallel widths")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out-dir", default=".")
    p_bench.add_argument("--widths", default=None, help="comma-separated widths (default 1,2,4,...,R)")
    p_bench.set_defaults(func=cmd_benchmark)

    p_check = sub.add_parser("check", help="stability precondition report")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--parallel-width", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ParlmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
