"""Command-line harness: run experiments, plot traces, diagnose rates.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 solver-internal
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import X0_PRESETS, ExperimentConfig, ValidationError, run_experiment
from .plotting import emit_plot
from .rate import InsufficientData, estimate_rate
from .trace import read_csv

_PROBLEM_NAMES = {
    "leastsquares": "least_squares",
    "imagerestore": "image_restoration",
    "rosenbrock": "rosenbrock",
}

#: Keys accepted in a ``--config`` file (``key = value`` lines, ``#`` comments).
CONFIG_KEYS = ("problem", "n", "m", "noise", "solver", "budget_mult", "seed",
               "x0", "out")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so usage problems map to exit code 1."""

    def error(self, message):
        raise _ArgumentError(message)


def parse_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _resolve_x0(spec: str):
    if spec in X0_PRESETS:
        return spec
    path = Path(spec)
    if not path.exists():
        raise ValidationError(f"x0 must be {', '.join(map(repr, X0_PRESETS))}, or a file; "
                              f"{spec!r} is none of these")
    text = path.read_text().replace(",", " ")
    return np.array([float(tok) for tok in text.split()])


def _build_parser() -> _Parser:
    parser = _Parser(prog="adafd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment over a solver list")
    run_p.add_argument("--config", help="key = value file; flags override it")
    run_p.add_argument("--problem", choices=sorted(_PROBLEM_NAMES))
    run_p.add_argument("--n", type=int)
    run_p.add_argument("--m", type=int)
    run_p.add_argument("--noise", type=float)
    run_p.add_argument("--solver", help="comma-separated solver ids")
    run_p.add_argument("--budget-mult", type=int, dest="budget_mult")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--x0", help=" | ".join([*X0_PRESETS, "FILE with one point"]))
    run_p.add_argument("--out", help="output directory")

    plot_p = sub.add_parser("plot", help="render trace CSVs to one SVG")
    plot_p.add_argument("--traces", required=True, help="comma-separated CSV paths")
    plot_p.add_argument("--out", required=True, help="output .svg path")

    rate_p = sub.add_parser("rate", help="fit a convergence rate to a trace")
    rate_p.add_argument("--trace", required=True)
    rate_p.add_argument("--target", type=float, required=True)
    return parser


def _cmd_run(args) -> int:
    merged = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:  # each key is also its flag's argparse dest
        value = getattr(args, key)
        if value is not None:
            merged[key] = value

    for required in ("problem", "n", "solver", "out"):
        if required not in merged:
            raise ValidationError(f"missing required option --{required}")
    problem = str(merged["problem"])
    if problem not in _PROBLEM_NAMES:
        raise ValidationError(f"unknown problem {problem!r}")
    seed = int(merged.get("seed", 0))
    cfg = ExperimentConfig(
        family=_PROBLEM_NAMES[problem],
        n=int(merged["n"]),
        m=int(merged["m"]) if merged.get("m") is not None else None,
        noise_level=float(merged.get("noise", 0.0)),
        solvers=[s.strip() for s in str(merged["solver"]).split(",") if s.strip()],
        budget_multiplier=int(merged.get("budget_mult", 200)),
        instance_seed=seed,
        run_seed=seed,
        initial_point=_resolve_x0(str(merged.get("x0", "zeros"))),
        output_dir=merged["out"],
    )
    report = run_experiment(cfg)
    print(f"experiment: {cfg.family} n={cfg.n} noise={cfg.noise_level:g} "
          f"budget={cfg.budget}")
    for rank, (solver_id, final) in enumerate(report.ranking, start=1):
        rep = report.reports[solver_id]
        print(f"  {rank}. {solver_id:14s} f_best={final:.6e} evals={rep.evals} "
              f"({rep.termination})")
    print(f"report: {Path(cfg.output_dir) / 'report.json'}")
    return 0


def _cmd_plot(args) -> int:
    paths = [p.strip() for p in args.traces.split(",") if p.strip()]
    if not paths:
        raise ValidationError("no trace files given")
    traces = {Path(p).stem: read_csv(p) for p in paths}
    emit_plot(traces, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_rate(args) -> int:
    trace = read_csv(args.trace)
    est = estimate_rate(trace, args.target)
    if est.kind == "linear":
        detail = f"per-iteration factor {est.factor_or_exponent:.6g}"
    elif est.kind == "sublinear":
        detail = f"exponent {est.factor_or_exponent:.6g}"
    else:
        detail = "no tight fit"
    print(f"rate: {est.kind} ({detail}, r2={est.r_squared:.4f})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "plot":
            return _cmd_plot(args)
        return _cmd_rate(args)
    except (_ArgumentError, ValidationError, InsufficientData, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver-internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
