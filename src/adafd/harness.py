"""Experiment runner: one problem instance, several solvers, identical budget.

Every solver in an experiment sees the same instance and the same evaluation
budget (budget_multiplier * dimension); per-solver oracle seeds are derived
from the experiment seed with numpy SeedSequence spawning. Each run's trace is
persisted as CSV. The report ranks the runs by their in-memory final records,
whose values the CSVs hold exactly (shortest round-trip floats), so
:func:`rank_trace_files` re-ranks a results directory to the same ranking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import baselines
from .baselines import BaselineConfig, imfil_run, nelder_mead_run, rg_run
from .dfb import DfbConfig, dfb_run
from .dfc import DfcConfig, dfc_run
from .gradapprox import GradScheme
from .oracle import Array
from .problems import FAMILIES, ProblemInstance, build_instance
from .trace import RunReport, emit_csv, read_csv


class ValidationError(ValueError):
    """A request that fails before any solver runs (bad ids, dims, budgets)."""


SOLVER_IDS = (
    "dfc-fordif",
    "dfc-cendif",
    "dfb-fordif",
    "dfb-cendif",
    "nelder-mead",
    "imfil-fordif",
    "imfil-cendif",
    "rg",
)

_SCHEME_SUFFIX = {"fordif": GradScheme.FORWARD, "cendif": GradScheme.CENTRAL}

SolverSpec = Union[str, Tuple[str, dict]]


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    n: int
    solvers: Sequence[SolverSpec]
    m: Optional[int] = None
    noise_level: float = 0.0
    budget_multiplier: int = 200
    instance_seed: int = 0
    run_seed: int = 0
    initial_point: Union[str, Array] = "zeros"
    output_dir: Union[str, Path] = "."

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown problem family {self.family!r}")
        if self.n < 1:
            raise ValidationError("dimension must be positive")
        if self.budget_multiplier < 1:
            raise ValidationError("budget_multiplier must be a positive integer")
        if self.noise_level < 0:
            raise ValidationError("noise level must be nonnegative")
        if not self.solvers:
            raise ValidationError("at least one solver id is required")
        for spec in self.solvers:
            sid = spec[0] if isinstance(spec, tuple) else spec
            if sid not in SOLVER_IDS:
                raise ValidationError(
                    f"unknown solver id {sid!r}; known: {', '.join(SOLVER_IDS)}"
                )

    @property
    def budget(self) -> int:
        return self.budget_multiplier * self.n


@dataclass(frozen=True)
class SolverResult:
    solver_id: str
    final_f_best: float
    best_f: float
    evals: int
    termination: str
    truncated: bool
    trace_path: str


@dataclass
class ComparisonReport:
    ranking: List[Tuple[str, float]]  # (solver_id, final f_best), best first
    results: Dict[str, SolverResult]
    manifest: dict
    reports: Dict[str, RunReport] = field(default_factory=dict)


def resolve_initial_point(spec: Union[str, Array], n: int) -> Array:
    if isinstance(spec, str):
        if spec == "zeros":
            return np.zeros(n)
        if spec == "halves":
            return 0.5 * np.ones(n)
        raise ValidationError(f"unknown initial point preset {spec!r}")
    x0 = np.asarray(spec, dtype=float)
    if x0.shape != (n,):
        raise ValidationError(f"initial point has shape {x0.shape}, expected ({n},)")
    return x0


def run_solver(
    solver_id: str,
    instance: ProblemInstance,
    budget: int,
    noise_level: float,
    seed: int,
    x0: Array,
    overrides: Optional[dict] = None,
) -> RunReport:
    """Run one registered solver on an instance; overrides patch its config."""
    overrides = dict(overrides or {})
    kind, _, suffix = solver_id.partition("-")
    if kind in ("dfc", "dfb"):
        scheme = _SCHEME_SUFFIX[suffix]
        if kind == "dfc":
            cfg = DfcConfig(x1=x0, budget=budget, **overrides)
            report = dfc_run(instance.objective, scheme, cfg, noise_level, seed)
        else:
            cfg = DfbConfig(x1=x0, budget=budget, **overrides)
            report = dfb_run(instance.objective, scheme, cfg, noise_level, seed)
    elif kind == "imfil":
        scheme = _SCHEME_SUFFIX[suffix]
        cfg = BaselineConfig(solver_kind=baselines.IMFIL, x1=x0, budget=budget,
                             **overrides)
        report = imfil_run(instance.objective, scheme, cfg, noise_level, seed)
    elif solver_id == "nelder-mead":
        cfg = BaselineConfig(solver_kind=baselines.NELDER_MEAD, x1=x0, budget=budget,
                             **overrides)
        report = nelder_mead_run(instance.objective, cfg, noise_level, seed)
    elif solver_id == "rg":
        if "rg_lipschitz" not in overrides:
            if instance.objective.lipschitz_grad_constant is None:
                raise ValidationError(
                    "rg needs a gradient-Lipschitz constant and this instance has none"
                )
            overrides["rg_lipschitz"] = instance.objective.lipschitz_grad_constant
        cfg = BaselineConfig(solver_kind=baselines.RG, x1=x0, budget=budget,
                             **overrides)
        report = rg_run(instance.objective, cfg, noise_level, seed)
    else:
        raise ValidationError(f"unknown solver id {solver_id!r}")
    report.solver_id = solver_id
    return report


def trace_filename(solver_id: str) -> str:
    return f"trace_{solver_id}.csv"


def _nan_last(item: Tuple[str, float]):
    """Ranking key for (solver_id, final f_best): lowest first, NaN last, ties
    (NaN included) broken by solver id."""
    solver_id, value = item
    nan = math.isnan(value)
    return (nan, 0.0 if nan else value, solver_id)


def rank_trace_files(paths: Dict[str, Union[str, Path]]) -> List[Tuple[str, float]]:
    """Rank solvers by the final f_best stored in their trace files, as
    :func:`run_experiment` ranks its in-memory runs."""
    finals = {sid: read_csv(path)[-1].f_best for sid, path in paths.items()}
    return sorted(finals.items(), key=_nan_last)


def run_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    """Build the instance, run every solver, persist traces, rank the final records."""
    instance = build_instance(cfg.family, cfg.n, m=cfg.m, seed=cfg.instance_seed)
    x0 = resolve_initial_point(cfg.initial_point, cfg.n)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    seed_children = np.random.SeedSequence(cfg.run_seed).spawn(len(cfg.solvers))
    reports: Dict[str, RunReport] = {}
    paths: Dict[str, Path] = {}
    for spec, child in zip(cfg.solvers, seed_children):
        solver_id, overrides = (spec, None) if isinstance(spec, str) else spec
        seed = int(child.generate_state(1, np.uint64)[0])
        report = run_solver(solver_id, instance, cfg.budget, cfg.noise_level,
                            seed, x0, overrides)
        if not report.trace:
            raise ValidationError(
                f"{solver_id}: budget {cfg.budget} too small to record any iteration"
            )
        path = out_dir / trace_filename(solver_id)
        emit_csv(report.trace, path)
        reports[solver_id] = report
        paths[solver_id] = path

    finals = {sid: float(rep.trace[-1].f_best) for sid, rep in reports.items()}
    ranking = sorted(finals.items(), key=_nan_last)
    manifest = {
        "problem": {
            "family": cfg.family,
            "n": cfg.n,
            "m": instance.m,
            "instance_seed": cfg.instance_seed if cfg.family != "rosenbrock" else None,
        },
        "noise_level": cfg.noise_level,
        "budget_multiplier": cfg.budget_multiplier,
        "budget": cfg.budget,
        "run_seed": cfg.run_seed,
        "initial_point": (cfg.initial_point if isinstance(cfg.initial_point, str)
                          else [float(v) for v in cfg.initial_point]),
        "solvers": {sid: rep.config for sid, rep in reports.items()},
        "rng": "numpy PCG64; per-solver seeds via SeedSequence(run_seed).spawn",
    }
    results = {
        sid: SolverResult(
            solver_id=sid,
            final_f_best=rep.trace[-1].f_best,
            best_f=rep.best_f,
            evals=rep.evals,
            termination=rep.termination,
            truncated=rep.truncated,
            trace_path=str(paths[sid]),
        )
        for sid, rep in reports.items()
    }
    report = ComparisonReport(ranking=ranking, results=results, manifest=manifest,
                              reports=reports)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(
            {
                "manifest": manifest,
                "ranking": [[sid, fb] for sid, fb in ranking],
                "results": {
                    sid: {
                        "final_f_best": res.final_f_best,
                        "best_f": res.best_f,
                        "evals": res.evals,
                        "termination": res.termination,
                        "truncated": res.truncated,
                        "trace": res.trace_path,
                    }
                    for sid, res in results.items()
                },
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    return report
