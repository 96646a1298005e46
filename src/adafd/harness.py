"""Experiment runner: one problem instance, several solvers, identical budget.

Every solver in an experiment sees the same instance and the same evaluation
budget (budget_multiplier * dimension). Consecutive experiments with one
random recipe (family, n, m, instance_seed), such as a noise sweep, share one
instance object too: :func:`adafd.problems.random_instance` keeps the last
instance it drew, up to 4 MiB of A and b.
Per-solver oracle seeds are derived from the experiment seed with numpy
SeedSequence spawning. A results directory holds one
``trace_<solver id>.csv`` per run and ``report.json``, the one record of the
experiment: the manifest, whose ``problem`` entry is the recipe that
:func:`adafd.problems.load_instance_spec` rebuilds the instance from, the
ranking by final ``f_best``, and each run's summary from its
:class:`RunReport`. The CSVs hold the final records exactly (shortest
round-trip floats), so :func:`rank_trace_files` re-ranks a results directory
to the same ranking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import baselines, dfb, dfc
from .driver import ValidationError, check_count, settings
from .gradapprox import GradScheme
from .oracle import Array, check_noise_level
from .problems import ProblemInstance, build_instance, check_recipe
from .trace import RunReport, emit_csv, read_csv


#: Every registered solver id: (module, run function name, config class, scheme
#: or None). The run function is looked up by name on each call, so a wrapper
#: bound to the module attribute (as a profiler installs) is the one that runs.
SOLVERS = {
    "dfc-fordif": (dfc, "dfc_run", dfc.DfcConfig, GradScheme.FORWARD),
    "dfc-cendif": (dfc, "dfc_run", dfc.DfcConfig, GradScheme.CENTRAL),
    "dfb-fordif": (dfb, "dfb_run", dfb.DfbConfig, GradScheme.FORWARD),
    "dfb-cendif": (dfb, "dfb_run", dfb.DfbConfig, GradScheme.CENTRAL),
    "nelder-mead": (baselines, "nelder_mead_run", baselines.NelderMeadConfig, None),
    "imfil-fordif": (baselines, "imfil_run", baselines.ImfilConfig, GradScheme.FORWARD),
    "imfil-cendif": (baselines, "imfil_run", baselines.ImfilConfig, GradScheme.CENTRAL),
    "rg": (baselines, "rg_run", baselines.RgConfig, None),
}
SOLVER_IDS = tuple(SOLVERS)

SolverSpec = Union[str, Tuple[str, dict]]


def _split_spec(spec: SolverSpec) -> Tuple[str, dict]:
    """A solver spec as its id and its config overrides."""
    return (spec, {}) if isinstance(spec, str) else (spec[0], spec[1] or {})


def _check_solver(solver_id: str, overrides: dict) -> None:
    """Reject an unknown solver id or an override key its config has no setting for."""
    if solver_id not in SOLVERS:
        raise ValidationError(f"unknown solver id {solver_id!r}; known: {', '.join(SOLVER_IDS)}")
    valid = [f.name for f in settings(SOLVERS[solver_id][2])]
    unknown = sorted(set(overrides) - set(valid))
    if unknown:
        raise ValidationError(f"{solver_id}: unknown override keys {', '.join(unknown)}; "
                              f"valid: {', '.join(valid)}")


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
        check_recipe(self.family, self.n, self.m)
        resolve_initial_point(self.initial_point, self.n)
        # a float budget_multiplier gives a float budget, a None seed an unrepeatable draw
        for name, low in (("budget_multiplier", 0), ("instance_seed", -1), ("run_seed", -1)):
            check_count(name, getattr(self, name), low)
        for name in ("n", "m", "budget_multiplier", "instance_seed", "run_seed"):
            if getattr(self, name) is not None:  # a numpy integer as a JSON one
                object.__setattr__(self, name, int(getattr(self, name)))
        check_noise_level(self.noise_level)
        object.__setattr__(self, "noise_level", float(self.noise_level))  # a numpy float too
        if isinstance(self.solvers, str):
            raise ValidationError(f"solvers must be a list of solver ids, not the string "
                                  f"{self.solvers!r}")
        if not self.solvers:
            raise ValidationError("at least one solver id is required")
        seen = set()
        for spec in self.solvers:
            sid, overrides = _split_spec(spec)
            _check_solver(sid, overrides)
            if sid in seen:
                raise ValidationError(f"solver id {sid!r} is listed twice")
            seen.add(sid)

    @property
    def budget(self) -> int:
        return self.budget_multiplier * self.n


@dataclass
class ComparisonReport:
    ranking: List[Tuple[str, float]]  # (solver_id, final f_best), best first
    reports: Dict[str, RunReport]  # each with trace_path set
    manifest: dict

    @property
    def results(self) -> Dict[str, RunReport]:
        """``reports`` under its former name; it stays only because the benchmark
        reads it."""
        return self.reports


#: The named initial points and the value of each coordinate at them.
X0_PRESETS = {"zeros": 0.0, "halves": 0.5}


def resolve_initial_point(spec: Union[str, Array], n: int) -> Array:
    if isinstance(spec, str):
        if spec not in X0_PRESETS:
            raise ValidationError(f"unknown initial point preset {spec!r}")
        return np.full(n, X0_PRESETS[spec])
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
    overrides = overrides or {}
    _check_solver(solver_id, overrides)
    module, run_name, config_class, scheme = SOLVERS[solver_id]
    cfg = config_class(x1=x0, budget=budget, **overrides)
    args = (cfg,) if scheme is None else (scheme, cfg)
    return getattr(module, run_name)(instance.objective, *args, noise_level, seed)


def _nan_last(item: Tuple[str, float]):
    """Ranking key for (solver_id, final f_best): lowest first, NaN last, ties
    (NaN included) broken by solver id."""
    solver_id, value = item
    nan = math.isnan(value)
    return (nan, 0.0 if nan else value, solver_id)


def rank_trace_files(paths: Dict[str, Union[str, Path]]) -> List[Tuple[str, float]]:
    """Rank solvers by the final f_best stored in their trace files, as
    :func:`run_experiment` ranks its in-memory runs."""
    finals = {}
    for sid, path in paths.items():
        records = read_csv(path)
        if not records:
            raise ValueError(f"{path}: the trace has no records to rank")
        finals[sid] = records[-1].f_best
    return sorted(finals.items(), key=_nan_last)


def run_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    """Build the instance, run every solver, persist traces, rank the final records."""
    instance = build_instance(cfg.family, cfg.n, m=cfg.m, seed=cfg.instance_seed)
    x0 = resolve_initial_point(cfg.initial_point, cfg.n)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    seed_children = np.random.SeedSequence(cfg.run_seed).spawn(len(cfg.solvers))
    reports: Dict[str, RunReport] = {}
    for spec, child in zip(cfg.solvers, seed_children):
        solver_id, overrides = _split_spec(spec)
        seed = int(child.generate_state(1, np.uint64)[0])
        report = run_solver(solver_id, instance, cfg.budget, cfg.noise_level,
                            seed, x0, overrides)
        if not report.trace:
            raise ValidationError(
                f"{solver_id}: budget {cfg.budget} too small to record any iteration"
            )
        reports[solver_id] = report
    for solver_id, report in reports.items():  # so a run that fails writes no file
        report.trace_path = str(out_dir / f"trace_{solver_id}.csv")
        emit_csv(report.trace, report.trace_path)

    ranking = sorted(((sid, float(rep.final_f_best)) for sid, rep in reports.items()),
                     key=_nan_last)
    manifest = {
        "problem": {
            "family": instance.family,
            "n": instance.dim,
            "m": instance.m,
            "instance_seed": instance.seed,
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
        sid: {
            "final_f_best": rep.final_f_best,
            "best_f": rep.best_f,
            "evals": rep.evals,
            "termination": rep.termination,
            "truncated": rep.truncated,
            "trace": rep.trace_path,
        }
        for sid, rep in reports.items()
    }
    with open(out_dir / "report.json", "w") as fh:  # one write, not one per token
        fh.write(json.dumps({"manifest": manifest, "ranking": [list(item) for item in ranking],
                             "results": results}, indent=2, sort_keys=True))
    return ComparisonReport(ranking=ranking, reports=reports, manifest=manifest)
