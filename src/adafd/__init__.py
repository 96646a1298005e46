"""Derivative-free smooth optimization with adaptively sized finite differences.

Two main solvers (constant stepsize for globally gradient-Lipschitz objectives,
backtracking stepsize for the locally Lipschitz case), the general scheme they
specialize, baseline competitors, benchmark problem families with noise
injection, and an experiment harness with CSV traces and SVG plots.
"""

from .baselines import (
    ImfilConfig,
    NelderMeadConfig,
    RgConfig,
    default_imfil_scales,
    imfil_run,
    nelder_mead_run,
    rg_run,
)
from .dfb import BacktrackResult, DfbConfig, DfbState, backtrack, dfb_run, dfb_step
from .dfc import DfcConfig, DfcState, dfc_run, dfc_step
from .gdf import GdfConfig, gdf_run
from .gradapprox import (
    AdaptiveGradResult,
    GradScheme,
    adaptive_gradient,
    approx_gradient,
    central_diff,
    fd_error_bound,
    forward_diff,
)
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    ValidationError,
    rank_trace_files,
    run_experiment,
    run_solver,
)
from .oracle import BudgetExhausted, Objective, Oracle
from .plotting import emit_plot
from .problems import (
    FAMILIES,
    IMAGE_RESTORATION,
    LEAST_SQUARES,
    ROSENBROCK,
    PowerIterationError,
    ProblemInstance,
    build_instance,
    load_instance_spec,
    make_image_restoration,
    make_least_squares,
    make_rosenbrock,
    random_instance,
    save_instance_spec,
    spectral_norm,
)
from .rate import InsufficientData, RateEstimate, estimate_rate
from .trace import CSV_COLUMNS, RunReport, TraceRecord, emit_csv, read_csv

__version__ = "0.1.0"

__all__ = [
    "AdaptiveGradResult",
    "BacktrackResult",
    "BudgetExhausted",
    "CSV_COLUMNS",
    "ComparisonReport",
    "DfbConfig",
    "DfbState",
    "DfcConfig",
    "DfcState",
    "ExperimentConfig",
    "FAMILIES",
    "GdfConfig",
    "GradScheme",
    "IMAGE_RESTORATION",
    "ImfilConfig",
    "InsufficientData",
    "LEAST_SQUARES",
    "NelderMeadConfig",
    "Objective",
    "Oracle",
    "PowerIterationError",
    "ProblemInstance",
    "ROSENBROCK",
    "RateEstimate",
    "RgConfig",
    "RunReport",
    "TraceRecord",
    "ValidationError",
    "adaptive_gradient",
    "approx_gradient",
    "backtrack",
    "build_instance",
    "central_diff",
    "default_imfil_scales",
    "dfb_run",
    "dfb_step",
    "dfc_run",
    "dfc_step",
    "emit_csv",
    "emit_plot",
    "estimate_rate",
    "fd_error_bound",
    "forward_diff",
    "gdf_run",
    "imfil_run",
    "load_instance_spec",
    "make_image_restoration",
    "make_least_squares",
    "make_rosenbrock",
    "nelder_mead_run",
    "random_instance",
    "rank_trace_files",
    "read_csv",
    "rg_run",
    "run_experiment",
    "run_solver",
    "save_instance_spec",
    "spectral_norm",
]
