"""Derivative-free smooth optimization with adaptively sized finite differences.

Two main solvers (constant stepsize for globally gradient-Lipschitz objectives,
backtracking stepsize for the locally Lipschitz case), the general scheme they
specialize, baseline competitors, benchmark problem families with noise
injection, and an experiment harness with CSV traces and SVG plots.
"""

from types import ModuleType as _ModuleType

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
    spectral_norm,
)
from .rate import InsufficientData, RateEstimate, estimate_rate
from .trace import CSV_COLUMNS, RunReport, TraceRecord, emit_csv, read_csv

__version__ = "0.1.0"

#: The public names imported above; submodules are reachable but not exported.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
