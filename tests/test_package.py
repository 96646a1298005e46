import types

import adafd

#: The exported names, one per public class, function or constant imported
#: by the package; submodules are not exported.
EXPORTED = {
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
    "spectral_norm",
}


def test_the_exported_names_are_the_public_imports():
    assert len(adafd.__all__) == len(EXPORTED) == 57
    assert set(adafd.__all__) == EXPORTED
    assert adafd.__all__ == sorted(adafd.__all__)
    for name in adafd.__all__:
        assert not isinstance(getattr(adafd, name), types.ModuleType)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from adafd import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED
