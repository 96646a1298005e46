import hashlib
import json
import math
import re
import warnings
from types import SimpleNamespace
from xml.dom import minidom

import numpy as np
import pytest

from adafd import (
    DfbConfig,
    DfcConfig,
    ExperimentConfig,
    GdfConfig,
    GradScheme,
    ImfilConfig,
    InsufficientData,
    NelderMeadConfig,
    Objective,
    RgConfig,
    TraceRecord,
    ValidationError,
    dfb_run,
    dfc_run,
    emit_csv,
    emit_plot,
    estimate_rate,
    gdf_run,
    imfil_run,
    nelder_mead_run,
    rank_trace_files,
    read_csv,
    rg_run,
    run_experiment,
    run_solver,
)
from adafd import cli, problems
from adafd.cli import main, parse_config_file
from adafd.harness import SOLVER_IDS
from adafd.trace import records_equal

#: One non-default config field per solver id, with the value report.json records.
ONE_OVERRIDE = {
    "dfc-fordif": ("kappa", 0.25),
    "dfc-cendif": ("r", 3.0),
    "dfb-fordif": ("eta", 3.0),
    "dfb-cendif": ("nu", [0.1, 0.05, 0.025]),
    "nelder-mead": ("coefficients", [1.0, 2.0, 0.5, 0.25]),
    "imfil-fordif": ("armijo", 1e-3),
    "imfil-cendif": ("scales", [0.5, 0.25, 0.125]),
    "rg": ("smoothing", 1e-5),
}


def _synthetic_trace(values, taus=None):
    taus = taus or [0.0] * len(values)
    return [
        TraceRecord(iter=i + 1, evals=3 * (i + 1), f_current=v, f_best=min(values[: i + 1]),
                    grad_norm_approx=1.0, delta=0.1, C=1.0, tau=taus[i],
                    step_status="accepted")
        for i, v in enumerate(values)
    ]


def _best_values(values):
    """A synthetic trace whose f_best column is exactly ``values``."""
    return [r._replace(f_best=v) for r, v in zip(_synthetic_trace([1.0] * len(values)), values)]


def _svg_numbers(svg):
    """Every coordinate and length written into the SVG's numeric attributes."""
    fields = re.findall(r'\b(?:x|y|x1|y1|x2|y2|cx|cy|r|points)="([^"]*)"', svg)
    return [float(v) for field in fields for v in re.split(r"[ ,]+", field) if v]


class TestCsv:
    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(_synthetic_trace([1.5]), path)
        assert path.read_text().count("\n") == 2

    def test_reemission_is_byte_identical(self, tmp_path):
        trace = _synthetic_trace([3.0, 1.0, 0.5])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(trace, p1)
        emit_csv(trace, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact_including_awkward_floats(self, tmp_path):
        trace = [
            TraceRecord(iter=1, evals=4, f_current=0.1 + 0.2, f_best=1e-300,
                        grad_norm_approx=float("nan"), delta=2.0**-52, C=1e308,
                        tau=0.0, step_status="null"),
            TraceRecord(iter=2, evals=8, f_current=-1.0 / 3.0, f_best=-1.0 / 3.0,
                        grad_norm_approx=5.5, delta=0.1, C=float("nan"),
                        tau=math.pi, step_status="accepted"),
        ]
        path = tmp_path / "t.csv"
        emit_csv(trace, path)
        loaded = read_csv(path)
        assert len(loaded) == 2
        assert all(records_equal(a, b) for a, b in zip(trace, loaded))

    def test_empty_trace_refused(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,trace\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_a_row_with_the_wrong_field_count_is_rejected(self, tmp_path):
        path = tmp_path / "short_row.csv"
        emit_csv(_synthetic_trace([1.0, 0.5]), path)
        path.write_text(path.read_text() + "3,9,0.25\n")
        with pytest.raises(ValueError, match=r"malformed row '3,9,0\.25'"):
            read_csv(path)

    def test_records_equal_tells_nan_from_a_number_and_compares_every_field(self):
        record = _synthetic_trace([1.0])[0]._replace(C=math.nan)
        assert records_equal(record, record._replace(C=math.nan))
        assert not records_equal(record, record._replace(C=1.0))
        assert not records_equal(record, record._replace(f_current=2.0))
        assert not records_equal(record, record._replace(step_status="null"))


class TestPlot:
    def test_two_traces_two_curves_two_legend_entries(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot({"alpha": _synthetic_trace([4.0, 2.0]),
                   "beta": _synthetic_trace([3.0, 1.0])}, path)
        svg = path.read_text()
        assert svg.count("<polyline") == 2
        assert svg.count('class="legend"') == 2
        assert "alpha" in svg and "beta" in svg

    def test_log_axis_when_all_positive(self, tmp_path):
        path = tmp_path / "log.svg"
        emit_plot({"run": _synthetic_trace([1.0, 0.1, 0.01])}, path)
        assert "log scale" in path.read_text()

    def test_linear_axis_when_zero_present(self, tmp_path):
        path = tmp_path / "lin.svg"
        emit_plot({"run": _synthetic_trace([1.0, 0.0])}, path)
        assert "log scale" not in path.read_text()

    def test_single_point_trace_renders(self, tmp_path):
        path = tmp_path / "dot.svg"
        emit_plot({"run": _synthetic_trace([2.0])}, path)
        svg = path.read_text()
        assert "<circle" in svg and "<polyline" in svg

    def test_non_finite_values_are_left_out_of_the_axes_and_curves(self, tmp_path):
        cases = {
            "leading_nan": {"alpha": _best_values([math.nan, 4.0, 2.0]),
                            "beta": _best_values([math.nan, 3.0, 1.0])},
            "leading_inf": {"alpha": _best_values([math.inf, 4.0, 2.0]),
                            "beta": _best_values([3.0, 1.0])},
        }
        for name, traces in cases.items():
            path = tmp_path / f"{name}.svg"
            emit_plot(traces, path)
            svg = path.read_text()
            assert svg.count("<polyline") == 2
            assert svg.count('class="legend"') == 2
            assert "log scale" in svg
            assert all(math.isfinite(v) for v in _svg_numbers(svg))

    def test_a_trace_without_finite_values_keeps_only_its_legend_entry(self, tmp_path):
        path = tmp_path / "partial.svg"
        emit_plot({"lost": _best_values([math.nan, math.inf]),
                   "kept": _best_values([2.0, 0.0])}, path)
        svg = path.read_text()
        assert svg.count("<polyline") == 1
        assert svg.count('class="legend"') == 2
        assert "log scale" not in svg  # chosen from the drawn values only
        assert all(math.isfinite(v) for v in _svg_numbers(svg))

        path = tmp_path / "none.svg"
        emit_plot({"lost": _best_values([math.inf]), "nan": _best_values([math.nan])}, path)
        svg = path.read_text()
        assert "<polyline" not in svg and "<circle" not in svg
        assert svg.count('class="legend"') == 2
        assert all(math.isfinite(v) for v in _svg_numbers(svg))

    @pytest.mark.parametrize("value", [-5.0, -2.0**54, -1e20, -1.7976931348623157e308])
    def test_a_flat_linear_axis_has_width_at_any_magnitude(self, tmp_path, value):
        # one record of a run that stops at its start; from 2**53 up, the
        # value +-1 can round back to the value itself
        objective = Objective(dim=2, evaluator=lambda x: value)
        report = dfc_run(objective, GradScheme.FORWARD, DfcConfig(x1=np.zeros(2), budget=500))
        assert report.termination == "stationary" and len(report.trace) == 1
        path = tmp_path / "flat.svg"
        emit_plot({"run": report.trace}, path)
        svg = path.read_text()
        assert all(math.isfinite(v) for v in _svg_numbers(svg))
        ticks = re.findall(r'y="([^"]*)" font-size="11" text-anchor="end">([^<]*)<', svg)
        assert len({y for y, _ in ticks}) == 5  # five ticks at five heights
        if value == -5.0:  # +-1 where it moves the axis
            assert [label for _, label in ticks] == ["-6", "-5.5", "-5", "-4.5", "-4"]
        csv, svg_path = tmp_path / "flat.csv", tmp_path / "cli.svg"
        emit_csv(report.trace, csv)
        assert main(["plot", "--traces", str(csv), "--out", str(svg_path)]) == 0

    def test_no_traces_or_an_empty_trace_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="need at least one trace"):
            emit_plot({}, tmp_path / "none.svg")
        with pytest.raises(ValueError, match="trace 'run' is empty"):
            emit_plot({"kept": _synthetic_trace([1.0]), "run": []}, tmp_path / "empty.svg")
        assert not list(tmp_path.iterdir())

    def test_legend_labels_are_escaped(self, tmp_path):
        path = tmp_path / "odd.svg"
        emit_plot({"a<b>&c": _synthetic_trace([2.0, 1.0])}, path)
        legend = [node for node in minidom.parse(str(path)).getElementsByTagName("text")
                  if node.getAttribute("class") == "legend"]
        assert [node.firstChild.data for node in legend] == ["a<b>&c"]


class TestRateEstimate:
    def test_geometric_sequence_is_linear(self):
        trace = _synthetic_trace([0.5**k for k in range(1, 61)])
        est = estimate_rate(trace, 0.0)
        assert est.kind == "linear"
        assert est.factor == pytest.approx(0.5, abs=0.01)

    def test_power_law_is_sublinear(self):
        trace = _synthetic_trace([float(k) ** -2 for k in range(1, 61)])
        est = estimate_rate(trace, 0.0)
        assert est.kind == "sublinear"
        assert est.exponent == pytest.approx(-2.0, abs=0.1)

    def test_flat_tail_is_none(self):
        trace = _synthetic_trace([1.0 + 0.01 * ((-1) ** k) for k in range(40)])
        assert estimate_rate(trace, 0.0).kind == "none"

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_rate(_synthetic_trace([1.0] * 10), 0.0)
        # records at or below the target do not qualify
        with pytest.raises(InsufficientData):
            estimate_rate(_synthetic_trace([0.0] * 40), 0.0)

    def test_factor_and_exponent_only_for_their_own_kind(self):
        linear = estimate_rate(_synthetic_trace([0.5**k for k in range(1, 61)]), 0.0)
        sublinear = estimate_rate(_synthetic_trace([float(k) ** -2 for k in range(1, 61)]), 0.0)
        none = estimate_rate(_synthetic_trace([1.0 + 0.01 * ((-1) ** k) for k in range(40)]),
                             0.0)
        for est in (sublinear, none):
            with pytest.raises(ValueError, match="only defined for linear rates"):
                est.factor
        for est in (linear, none):
            with pytest.raises(ValueError, match="only defined for sublinear rates"):
                est.exponent

    def test_non_finite_records_do_not_qualify(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData):
                estimate_rate(_best_values([math.inf] * 40), 0.0)
            with pytest.raises(InsufficientData):
                estimate_rate(_best_values([math.inf] * 30 + [0.5**k for k in range(1, 11)]),
                              0.0)
            est = estimate_rate(_best_values([math.inf] * 30
                                             + [0.5**k for k in range(1, 41)]), 0.0)
        assert est.kind == "linear"
        assert est.factor == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("target", [-math.inf, math.inf, math.nan])
    def test_non_finite_target_is_rejected_before_any_fit(self, target):
        trace = _synthetic_trace([0.5**k for k in range(1, 41)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="target_value must be finite"):
                estimate_rate(trace, target)


class TestRunExperiment:
    def test_comparison_report_and_disk_ranking_agree(self, tmp_path):
        cfg = ExperimentConfig(
            family="least_squares", n=6, solvers=["dfc-cendif", "nelder-mead",
                                                  "imfil-fordif"],
            budget_multiplier=60, instance_seed=7, run_seed=1,
            output_dir=tmp_path,
        )
        report = run_experiment(cfg)
        assert set(report.reports) == {"dfc-cendif", "nelder-mead", "imfil-fordif"}
        assert report.results is report.reports
        paths = {sid: rep.trace_path for sid, rep in report.reports.items()}
        assert rank_trace_files(paths) == report.ranking
        for rep in report.reports.values():
            # identical budget for every solver; overshoot at most one call batch
            assert rep.evals <= cfg.budget + 2 * cfg.n
            evals = [r.evals for r in rep.trace]
            assert all(b > a for a, b in zip(evals, evals[1:]))
            fb = [r.f_best for r in rep.trace]
            assert all(b <= a for a, b in zip(fb, fb[1:]))
        manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert manifest["budget"] == 360
        assert "solvers" in manifest and "dfc-cendif" in manifest["solvers"]

    def test_report_json_bytes_are_pinned(self, tmp_path):
        # Rosenbrock evaluates without BLAS, so these bytes hold on every platform.
        run_experiment(ExperimentConfig(
            family="rosenbrock", n=5, solvers=[s for s in SOLVER_IDS if s != "rg"],
            noise_level=1e-4, budget_multiplier=30, output_dir=tmp_path))
        text = (tmp_path / "report.json").read_text().replace(str(tmp_path), "TMP")
        assert '"trace": "TMP/trace_nelder-mead.csv"' in text
        # each manifest.solvers entry is exactly its config's settings: no
        # solver name, scheme or label for a default
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9e86de881603977da51f7117c4f9323abbcfda1b5fa63b342486beaab5c983d6")

    @pytest.mark.parametrize("family", ["least_squares", "image_restoration"])
    def test_a_shared_instance_writes_the_bytes_of_a_fresh_one(self, tmp_path, family,
                                                              fresh_instances):
        # drawn, shared with the next experiment, then drawn again: every
        # solver reads the instance, rg its cached L too
        outputs = []
        for run in ("cold", "warm", "redrawn"):
            if run == "redrawn":
                problems._draw_seeded.cache_clear()
            out = tmp_path / run
            run_experiment(ExperimentConfig(family=family, n=4, solvers=SOLVER_IDS,
                                            noise_level=1e-3, budget_multiplier=15,
                                            instance_seed=7, output_dir=out))
            outputs.append({path.name: path.read_text().replace(str(out), "OUT")
                            for path in sorted(out.iterdir())})
        assert len(outputs[0]) == len(SOLVER_IDS) + 1
        assert outputs[0] == outputs[1] == outputs[2]

    def test_report_json_records_start_and_budget_once(self, tmp_path):
        x0 = [0.25, -0.5, 1.0]
        run_experiment(ExperimentConfig(
            family="least_squares", n=3, solvers=["dfb-fordif", "nelder-mead", "rg"],
            budget_multiplier=20, initial_point=x0, output_dir=tmp_path))
        manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert manifest["initial_point"] == x0 and manifest["budget"] == 60
        for sid, config in manifest["solvers"].items():
            assert "x1" not in config and "budget" not in config, sid

    @pytest.mark.parametrize("value", [None, -1, 1.5, True])
    @pytest.mark.parametrize("name", ["instance_seed", "run_seed"])
    def test_unrepeatable_seed_rejected(self, name, value):
        # None would draw A, b or the oracle seeds from OS entropy
        rule = "in \\(-1, inf\\)" if value == -1 else "an integer"
        with pytest.raises(ValidationError, match=f"{name} must be {rule}"):
            ExperimentConfig(family="least_squares", n=4, solvers=["dfc-fordif"],
                             **{name: value})

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_level_rejected(self, noise):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            ExperimentConfig(family="least_squares", n=4, solvers=["dfc-fordif"],
                             noise_level=noise)

    @pytest.mark.parametrize("noise", [True, False, "0.1", None, 1j])
    def test_a_noise_level_that_is_not_a_real_number_is_rejected(self, noise):
        # True used to run with noise 1.0, and "0.1" to fail with a TypeError
        with pytest.raises(ValidationError, match="finite and nonnegative, got"):
            ExperimentConfig(family="least_squares", n=4, solvers=["dfc-fordif"],
                             noise_level=noise)

    @pytest.mark.parametrize("noise", [np.float32(0.25), np.int64(1)])
    def test_a_numpy_noise_level_is_written_to_report_json(self, tmp_path, noise):
        # a numpy scalar used to run every solver, then fail json.dump halfway
        run_experiment(ExperimentConfig(family="least_squares", n=3, solvers=["dfc-fordif"],
                                        noise_level=noise, budget_multiplier=10,
                                        output_dir=tmp_path))
        manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert manifest["noise_level"] == float(noise)

    def test_a_string_of_solvers_is_rejected(self):
        # it used to be split into characters: "unknown solver id 'd'"
        with pytest.raises(ValidationError, match="solvers must be a list of solver ids, "
                                                  "not the string 'dfc-fordif'"):
            ExperimentConfig(family="least_squares", n=3, solvers="dfc-fordif")

    def test_zero_budget_multiplier_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(family="least_squares", n=4, solvers=["dfc-fordif"],
                             budget_multiplier=0)

    @pytest.mark.parametrize("name, value", [
        ("n", 2.5), ("n", True), ("m", 2.5), ("m", True), ("m", 0),
        ("budget_multiplier", 2.5), ("budget_multiplier", True), ("budget_multiplier", "3"),
    ])
    def test_non_integer_count_rejected(self, name, value):
        # budget_multiplier=2.5 used to run with a float budget, m=0 with f = 0
        # everywhere, and n=2.5 to fail inside the instance builder
        fields = {"n": 4, name: value}
        rule = "in \\(0, inf\\)" if value == 0 else "an integer"
        with pytest.raises(ValidationError, match=f"{name} must be {rule}"):
            ExperimentConfig(family="least_squares", solvers=["dfc-fordif"], **fields)

    @pytest.mark.parametrize("family, m, message", [
        ("rosenbrock", 4, "rosenbrock has no m; omit it"),
        ("rosenbrock", 50, "rosenbrock has no m; omit it"),
        ("image_restoration", 5, "image_restoration is square; m must equal n or be omitted"),
    ])
    def test_an_m_the_family_cannot_take_is_rejected(self, family, m, message):
        # these used to construct and fail only inside run_experiment
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExperimentConfig(family=family, n=4, m=m, solvers=["dfc-fordif"])

    def test_rosenbrock_needs_two_coordinates(self):
        # n = 1 used to construct and fail only inside run_experiment
        with pytest.raises(ValidationError, match=r"^n must be in \(1, inf\), got 1$"):
            ExperimentConfig(family="rosenbrock", n=1, solvers=["dfc-fordif"])
        assert ExperimentConfig(family="rosenbrock", n=2, solvers=["dfc-fordif"]).n == 2
        assert ExperimentConfig(family="least_squares", n=1, solvers=["dfc-fordif"]).n == 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError, match="^unknown problem family 'sphere'; known: "
                                                  "least_squares, image_restoration, rosenbrock$"):
            ExperimentConfig(family="sphere", n=4, solvers=["dfc-fordif"])

    def test_empty_solver_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one solver id"):
            ExperimentConfig(family="least_squares", n=4, solvers=[])

    @pytest.mark.parametrize("initial_point, message", [
        ("ones", "unknown initial point preset 'ones'"),
        ("zeroes", "unknown initial point preset 'zeroes'"),
        ([0.5, 0.5], r"initial point has shape \(2,\), expected \(3,\)"),
    ])
    def test_a_bad_initial_point_fails_before_any_solver_runs(self, initial_point, message):
        # these used to construct and fail only inside run_experiment, after the draw
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(family="least_squares", n=3, solvers=["dfc-fordif"],
                             initial_point=initial_point)

    @pytest.mark.parametrize("solver_id", [s for s in SOLVER_IDS if s != "rg"])
    def test_a_budget_too_small_to_record_is_one_error_for_every_solver(self, tmp_path,
                                                                        solver_id):
        # budget n = 3 covers no iteration of these solvers (rg's takes two
        # evaluations after x1, so it records one)
        with pytest.raises(ValidationError,
                           match=f"^{solver_id}: budget 3 too small to record any iteration$"):
            run_experiment(ExperimentConfig(family="least_squares", n=3,
                                            solvers=["rg", solver_id], budget_multiplier=1,
                                            output_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_a_square_m_is_accepted_for_image_restoration(self):
        assert ExperimentConfig(family="image_restoration", n=4, m=4,
                                solvers=["dfc-fordif"]).m == 4

    def test_numpy_integers_are_recorded_as_json_integers(self, tmp_path):
        run_experiment(ExperimentConfig(
            family="least_squares", n=np.int64(3), m=np.int32(4), solvers=["dfc-fordif"],
            budget_multiplier=np.int64(5), instance_seed=np.uint8(2),
            run_seed=np.int64(1), output_dir=tmp_path))
        manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert manifest["problem"] == {"family": "least_squares", "n": 3, "m": 4,
                                       "instance_seed": 2}
        assert (manifest["budget"], manifest["run_seed"]) == (15, 1)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(family="least_squares", n=4, solvers=["bfgs"])

    def test_duplicate_solver_id_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            ExperimentConfig(family="least_squares", n=4,
                             solvers=["dfc-fordif", ("dfc-fordif", {"kappa": 0.1})])

    @pytest.mark.parametrize("key", ["bogus", "armijo", "x1"])
    def test_unknown_override_key_rejected_before_any_solver_runs(self, key):
        # "armijo" belongs to implicit filtering, not to Nelder-Mead, and x1 is
        # the experiment's; run_solver applies the same rule, before evaluating
        with pytest.raises(ValidationError, match="valid: coefficients$"):
            ExperimentConfig(family="least_squares", n=4,
                             solvers=["dfc-fordif", ("nelder-mead", {key: 5.0})])
        calls = []
        objective = Objective(dim=2, evaluator=lambda x: calls.append(x) or 0.0)
        with pytest.raises(ValidationError, match="^nelder-mead: unknown override keys "
                                                  f"{key}; valid: coefficients$"):
            run_solver("nelder-mead", SimpleNamespace(objective=objective), 10, 0.0, 0,
                       np.zeros(2), {key: 5.0})
        assert calls == []

    @pytest.mark.parametrize("solver_id", SOLVER_IDS)
    def test_an_override_reaches_the_report_config(self, tmp_path, solver_id):
        key, value = ONE_OVERRIDE[solver_id]
        run_experiment(ExperimentConfig(family="least_squares", n=3,
                                        solvers=[(solver_id, {key: value})],
                                        budget_multiplier=20, output_dir=tmp_path))
        manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert manifest["solvers"][solver_id][key] == value

    @pytest.mark.parametrize("configured", [False, True], ids=["defaults", "override"])
    @pytest.mark.parametrize("solver_id", SOLVER_IDS)
    def test_a_recorded_run_is_rebuilt_from_its_id_and_config(self, tmp_path, solver_id,
                                                              configured):
        # the id and config a report records are run_solver's arguments, as
        # report.json holds them
        inst = problems.random_instance("least_squares", 5, m=7, seed=2)
        x0 = np.full(5, 0.5)
        overrides = dict([ONE_OVERRIDE[solver_id]]) if configured else {}
        first = run_solver(solver_id, inst, 120, 1e-3, 9, x0, overrides)
        again = run_solver(first.solver_id, inst, 120, 1e-3, 9, x0,
                           json.loads(json.dumps(first.config)))
        emit_csv(first.trace, tmp_path / "first.csv")
        emit_csv(again.trace, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
        assert again.config == first.config and again.solver_id == solver_id

    def test_a_direct_run_reports_its_registered_id(self):
        # run_solver no longer renames a report: each run function names its solver
        obj = problems.random_instance("least_squares", 3, seed=1).objective
        x0 = np.full(3, 0.5)
        reports = [nelder_mead_run(obj, NelderMeadConfig(x1=x0, budget=20)),
                   rg_run(obj, RgConfig(x1=x0, budget=20))]
        for scheme in GradScheme:
            reports += [dfc_run(obj, scheme, DfcConfig(x1=x0, budget=20)),
                        dfb_run(obj, scheme, DfbConfig(x1=x0, budget=20)),
                        imfil_run(obj, scheme, ImfilConfig(x1=x0, budget=20))]
            gdf = gdf_run(obj, scheme, GdfConfig(x1=x0, budget=20))
            assert gdf.solver_id == f"gdf-{scheme.suffix}"
        assert sorted(r.solver_id for r in reports) == sorted(SOLVER_IDS)

    def test_rg_on_rosenbrock_rejected_for_missing_constant(self, tmp_path):
        cfg = ExperimentConfig(family="rosenbrock", n=4, solvers=["rg"],
                               budget_multiplier=10, output_dir=tmp_path)
        with pytest.raises(ValidationError):
            run_experiment(cfg)

    def test_only_rg_computes_the_lipschitz_constant(self, tmp_path, monkeypatch,
                                                     fresh_instances):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda M: calls.append(M.shape) or eigvalsh(M))
        solvers = [sid for sid in SOLVER_IDS if sid != "rg"]
        run_experiment(ExperimentConfig(family="least_squares", n=4, solvers=solvers,
                                        budget_multiplier=10, output_dir=tmp_path))
        assert calls == []
        run_experiment(ExperimentConfig(family="least_squares", n=4,
                                        solvers=solvers + ["rg"], budget_multiplier=10,
                                        output_dir=tmp_path))
        assert calls == [(4, 4)]

    def test_rosenbrock_both_presets(self, tmp_path):
        for preset in ("zeros", "halves"):
            out = tmp_path / preset
            cfg = ExperimentConfig(family="rosenbrock", n=2,
                                   solvers=["dfb-fordif", "nelder-mead"],
                                   budget_multiplier=100, run_seed=3,
                                   initial_point=preset, output_dir=out)
            report = run_experiment(cfg)
            assert (out / "report.json").exists()
            assert len(report.ranking) == 2
            for sid, final in report.ranking:
                assert final == report.reports[sid].final_f_best

    def test_noise_makes_runs_reproducible_per_seed(self, tmp_path):
        cfg = dict(family="image_restoration", n=5, solvers=["dfc-fordif"],
                   budget_multiplier=40, noise_level=1e-4, instance_seed=2,
                   run_seed=9)
        r1 = run_experiment(ExperimentConfig(**cfg, output_dir=tmp_path / "a"))
        r2 = run_experiment(ExperimentConfig(**cfg, output_dir=tmp_path / "b"))
        assert r1.ranking == r2.ranking
        t1 = (tmp_path / "a" / "trace_dfc-fordif.csv").read_bytes()
        t2 = (tmp_path / "b" / "trace_dfc-fordif.csv").read_bytes()
        assert t1 == t2


class TestCli:
    def test_run_plot_rate_pipeline(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["run", "--problem", "leastsquares", "--n", "6",
                   "--noise", "0", "--solver", "dfc-cendif,nelder-mead",
                   "--budget-mult", "80", "--seed", "4", "--x0", "zeros",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "report.json").exists()
        trace = out / "trace_dfc-cendif.csv"
        svg = tmp_path / "fig.svg"
        assert main(["plot", "--traces", str(trace), "--out", str(svg)]) == 0
        assert svg.exists()
        rc = main(["rate", "--trace", str(trace), "--target", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "rate:" in captured.out

    def test_exit_codes(self, tmp_path):
        # validation problems -> 1
        assert main(["run", "--problem", "leastsquares", "--n", "4",
                     "--solver", "nosuch", "--out", str(tmp_path)]) == 1
        assert main(["run", "--problem", "leastsquares"]) == 1  # missing flags
        assert main(["run", "--problem", "leastsquares", "--n", "4", "--solver",
                     "dfc-fordif,dfc-fordif", "--out", str(tmp_path / "dup")]) == 1
        assert not (tmp_path / "dup").exists()
        assert main(["nosuchcommand"]) == 1
        # i/o problems -> 2
        assert main(["plot", "--traces", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "o.svg")]) == 2
        # rate on too-short trace -> 1
        short = tmp_path / "short.csv"
        emit_csv(_synthetic_trace([1.0, 0.5]), short)
        assert main(["rate", "--trace", str(short), "--target", "0"]) == 1

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_non_finite_noise_is_a_validation_error(self, tmp_path, capsys, noise):
        out = tmp_path / "o"
        assert main(["run", "--problem", "leastsquares", "--n", "3", f"--noise={noise}",
                     "--solver", "dfc-fordif", "--out", str(out)]) == 1
        assert "noise level must be finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_rosenbrock_with_an_m_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--problem", "rosenbrock", "--n", "3", "--m", "50",
                     "--solver", "dfc-fordif", "--out", str(out)]) == 1
        assert "rosenbrock has no m" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_unknown_x0_names_the_presets_and_the_file_option(self, tmp_path, capsys):
        assert main(["run", "--problem", "rosenbrock", "--n", "3", "--solver",
                     "dfc-fordif", "--x0", "ones", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "'zeros', 'halves', or a file" in err and "'ones'" in err

    def test_rate_on_an_all_infinite_trace_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        emit_csv(_best_values([math.inf] * 40), path)
        assert main(["rate", "--trace", str(path), "--target", "0"]) == 1
        captured = capsys.readouterr()
        assert "r2=" not in captured.out
        assert "records above the target" in captured.err

    def test_rate_against_a_non_finite_target_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "geo.csv"
        emit_csv(_synthetic_trace([0.5**k for k in range(1, 41)]), path)
        assert main(["rate", "--trace", str(path), "--target=-inf"]) == 1
        captured = capsys.readouterr()
        assert "rate:" not in captured.out
        assert "target_value must be finite" in captured.err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# experiment recipe\n"
            "problem = leastsquares\n"
            "n = 5\n"
            "solver = dfc-fordif\n"
            "budget_mult = 40\n"
            "seed = 2\n"
            f"out = {tmp_path / 'from_file'}\n"
        )
        assert parse_config_file(cfg_file)["n"] == "5"
        rc = main(["run", "--config", str(cfg_file), "--out",
                   str(tmp_path / "overridden")])
        assert rc == 0
        assert (tmp_path / "overridden" / "report.json").exists()
        assert not (tmp_path / "from_file").exists()

    def test_config_file_unknown_problem_rejected(self, tmp_path, capsys):
        # --problem has argparse choices; a config file's value is checked in _cmd_run
        bad = tmp_path / "bad.cfg"
        bad.write_text("problem = nosuch\nn = 3\nsolver = dfc-fordif\n"
                       f"out = {tmp_path / 'o'}\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "unknown problem 'nosuch'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_line_without_equals_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("# recipe\nproblem leastsquares\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert f"{bad}:2: expected 'key = value'" in capsys.readouterr().err

    def test_plot_without_trace_files_is_a_validation_error(self, tmp_path, capsys):
        svg = tmp_path / "o.svg"
        assert main(["plot", "--traces", " , ", "--out", str(svg)]) == 1
        assert "no trace files given" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("values, line", [
        ([float(k) ** -2 for k in range(1, 61)], "rate: sublinear (exponent -2"),
        ([1.0 + 0.01 * ((-1) ** k) for k in range(40)], "rate: none (no tight fit, r2="),
    ], ids=["sublinear", "none"])
    def test_rate_prints_each_kind(self, tmp_path, capsys, values, line):
        path = tmp_path / "t.csv"
        emit_csv(_synthetic_trace(values), path)
        assert main(["rate", "--trace", str(path), "--target", "0"]) == 0
        assert capsys.readouterr().out.startswith(line)

    def test_an_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing_run(cfg):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "run_experiment", failing_run)
        assert main(["run", "--problem", "leastsquares", "--n", "3", "--solver",
                     "dfc-fordif", "--out", str(tmp_path / "o")]) == 3
        assert "internal error: solver blew up" in capsys.readouterr().err

    def test_config_file_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("frobnicate = 1\n")
        assert main(["run", "--config", str(bad)]) == 1

    def test_x0_from_file(self, tmp_path):
        x0 = tmp_path / "x0.txt"
        x0.write_text("0.5, 0.5, 0.5\n")
        rc = main(["run", "--problem", "imagerestore", "--n", "3",
                   "--solver", "dfb-cendif", "--budget-mult", "50",
                   "--x0", str(x0), "--out", str(tmp_path / "o")])
        assert rc == 0
