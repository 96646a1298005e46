import hashlib
import json
import math
import re
import warnings
from xml.dom import minidom

import pytest

from adafd import (
    ExperimentConfig,
    InsufficientData,
    TraceRecord,
    ValidationError,
    emit_csv,
    emit_plot,
    estimate_rate,
    rank_trace_files,
    read_csv,
    run_experiment,
)
from adafd import problems
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
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7cf2028f86dd30178e5b461d3fbb8496a345f31b73ce01da645253e7f0327ee2")

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_level_rejected(self, noise):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            ExperimentConfig(family="least_squares", n=4, solvers=["dfc-fordif"],
                             noise_level=noise)

    def test_zero_budget_multiplier_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(family="least_squares", n=4, solvers=["dfc-fordif"],
                             budget_multiplier=0)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(family="least_squares", n=4, solvers=["bfgs"])

    def test_duplicate_solver_id_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            ExperimentConfig(family="least_squares", n=4,
                             solvers=["dfc-fordif", ("dfc-fordif", {"kappa": 0.1})])

    @pytest.mark.parametrize("key", ["bogus", "armijo"])
    def test_unknown_override_key_rejected_before_any_solver_runs(self, key):
        # "armijo" belongs to implicit filtering, not to Nelder-Mead
        with pytest.raises(ValidationError, match="valid: coefficients$"):
            ExperimentConfig(family="least_squares", n=4,
                             solvers=["dfc-fordif", ("nelder-mead", {key: 5.0})])

    @pytest.mark.parametrize("solver_id", SOLVER_IDS)
    def test_an_override_reaches_the_report_config(self, tmp_path, solver_id):
        key, value = ONE_OVERRIDE[solver_id]
        run_experiment(ExperimentConfig(family="least_squares", n=3,
                                        solvers=[(solver_id, {key: value})],
                                        budget_multiplier=20, output_dir=tmp_path))
        manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert manifest["solvers"][solver_id][key] == value

    def test_rg_on_rosenbrock_rejected_for_missing_constant(self, tmp_path):
        cfg = ExperimentConfig(family="rosenbrock", n=4, solvers=["rg"],
                               budget_multiplier=10, output_dir=tmp_path)
        with pytest.raises(ValidationError):
            run_experiment(cfg)

    def test_only_rg_computes_the_lipschitz_constant(self, tmp_path, monkeypatch):
        calls = []
        norm = problems.spectral_norm
        monkeypatch.setattr(problems, "spectral_norm",
                            lambda M: calls.append(M.shape) or norm(M))
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
