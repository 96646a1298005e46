"""Benchmark of ``adafd.run_experiment``: wall time per oracle evaluation.

A closed loop: one process runs the workload's experiment list back to back,
each repetition after the previous one completes, with BLAS pinned to one
thread. Solver traces go to a temporary directory inside the checkout. Every
solver run is checked (see ``checks.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and ``.perfbench_out/`` receives the same with host facts and
every sample.

    python3 perfbench/run.py --workload fd-solvers --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --trace 1      # every workload, per-layer metrics
    python3 perfbench/run.py --smoke        # every workload at n=5, a few seconds

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of cold
set-ups in fresh interpreters, spread evenly over the run), ``wall_s`` (see
``best_wall``), ``evals_per_s`` (evaluations of one repetition over
``wall_s``) and ``peak_rss_mb`` (of this process so far). ``--trace 1``
alternates untraced repetitions with repetitions under span wrappers
(``spans.py``) and reports self time and counts per module from the fastest
traced one, ``unattributed_s`` and ``trace_overhead_frac``; the spans are
written to ``.perfbench_out/``.
``--smoke`` runs one repetition of each mode; its numbers are not a gate.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: Cold set-ups timed per run, one at each tenth of it, so that they spread
#: over the whole run like the repetitions do; setup_s is their median.
SETUP_PROBES = 10


def import_adafd():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "adafd" / "__init__.py").is_file():
        sys.exit(f"no adafd sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import adafd

    if Path(adafd.__file__).resolve().parent != (SRC / "adafd").resolve():
        sys.exit(f"imported adafd from {adafd.__file__}, not from {SRC}")
    return adafd


def blas_runtime():
    """(thread count, configuration string) reported by the loaded OpenBLAS."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        return threads(), config().decode()
    return None, None


def host_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": config,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": threads,
    }


def measure_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds of one cold set-up, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
         str(seed), "1" if smoke else "0"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(probe["adafd"]).resolve().parent != (SRC / "adafd").resolve():
        sys.exit(f"set-up probe imported adafd from {probe['adafd']}")
    return probe["setup_s"]


class Workload:
    """One workload at one seed: runs repetitions and checks every solver run."""

    def __init__(self, adafd, name: str, seed: int, smoke: bool, tmp_root: Path):
        self.adafd = adafd
        self.name = name
        self.smoke = smoke
        self.exps = workloads.experiments(name, smoke)
        self.seed = seed
        self.tmp_root = tmp_root
        self.reference = checks.load_reference(name, seed, smoke)
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0

    def repetition(self, tracer=None) -> dict:
        """Run the experiment list once, then check it.

        The wall time covers the ``run_experiment`` calls only; ``tracer``, if
        given, is installed around exactly those calls.
        """
        out = Path(tempfile.mkdtemp(dir=self.tmp_root))
        try:
            cfgs = [
                self.adafd.ExperimentConfig(
                    **{**e, "initial_point": workloads.initial_point(
                        e.get("initial_point", "zeros"), e["n"])},
                    instance_seed=self.seed, run_seed=self.seed,
                    output_dir=out / str(i))
                for i, e in enumerate(self.exps)
            ]
            if tracer is not None:
                tracer.install()
            try:
                results, walls = [], []
                for cfg in cfgs:
                    t0 = time.perf_counter()
                    results.append(self.adafd.run_experiment(cfg))
                    walls.append(time.perf_counter() - t0)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            exp_evals = self._check(cfgs, results)
        finally:
            shutil.rmtree(out)
        return {"wall_s": sum(walls), "exp_walls": walls, "exp_evals": exp_evals,
                "evals": sum(exp_evals)}

    def _check(self, cfgs, results) -> list:
        """Check every solver run; return the evaluations of each experiment."""
        exp_evals = []
        for i, (cfg, comparison) in enumerate(zip(cfgs, results)):
            exp_evals.append(0)
            for sid, report in comparison.reports.items():
                key = f"{i}/{sid}"
                problems = checks.check_run(
                    self.adafd, key, report, comparison.results[sid], cfg.n,
                    cfg.budget, self.first, self.reference)
                self.attempted += 1
                exp_evals[-1] += report.evals
                if problems:
                    self.failed += 1
                    print(f"FAILED {key}: " + "; ".join(problems), file=sys.stderr)
        return exp_evals

    def label(self, i: int) -> str:
        e = self.exps[i]
        return f"{i}/{'+'.join(e['solvers'])}/{e['family']}/n={e['n']}"


def repeat(run, seconds: float) -> list:
    """Repeat ``run`` (at least once) while one more still fits in ``seconds``."""
    reps = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(run())
        cost = time.perf_counter() - t0
        if time.perf_counter() - t_start + cost > seconds:
            return reps


def best_wall(reps: list) -> float:
    """Wall time of the experiment list: the sum of each experiment's fastest run.

    The work of a repetition is fixed by the seed, and a shared host only ever
    adds time to it: its neighbours switch it between a fast and a slow state
    (up to 1.7x) many times a minute, in a mix that drifts from minute to
    minute. The median of a run follows that mix; the fastest of many
    sub-second calls moves far less with it.
    """
    return sum(min(col) for col in zip(*(r["exp_walls"] for r in reps)))


def end_to_end(wl: Workload, seconds: float):
    """End-to-end metrics, and the fastest time of each experiment (not a gate)."""
    setup_times = []
    t_start = time.perf_counter()

    def step():
        if time.perf_counter() - t_start >= len(setup_times) * seconds / SETUP_PROBES:
            setup_times.append(measure_setup(wl.name, wl.seed, wl.smoke))
        return wl.repetition()

    reps = repeat(step, seconds)
    wall = best_wall(reps)
    evals = reps[0]["evals"]  # equal in every repetition, as checked
    calls = []
    for i, e in enumerate(reps[0]["exp_evals"]):
        best = min(r["exp_walls"][i] for r in reps)
        calls.append({"experiment": wl.label(i), "best_s": best, "evals": e,
                      "us_per_eval": 1e6 * best / e})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", setup_times),
        "wall_s": (wall, "s", [r["wall_s"] for r in reps]),
        "evals_per_s": (evals / wall, "1/s", [r["evals"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": (peak_rss_mb, "MB", [peak_rss_mb]),
    }
    return metrics, calls


def per_layer(wl: Workload, seconds: float, spans_path: Path):
    """Alternate untraced and traced repetitions; layers come from the fastest traced one.

    Alternating keeps slow drifts in machine speed out of the overhead
    estimate, which compares ``best_wall`` of the two kinds.
    """
    untraced, traced = [], []
    fastest = {}

    def pair():
        untraced.append(wl.repetition())
        tracer = spans.Tracer()
        traced.append(wl.repetition(tracer))
        if traced[-1]["wall_s"] < fastest.get("wall_s", float("inf")):
            fastest.update(tracer=tracer, wall_s=traced[-1]["wall_s"])

    repeat(pair, seconds)
    fastest["tracer"].save(spans_path)
    metrics = {name: (value, unit, [value]) for name, (value, unit)
               in fastest["tracer"].layer_metrics(fastest["wall_s"]).items()}
    traced_walls = [r["wall_s"] for r in traced]
    metrics["traced_wall_s"] = (fastest["wall_s"], "s", traced_walls)
    metrics["trace_overhead_frac"] = (best_wall(traced) / best_wall(untraced) - 1.0,
                                      "frac", traced_walls)
    return metrics, []


def print_metrics(metrics: dict, prefix: str = "") -> None:
    for name, (value, unit, samples) in metrics.items():
        note = f"  ({len(samples)} samples)" if len(samples) > 1 else ""
        print(f"{prefix}{name:<42} {value:>16.6g} {unit}{note}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def run_workloads(adafd, names, args, modes, tmp_root: Path, host: dict) -> int:
    """Measure each named workload in each trace mode and print the results.

    With one workload the metrics keep their names; with several, each name
    is prefixed by its workload's.
    """
    print(f"# host {json.dumps(host)}")
    attempted = failed = 0
    combined = {}
    for name in names:
        wl = Workload(adafd, name, args.seed, args.smoke, tmp_root)
        stem = f"{name}-seed{args.seed}" + ("-smoke" if args.smoke else "")
        metrics, calls = {}, []
        for trace in modes:
            m, c = (per_layer(wl, args.seconds, OUT_DIR / f"{stem}-spans.npz")
                    if trace else end_to_end(wl, args.seconds))
            metrics.update(m)
            calls += c
        print(f"# workload {name} seed {args.seed} trace {'+'.join(map(str, modes))}"
              + (" smoke" if args.smoke else ""))
        for c in calls:
            print(f"# fastest {c['experiment']:<44} {c['best_s']:.4f} s"
                  f"  {c['evals']} evals  {c['us_per_eval']:.2f} us/eval")
        print_metrics(metrics)
        print(f"{'failed_frac':<42} {wl.failed / wl.attempted:>16.6g} frac"
              f"  ({wl.failed} of {wl.attempted} solver runs)")
        with open(OUT_DIR / f"{stem}-trace{''.join(map(str, modes))}.json", "w") as fh:
            json.dump({"host": host, "workload": name, "seed": args.seed,
                       "attempted": wl.attempted, "failed": wl.failed, "calls": calls,
                       "metrics": {k: {"value": m[0], "unit": m[1], "samples": m[2]}
                                   for k, m in metrics.items()}},
                      fh, indent=1)
        attempted += wl.attempted
        failed += wl.failed
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: m for k, m in metrics.items()})
    print(result_line(failed == 0, attempted, failed, combined))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *sorted(workloads.WORKLOADS)])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n=5, one repetition, untraced and traced; not a gate")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.smoke else (args.trace,)
    if args.smoke:
        args.seconds = 0.0

    adafd = import_adafd()
    host = host_facts()
    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        return run_workloads(adafd, names, args, modes, tmp_root, host)
    finally:
        shutil.rmtree(tmp_root)


if __name__ == "__main__":
    sys.exit(main())
