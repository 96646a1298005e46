"""Workload definitions: each workload is a list of ``run_experiment`` calls.

Every experiment runs one solver, with a budget small enough that the call
takes about a tenth of a second: on a shared host the fastest of many short
calls is the only estimate of a call's time that the neighbours' slow spells
do not move (see ``run.py``). Least squares at n=400 costs about twice as
much per evaluation as the other families, so it gets ``10 n`` evaluations
where they get ``25 n``. The workload seed becomes both ``instance_seed`` and
``run_seed``. Experiments are plain dicts of ``ExperimentConfig`` keywords so
that this module imports nothing from the package under test.
"""


def _runs(solvers, budget_multiplier, **problem):
    return [dict(problem, solvers=[sid], budget_multiplier=budget_multiplier)
            for sid in solvers]


WORKLOADS = {
    # Every finite-difference solver. Least squares at n=400: the matrix-vector
    # product is most of its time, forward and central stencils both run and
    # the step rules cost almost nothing. Rosenbrock: an O(n) evaluator, so
    # per-call overhead in problems/oracle/gradapprox dominates; the n=100
    # start at the minimizer is the noise-floor regime (mostly null DFB steps,
    # long linesearches, shrinking interval searches), and implicit filtering
    # is the fixed-schedule contrast case.
    "fd-solvers": [
        *_runs(["dfc-fordif", "dfb-cendif"], 10,
               family="least_squares", n=400, noise_level=1e-4),
        *_runs(["dfc-fordif", "dfb-cendif", "imfil-fordif"], 25,
               family="rosenbrock", n=400, noise_level=1e-4),
        *_runs(["dfb-fordif", "dfc-cendif"], 25,
               family="rosenbrock", n=100, noise_level=1e-4, initial_point="ones"),
    ],
    # Nelder-Mead bypasses gradapprox and uses the exact (noise-free) oracle
    # path; simplex bookkeeping and trace CSV IO dominate.
    "simplex-nm": [
        run
        for family in ("least_squares", "image_restoration", "rosenbrock")
        for run in _runs(["nelder-mead"], 25, family=family, n=100, noise_level=0.0)
    ],
}

#: Dimension every experiment is shrunk to in smoke mode.
SMOKE_N = 5


def experiments(workload: str, smoke: bool = False) -> list:
    """The workload's experiment dicts, with dimensions shrunk in smoke mode."""
    exps = [dict(e) for e in WORKLOADS[workload]]
    if smoke:
        for e in exps:
            e["n"] = SMOKE_N
    return exps


def initial_point(spec, n: int):
    """Resolve the "ones" preset (the Rosenbrock minimizer) to a list."""
    return [1.0] * n if spec == "ones" else spec
