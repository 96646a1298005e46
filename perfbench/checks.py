"""Correctness checks applied to every solver run the benchmark makes.

A run passes when:

* its counted evaluations equal its declared evaluations;
* it overshoots the budget by less than one oracle call (a full stencil for
  the finite-difference solvers, one evaluation for Nelder-Mead);
* its trace read back from CSV equals the in-memory trace;
* it matches the run made earlier in the same process with the same seed
  exactly (equal seeds give bitwise-equal runs);
* where ``reference.json`` holds an entry for the workload and seed, its
  evaluations, iteration count and step-status sequence match exactly and
  its ``best_f`` matches to 1e-12 relative.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
BEST_F_RTOL = 1e-12


def largest_call(solver_id: str, n: int) -> int:
    """Evaluations in the solver's largest single oracle call."""
    if solver_id.endswith("-fordif"):
        return n + 1
    if solver_id.endswith("-cendif"):
        return 2 * n
    return 1


def summarize(report) -> dict:
    """The facts of one solver run that the reference pins."""
    statuses = "\n".join(rec.step_status for rec in report.trace)
    return {
        "evals": report.evals,
        "iters": report.trace[-1].iter,
        "statuses_sha256": hashlib.sha256(statuses.encode()).hexdigest(),
        "best_f": report.best_f,
    }


def reference_key(workload: str, smoke: bool) -> str:
    return f"{workload}@smoke" if smoke else workload


def load_reference(workload: str, seed: int, smoke: bool) -> dict:
    """Stored summaries keyed "<experiment index>/<solver id>", or {}."""
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)
    return table.get(reference_key(workload, smoke), {}).get(str(seed), {})


def _matches_reference(got: dict, ref: dict) -> list:
    problems = [f"{key} {got[key]!r} != reference {ref[key]!r}"
                for key in ("evals", "iters", "statuses_sha256") if got[key] != ref[key]]
    scale = max(abs(ref["best_f"]), 1e-300)
    if abs(got["best_f"] - ref["best_f"]) > BEST_F_RTOL * scale:
        problems.append(f"best_f {got['best_f']!r} != reference {ref['best_f']!r}")
    return problems


def check_run(adafd, key: str, report, result, n: int, budget: int,
              first: dict, reference: dict) -> list:
    """Every failed check of one solver run, as text; empty when it passes.

    ``first`` maps run keys to the summary of the first repetition in this
    process and is filled in on first sight.
    """
    problems = []
    if report.evals != report.declared_evals:
        problems.append(f"evals {report.evals} != declared {report.declared_evals}")
    overshoot = report.evals - budget
    if overshoot >= largest_call(report.solver_id, n):
        problems.append(f"overshoot {overshoot} reaches a whole oracle call")
    on_disk = adafd.read_csv(result.trace_path)
    if len(on_disk) != len(report.trace) or not all(
            adafd.trace.records_equal(a, b) for a, b in zip(on_disk, report.trace)):
        problems.append("trace read back from CSV differs from the in-memory trace")
    got = summarize(report)
    if first.setdefault(key, got) != got:
        problems.append(f"differs from the first repetition: {got} != {first[key]}")
    if key in reference:
        problems.extend(_matches_reference(got, reference[key]))
    return problems
