"""Span recording around the package's public functions, for the traced run.

``Tracer.install`` swaps timing wrappers into every ``adafd`` module namespace
that holds one of the traced functions, and into ``Oracle.evaluate``;
``Tracer.uninstall`` puts the originals back. The untraced run never installs
anything, so it calls the library unmodified.

Spans live in flat in-memory arrays (name id, start, end, parent index) and
are written out once, after the run. A span's self time is its duration minus
the durations of its direct children; children never outlive their parent,
so self times over all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: Traced functions as (module, attribute); the span name is "module.attribute".
TRACED = (
    ("harness", "run_experiment"),
    ("problems", "build_instance"),
    ("gradapprox", "forward_diff"),
    ("gradapprox", "central_diff"),
    ("gradapprox", "adaptive_gradient"),
    ("dfc", "dfc_run"),
    ("dfc", "dfc_step"),
    ("dfb", "dfb_run"),
    ("dfb", "dfb_step"),
    ("dfb", "backtrack"),
    ("baselines", "nelder_mead_run"),
    ("baselines", "imfil_run"),
    ("trace", "emit_csv"),
    ("trace", "read_csv"),
)
EVALUATOR = "problems.evaluator"
ORACLE = "oracle.evaluate"
STENCILS = ("gradapprox.forward_diff", "gradapprox.central_diff")


class Tracer:
    """Records nested spans and a few outcome counts while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(result, args)
            return result

        return traced

    def _wrap_build(self, build):
        """Wrap ``build`` so that each instance it returns has a traced evaluator."""

        def traced_build(*args, **kwargs):
            instance = build(*args, **kwargs)
            objective = instance.objective
            evaluator = self._wrap(EVALUATOR, objective.evaluator)
            return dataclasses.replace(
                instance, objective=dataclasses.replace(objective, evaluator=evaluator))

        return traced_build

    # -- outcome counters, read from return values -------------------------

    def _after_search(self, res, args):
        self.counts["search_exhausted"] += bool(res.exhausted)

    def _after_dfc_step(self, state, args):
        self.counts["dfc." + state.last_step] += 1

    def _after_dfb_step(self, state, args):
        self.counts["dfb." + state.last_step] += 1

    def _after_nelder_mead(self, report, args):
        statuses = [rec.step_status for rec in report.trace[1:]]
        self.counts["nm.iterations"] += len(statuses)
        self.counts["nm.shrinks"] += statuses.count("shrink")

    def _after_emit(self, _, args):
        trace, path = args[0], args[1]
        self.counts["trace.rows"] += len(trace)
        self.counts["trace.bytes"] += os.path.getsize(path)

    def _after_experiment(self, _, args):
        report = Path(args[0].output_dir) / "report.json"
        self.counts["report_bytes"] += os.path.getsize(report)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "gradapprox.adaptive_gradient": self._after_search,
            "dfc.dfc_step": self._after_dfc_step,
            "dfb.dfb_step": self._after_dfb_step,
            "baselines.nelder_mead_run": self._after_nelder_mead,
            "trace.emit_csv": self._after_emit,
            "harness.run_experiment": self._after_experiment,
        }
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "adafd" or key.startswith("adafd."))]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            original = getattr(sys.modules[f"adafd.{mod_name}"], attr)
            wrapper = self._wrap(name, original, after.get(name))
            if name == "problems.build_instance":
                wrapper = self._wrap_build(wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        oracle_cls = sys.modules["adafd.oracle"].Oracle
        self._patches.append((oracle_cls, "evaluate", oracle_cls.evaluate))
        oracle_cls.evaluate = self._wrap(ORACLE, oracle_cls.evaluate)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64),
                np.array(self.parent, dtype=np.int64))

    def save(self, path):
        """Write every span to an uncompressed ``.npz`` of flat arrays."""
        name_id, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, start=start,
                 end=end, parent=parent)

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer counts and self times, plus the unattributed remainder."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        n_names = len(self.names)
        calls = np.bincount(name_id, minlength=n_names)
        total_by = np.bincount(name_id, weights=dur, minlength=n_names)
        self_by = np.bincount(name_id, weights=self_time, minlength=n_names)
        parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)

        def nid(name):
            return self._ids.get(name, -1)

        def n_calls(*names):
            return int(sum(calls[nid(n)] for n in names if nid(n) >= 0))

        def self_s(*names):
            return float(sum(self_by[nid(n)] for n in names if nid(n) >= 0))

        def total_s(name):
            return float(total_by[nid(name)]) if nid(name) >= 0 else 0.0

        def calls_under(child, parent_name_):
            if nid(child) < 0 or nid(parent_name_) < 0:
                return 0
            return int(np.count_nonzero((name_id == nid(child))
                                        & (parent_name == nid(parent_name_))))

        def ratio(num, den):
            return float(num) / den if den else 0.0

        c = self.counts
        evaluator_calls = n_calls(EVALUATOR)
        oracle_calls = n_calls(ORACLE)
        search_calls = n_calls("gradapprox.adaptive_gradient")
        stencils_in_search = sum(calls_under(s, "gradapprox.adaptive_gradient")
                                 for s in STENCILS)
        dfc_steps = n_calls("dfc.dfc_step")
        dfb_steps = n_calls("dfb.dfb_step")
        nm_self = self_s("baselines.nelder_mead_run")
        nm_evals = calls_under(ORACLE, "baselines.nelder_mead_run")
        attributed = float(self_time.sum())
        return {
            "problems.evaluator_calls": (evaluator_calls, "count"),
            "problems.evaluator_s": (self_s(EVALUATOR), "s"),
            "problems.evaluator_us_per_call":
                (1e6 * ratio(self_s(EVALUATOR), evaluator_calls), "us"),
            "problems.build_instance_s": (total_s("problems.build_instance"), "s"),
            "oracle.evaluate_calls": (oracle_calls, "count"),
            "oracle.self_s": (self_s(ORACLE), "s"),
            "oracle.self_us_per_call": (1e6 * ratio(self_s(ORACLE), oracle_calls), "us"),
            "gradapprox.stencil_calls": (n_calls(*STENCILS), "count"),
            "gradapprox.stencil_self_s": (self_s(*STENCILS), "s"),
            "gradapprox.search_calls": (search_calls, "count"),
            "gradapprox.search_self_s": (self_s("gradapprox.adaptive_gradient"), "s"),
            "gradapprox.stencils_per_search": (ratio(stencils_in_search, search_calls),
                                               "ratio"),
            "gradapprox.search_exhausted": (c["search_exhausted"], "count"),
            "dfc.step_calls": (dfc_steps, "count"),
            "dfc.step_self_s": (self_s("dfc.dfc_step"), "s"),
            "dfc.run_self_s": (self_s("dfc.dfc_run"), "s"),
            "dfc.accept_ratio": (ratio(c["dfc.accepted"], dfc_steps), "ratio"),
            "dfb.step_calls": (dfb_steps, "count"),
            "dfb.step_self_s": (self_s("dfb.dfb_step"), "s"),
            "dfb.run_self_s": (self_s("dfb.dfb_run"), "s"),
            "dfb.backtrack_calls": (n_calls("dfb.backtrack"), "count"),
            "dfb.backtrack_evals": (calls_under(ORACLE, "dfb.backtrack"), "count"),
            "dfb.backtrack_self_s": (self_s("dfb.backtrack"), "s"),
            "dfb.null_ratio": (ratio(c["dfb.null"], dfb_steps), "ratio"),
            "baselines.nelder_mead_self_s": (nm_self, "s"),
            "baselines.nelder_mead_self_us_per_eval": (1e6 * ratio(nm_self, nm_evals),
                                                       "us"),
            "baselines.nelder_mead_shrink_ratio":
                (ratio(c["nm.shrinks"], c["nm.iterations"]), "ratio"),
            "baselines.imfil_self_s": (self_s("baselines.imfil_run"), "s"),
            "trace.emit_calls": (n_calls("trace.emit_csv"), "count"),
            "trace.rows": (c["trace.rows"], "count"),
            "trace.bytes": (c["trace.bytes"], "B"),
            "trace.emit_s": (total_s("trace.emit_csv"), "s"),
            "trace.read_s": (total_s("trace.read_csv"), "s"),
            "harness.run_experiment_self_s": (self_s("harness.run_experiment"), "s"),
            "harness.report_bytes": (c["report_bytes"], "B"),
            "unattributed_s": (traced_wall_s - attributed, "s"),
        }
