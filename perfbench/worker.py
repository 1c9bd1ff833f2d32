"""One execution of one workload, in a fresh process, through ``fpsi.cli.main``.

Run by run.py; not meant to be started by hand.  The process imports fpsi
from the checkout's ``src``, wraps ``TimeStepper.step`` to time every step,
and with ``--trace 1`` also wraps the public functions of each layer to record
spans.  All wrapping happens here, so no code of fpsi changes.  The result,
spans included, is kept in memory and written as one JSON file at the end.

With ``--probe-loops N`` the execution only measures set-up: steps of the
first N-1 time loops return their input unchanged without solving, and the
first step of loop N stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import weakref
from pathlib import Path

import numpy as np

import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

# (module, attribute, span name).  Several functions may share one span name.
LAYER_HOOKS = [
    ("fpsi.cli", "parse_config", "cli.parse"),
    ("fpsi.mesh", "generate_structured", "mesh.generate"),
    ("fpsi.verification", "derive_sources", "verification.derive"),
    ("fpsi.verification", "derive_corrections", "verification.derive"),
    ("fpsi.forms", "build_spaces", "forms.spaces"),
    ("fpsi.forms", "AssemblyContext.__init__", "forms.context"),
    ("fpsi.forms", "assemble_M", "forms.assemble_M"),
    ("fpsi.forms", "assemble_N", "forms.assemble_N"),
    ("fpsi.forms", "assemble_convection", "forms.convection"),
    ("fpsi.forms", "assemble_F", "forms.load"),
    ("fpsi.fem", "apply_dirichlet", "fem.dirichlet"),
    ("fpsi.solver", "solve_linear", "solver.solve"),
    ("scipy.sparse.linalg", "splu", "solver.factor"),
    ("fpsi.solver", "discrete_energy", "solver.energy"),
    ("fpsi.verification", "final_time_errors", "verification.errors"),
]

# Per-layer metric -> (unit, span it comes from, kind).  "time" sums the
# span's durations, "self" its self times, "calls" counts it; "record" is a
# count or size taken from the wrapped calls' arguments and results.
# Triangular solves are spans of the factor that the splu hook returns.
LAYER_METRICS = {
    "solver.factor_s": ("s", "solver.factor", "time"),
    "solver.factor_calls": ("count", "solver.factor", "calls"),
    "solver.lu_fill_nnz": ("count", "solver.factor", "record"),
    "solver.trisolve_s": ("s", "solver.trisolve", "time"),
    "solver.trisolve_calls": ("count", "solver.trisolve", "calls"),
    "solver.solve_s": ("s", "solver.solve", "time"),
    "solver.solve_self_s": ("s", "solver.solve", "self"),
    "solver.step_s": ("s", "solver.step", "time"),
    "solver.step_self_s": ("s", "solver.step", "self"),
    "solver.energy_s": ("s", "solver.energy", "time"),
    "solver.pin_events": ("count", "solver.step", "record"),
    "forms.assemble_M_s": ("s", "forms.assemble_M", "time"),
    "forms.assemble_N_s": ("s", "forms.assemble_N", "time"),
    "forms.context_s": ("s", "forms.context", "time"),
    "forms.spaces_s": ("s", "forms.spaces", "time"),
    "mesh.generate_s": ("s", "mesh.generate", "time"),
    "verification.derive_s": ("s", "verification.derive", "time"),
    "cli.parse_s": ("s", "cli.parse", "time"),
    "forms.convection_s": ("s", "forms.convection", "time"),
    "forms.convection_calls": ("count", "forms.convection", "calls"),
    "forms.load_s": ("s", "forms.load", "time"),
    "fem.dirichlet_s": ("s", "fem.dirichlet", "time"),
    "verification.errors_s": ("s", "verification.errors", "time"),
    "mesh.cells": ("count", "mesh.generate", "record"),
    "mesh.interface_facets": ("count", "forms.context", "record"),
    "forms.dofs": ("count", "forms.spaces", "record"),
    "forms.operator_nnz": ("count", "solver.solve", "record"),
}


class ProbeDone(Exception):
    """Raised at the first step of the last loop of a set-up probe."""


class Recorder:
    """Steps, spans, counts and sizes of one execution, kept in memory."""

    def __init__(self, trace, probe_loops=0):
        self.trace = trace
        self.probe_loops = probe_loops
        self.steps = []        # (loop, start, end, ok, residual)
        self.loop_dofs = {}
        self.spans = []        # [name, start, end, parent]
        self.stack = []
        self.records = {}
        self.captured = {}
        self.missing = []
        self._loops = weakref.WeakKeyDictionary()
        self._loop_ids = itertools.count()
        self._fill_shapes = set()

    # -- spans -----------------------------------------------------------

    def enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self.stack.pop()][2] = clock()

    def traced(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                result = on_result(result, args)
            return result
        return wrapper

    def record_max(self, key, value):
        self.records[key] = max(self.records.get(key, 0), int(value))

    def record_add(self, key, value):
        self.records[key] = self.records.get(key, 0) + int(value)

    # -- hooks -------------------------------------------------------------

    def install(self):
        self._patch("fpsi.solver", "TimeStepper.step", self._wrap_step,
                    "solver.step")
        self._patch("fpsi.verification", "convergence_study",
                    lambda fn: self._capture(fn, self._capture_errors))
        if not self.trace:
            return
        on_result = {
            "mesh.generate": lambda r, a: self._note(r, "mesh.cells", r.num_cells),
            "forms.spaces": lambda r, a: self._note(
                r, "forms.dofs", sum(sp.ndofs for sp in r)),
            "forms.context": lambda r, a: self._note(
                r, "mesh.interface_facets", len(a[0].pairs)),
            "solver.solve": lambda r, a: self._note(
                r, "forms.operator_nnz", a[0].nnz),
            "solver.factor": self._factor_result,
        }
        for module, attr, span in LAYER_HOOKS:
            extra = on_result.get(span)
            self._patch(module, attr,
                        lambda fn, span=span, extra=extra: self.traced(span, fn, extra),
                        span)

    def _patch(self, module, attr, make, span=None):
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            self.missing.append({"hook": f"{module}.{attr}", "span": span})
            return
        setattr(owner, name, make(fn))

    def _note(self, result, key, value):
        self.record_max(key, value)
        return result

    def _factor_result(self, lu, args):
        shape = lu.shape
        if shape not in self._fill_shapes:
            # L and U are copies of the factor: count them once per size.
            self._fill_shapes.add(shape)
            self.record_max("solver.lu_fill_nnz", lu.L.nnz + lu.U.nnz)
        return _TracedFactor(lu, self)

    def _capture(self, fn, keep):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            keep(result)
            return result
        return wrapper

    def _capture_errors(self, table):
        self.captured["errors"] = [
            {k.replace("_", "").lower(): v for k, v in row["errors"].items()}
            for row in table.rows]

    def _wrap_step(self, step):
        rec = self

        def timed_step(stepper, state_prev, *args, **kwargs):
            loop = rec._loops.get(stepper)
            if loop is None:
                loop = rec._loops[stepper] = next(rec._loop_ids)
            if rec.probe_loops:
                now = clock()
                rec.steps.append((loop, now, now, True, 0.0))
                if loop == rec.probe_loops - 1:
                    raise ProbeDone
                return state_prev, None
            if rec.trace:
                rec.enter("solver.step")
            start = clock()
            try:
                state, report = step(stepper, state_prev, *args, **kwargs)
            except BaseException:
                rec.steps.append((loop, start, clock(), False, None))
                raise
            finally:
                if rec.trace:
                    rec.leave()
            end = clock()
            vec = state.vector()
            ok = bool(np.isfinite(vec).all())
            rec.loop_dofs[loop] = vec.size
            rec.steps.append((loop, start, end, ok, float(report.residual)))
            rec.record_add("solver.pin_events", bool(report.pinned_pressure))
            return state, report

        return timed_step

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics; a metric whose hook is missing is left out."""
        missing = {m["span"] for m in self.missing}
        if "solver.factor" in missing:
            missing.add("solver.trisolve")
        own = metrics.self_times(self.spans)
        out = {}
        for name, (unit, span, kind) in LAYER_METRICS.items():
            if span in missing:
                continue
            picked = [i for i, s in enumerate(self.spans) if s[0] == span]
            if kind == "time":
                value = sum(self.spans[i][2] - self.spans[i][1] for i in picked)
            elif kind == "self":
                value = sum(own[i] for i in picked)
            elif kind == "calls":
                value = len(picked)
            else:
                value = self.records.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out


class _TracedFactor:
    """A SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, rec):
        self._lu = lu
        self._rec = rec

    def solve(self, *args, **kwargs):
        self._rec.enter("solver.trisolve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._rec.leave()

    def __getattr__(self, name):
        return getattr(self._lu, name)


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-loops", type=int, default=0)
    ap.add_argument("--work", required=True, help="directory for outputs")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fpsi
    from fpsi import cli
    if Path(fpsi.__file__).resolve().parent != ROOT / "src" / "fpsi":
        print(f"fpsi imported from {fpsi.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    work = Path(args.work)
    cfg = work / "workload.cfg"
    cfg.write_text(workloads.config_text(args.workload, args.seed))
    out_dir = work / "out"
    rec = Recorder(bool(args.trace), args.probe_loops)
    rec.install()

    command = workloads.WORKLOADS[args.workload].command
    stdout, error = io.StringIO(), None
    start = clock()
    try:
        with contextlib.redirect_stdout(stdout):
            exit_code = cli.main([command, "--config", str(cfg),
                                  "--out", str(out_dir)])
    except ProbeDone:
        exit_code = None
    except Exception:  # a crash of the program is a result to report
        exit_code, error = None, traceback.format_exc()
    end = clock()

    result = {
        "wall_s": end - start,
        "setup_s": metrics.setup_seconds(start, [s[:3] for s in rec.steps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_code": exit_code,
        "error": error,
        "ok_steps": sum(1 for s in rec.steps if s[3]),
        "environment": environment(),
    }
    if not args.probe_loops:
        durations = metrics.finest_loop_steps(
            [s[:3] for s in rec.steps if s[3]], rec.loop_dofs)
        tail = metrics.tail_percentile(durations)
        result.update({
            "step_samples": len(durations),
            "step_durations": durations,
            "step_p50_s": statistics.median(durations) if durations else None,
            "step_tail_s": tail[0] if tail else None,
            "step_tail_pct": tail[1] if tail else None,
            "outputs": workloads.extract(
                args.workload, out_dir, stdout.getvalue(), exit_code,
                rec.captured, rec.steps),
        })
    if rec.trace:
        result["layers"] = rec.layer_metrics()
        result["layers"]["loop_self_s"] = {
            "value": metrics.loop_self_seconds(rec.spans, start, end), "unit": "s"}
        result["missing_hooks"] = rec.missing
        result["spans"] = rec.spans
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
