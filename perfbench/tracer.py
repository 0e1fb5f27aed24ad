"""Spans and counters around cuspeig's public functions, patched from outside.

Nothing in ``cuspeig`` knows about this module.  ``Tracer.installed()``
replaces each traced function with a wrapper that records a span, in every
``cuspeig`` module that holds the function under its name: ``eigensolver``
and ``verification`` import kernels such as ``p_form_apply`` by name, and
patching only ``cuspeig.discretization`` would miss those calls.
``EnergyAssembly`` methods are patched on the class.  Leaving the context
restores every original.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from cuspeig import discretization as disc
from cuspeig import bounds, eigensolver, geometry, verification

SOLVER_SPAN = "eigensolver.solve"
INNER_SPAN = "eigensolver.inner_solve"

# (module, function name, span name).  Spans of one name are one layer.
FUNCTION_SPANS = [
    (geometry, "mesh_cusp", "geometry.mesh"),
    (geometry, "mesh_box", "geometry.mesh"),
    (disc, "grad_norm_p", "discretization.energy"),
    (disc, "lq_norm", "discretization.energy"),
    (disc, "p_form_apply", "discretization.p_form"),
    (disc, "q_form_apply", "discretization.q_form"),
    (disc, "project_zero_mean", "discretization.project"),
    (eigensolver, "minimize_rayleigh", SOLVER_SPAN),
    (eigensolver, "inverse_iteration", SOLVER_SPAN),
    (eigensolver, "solve_p_laplace_source", INNER_SPAN),
    (bounds, "lambda_lower_bound", "bounds.lower_bound"),
    (verification, "oracle_linear_eigen", "verification.oracle"),
]

METHOD_SPANS = [
    ("gradients", "discretization.gradients"),
    ("bordered_factorization", "discretization.factor"),
    ("bordered_solve", "discretization.trisolve"),
    ("weighted_stiffness", "discretization.stiffness"),
]

LAYER_SPANS = sorted(
    {span for _m, _f, span in FUNCTION_SPANS}
    | {span for _m, span in METHOD_SPANS}
    | {"discretization.assembly"}  # recorded by the benchmark around its set-up
)

COUNTERS = [
    "geometry.nodes",
    "geometry.cells",
    "discretization.lu_nnz",
    "discretization.trisolve_bytes",
    "eigensolver.outer_iterations",
    "eigensolver.newton_steps",
    "bounds.grid_evals",
]

# Bytes one triangular solve reads per stored factor entry: an 8-byte value
# and a 4-byte row index.  A computed figure, not a measured one.
TRISOLVE_BYTES_PER_NNZ = 12


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._open: list[int] = []
        self._lu_nnz: dict[int, int] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[self.run_id][name] += amount

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                # Outside the layer's span, inside a bookkeeping span, so
                # neither the layer nor its caller is charged for it.
                with self.span("trace.bookkeeping"):
                    after(result, args)
            return result

        return traced

    # Counters read from what the layers return.

    def _after_mesh(self, mesh, _args) -> None:
        counters = self.counters[self.run_id]
        counters["geometry.nodes"] = mesh.num_nodes
        counters["geometry.cells"] = mesh.num_cells

    def _after_factor(self, lu, args) -> None:
        nnz = lu.L.nnz + lu.U.nnz
        # A new factor always passes through here, so a reused id() is
        # overwritten before any solve can look it up.
        self._lu_nnz[id(lu)] = nnz
        counters = self.counters[self.run_id]
        counters["discretization.lu_nnz"] = max(counters["discretization.lu_nnz"], nnz)
        if self._inside(INNER_SPAN):
            self.count("eigensolver.newton_steps")

    def _after_trisolve(self, _result, args) -> None:
        lu = args[1]
        self.count("discretization.trisolve_bytes", TRISOLVE_BYTES_PER_NNZ * self._lu_nnz[id(lu)])

    def _after_solver(self, result, _args) -> None:
        pair = result[0] if isinstance(result, tuple) else result
        self.count("eigensolver.outer_iterations", pair.iterations)

    def _after_bound(self, report, _args) -> None:
        self.count("bounds.grid_evals", len(report.evaluations))

    @contextmanager
    def installed(self):
        """Patch every traced name; restore the originals on exit."""
        after = {
            "geometry.mesh": self._after_mesh,
            "discretization.factor": self._after_factor,
            "discretization.trisolve": self._after_trisolve,
            SOLVER_SPAN: self._after_solver,
            "bounds.lower_bound": self._after_bound,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cuspeig"]
        saved: list[tuple[object, str, object]] = []
        for home, fname, span_name in FUNCTION_SPANS:
            original = getattr(home, fname)
            wrapper = self._wrap(original, span_name, after.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for method, span_name in METHOD_SPANS:
            original = vars(disc.EnergyAssembly)[method]
            saved.append((disc.EnergyAssembly, method, original))
            setattr(
                disc.EnergyAssembly, method,
                self._wrap(original, span_name, after.get(span_name)),
            )
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """Per run id, per span name: self time of each span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        for (name, start, end, _parent, run), child in zip(self.spans, child_time):
            out[run][name].append(end - start - child)
        return out

    def layer_metrics(self, run_ids: list[int]) -> dict[str, float]:
        """Per-layer self times as medians over the given runs; counts from
        the first of them, whose inputs do not depend on the run length."""
        per_run = self.self_times()
        first = per_run.get(run_ids[0], {})
        metrics: dict[str, float] = {name: self.counters[run_ids[0]][name] for name in COUNTERS}
        for name in LAYER_SPANS:
            metrics[_metric_name(name, "_n")] = len(first.get(name, []))
            metrics[_metric_name(name, "_s")] = statistics.median(
                sum(per_run.get(run, {}).get(name, [])) for run in run_ids
            )
        return metrics

    def records(self):
        for name, start, end, parent, run in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "run": run}


def _metric_name(span_name: str, suffix: str) -> str:
    if span_name == SOLVER_SPAN:
        return "eigensolver.self" + suffix
    return span_name + suffix
