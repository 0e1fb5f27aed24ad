"""The names that perfbench/tracer.py patches must stay patchable.

The tracer wraps cuspeig functions and ``EnergyAssembly`` methods by name,
and swaps in its wrapper for every module attribute that is the same object
as the traced function.  A renamed function, or a module that defines its
own copy instead of importing one, silently drops a layer from the trace.
These checks catch that in tier-1, not only under ``pytest perfbench``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cuspeig
from cuspeig import bounds, cli, discretization, eigensolver, geometry, verification

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = [cuspeig, bounds, cli, discretization, eigensolver, geometry, verification]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    for home, name, _span in tracer.FUNCTION_SPANS:
        assert callable(vars(home).get(name)), f"{home.__name__}.{name} is gone"


def test_traced_methods_exist(tracer):
    for name, _span in tracer.METHOD_SPANS:
        assert callable(vars(discretization.EnergyAssembly).get(name)), name


def test_importers_hold_the_traced_objects(tracer):
    for home, name, _span in tracer.FUNCTION_SPANS:
        original = vars(home)[name]
        for module in MODULES:
            if name in vars(module):
                assert vars(module)[name] is original, f"{module.__name__}.{name}"
    # The by-name imports the tracer exists to follow: without them the
    # check above would pass vacuously.
    assert "p_form_apply" in vars(eigensolver)
    assert "project_zero_mean" in vars(verification)


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: geometry.mesh_box(geometry.BoxDomain((1.0, 1.0)), 4),
        lambda: geometry.mesh_box(geometry.BoxDomain((1.0, 1.0, 1.0)), 4),
        lambda: geometry.mesh_cusp(geometry.CuspDomain((2.0,)), 1.0, 8),
        lambda: geometry.mesh_cusp(geometry.CuspDomain((1.5, 1.5)), 1.0, 4),
    ],
    ids=["2d", "3d", "cusp2d", "cusp3d"],
)
def test_factors_expose_what_the_tracer_reads(make_mesh):
    # The tracer's _after_factor reads L.nnz + U.nnz of every factor, and
    # the Neumann solves call its solve.
    mesh = make_mesh()
    asm = discretization.assembly(mesh)
    weighted = asm.weighted_stiffness(np.linspace(0.5, 2.0, mesh.num_cells))
    for matrix in (asm.stiffness, weighted):
        factor = asm.bordered_factorization(matrix)
        assert callable(factor.solve)
        assert factor.L.nnz > 0 and factor.U.nnz > 0


def test_both_routes_record_the_benchmark_spans(tracer):
    # The layers perfbench/workloads.py expects in a traced solve.  Only the
    # two-minute `pytest perfbench` run would otherwise catch a missing one.
    shared = {
        "discretization.gradients",
        "discretization.factor",
        "discretization.trisolve",
        "discretization.stiffness",
        "discretization.p_form",
        "discretization.q_form",
        "discretization.energy",
    }
    routes = [
        (lambda mesh: eigensolver.minimize_rayleigh(mesh, 2.5, 3.0), "discretization.project"),
        (lambda mesh: eigensolver.inverse_iteration(mesh, 2.5), tracer.INNER_SPAN),
    ]
    for solve, route_span in routes:
        # A fresh mesh per recorder, as each benchmark repetition builds one:
        # the tracer only knows the factors made while it is installed, and
        # the assembly caches the stiffness factor per mesh.
        mesh = geometry.mesh_cusp(geometry.CuspDomain((2.0,)), 1.0, 8)
        recorder = tracer.Tracer()
        with recorder.installed():
            solve(mesh)
        recorded = {record["name"] for record in recorder.records()}
        assert shared | {route_span} <= recorded, sorted(shared | {route_span} - recorded)
