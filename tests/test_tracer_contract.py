"""The names the benchmark's tracer wraps, the one-entry-point-per-solve rule,
and the oracle counts it reports.

``perfbench/tracing.py`` patches module attributes by name and times each
solver entry point in its own span. A renamed attribute makes every traced
benchmark round fail; an entry point that calls another one through the
module would book its time under the wrong span. These tests catch both in
the fast suite, and check that the tracer's oracle wrappers count one
Jacobian call and no constraint call per iteration on a PageRank instance.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from apdpro import bench, estimator, pagerank, problem, solvers
from apdpro.bench import make_recorder
from apdpro.solvers import SolverConfig

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ENTRY_POINTS = ("apdpro", "rapdpro", "msapd", "apd_baseline")
RUNS = (("apdpro", "apdpro"), ("rapdpro", "rapdpro"), ("msapd", "msapd"),
        ("apd", "apd_baseline"), ("apd_restart", "apd_baseline"))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def _solve(canonical, variant, attr):
    prob, constants, _, _ = canonical
    cfg = SolverConfig(variant=variant, max_iters=6, max_epochs=1, restart_period=2)
    return getattr(solvers, attr)(prob, constants, cfg, np.zeros(prob.n), np.zeros(prob.m))


def test_tracer_installs_on_the_library_and_restores_it(tracing, canonical):
    modules = (bench, estimator, pagerank, problem, solvers)
    before = [dict(vars(m)) for m in modules] + [dict(vars(estimator.RhoEstimate))]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for variant, attr in RUNS:
            _solve(canonical, variant, attr)
    after = [dict(vars(m)) for m in modules] + [dict(vars(estimator.RhoEstimate))]
    assert after == before
    names = tracer.arrays()["name_id"]
    parents = tracer.arrays()["parent"]
    solver_ids = {tracer.name(f"solvers.{v}") for v in tracing.SOLVER_ATTRS}
    top = [tracer.names[i] for i, up in zip(names, parents) if up < 0]
    assert top == ["solvers.apdpro", "solvers.rapdpro", "solvers.msapd", "solvers.apd", "solvers.apd"]
    assert not any(i in solver_ids for i, up in zip(names, parents) if up >= 0)
    assert tracer.name("estimator.advance") in set(names)


def test_each_entry_point_runs_exactly_one_entry_point(canonical, monkeypatch):
    calls = []
    for attr in ENTRY_POINTS:
        def counting(*args, _run=getattr(solvers, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _run(*args, **kwargs)

        monkeypatch.setattr(solvers, attr, counting)
    for variant, attr in RUNS:
        calls.clear()
        _solve(canonical, variant, attr)
        assert calls == [attr], variant


@pytest.mark.parametrize("variant, attr", RUNS)
def test_tracer_counts_one_jacobian_call_per_iteration_on_pagerank(tracing, small_graph_bundle, variant, attr):
    tracer = tracing.Tracer()
    bundle = tracing.traced_bundle(tracer, small_graph_bundle)
    prob = bundle.problem
    cfg = SolverConfig(variant=variant, max_iters=40, max_epochs=2, restart_period=7)
    probe = tracing.SolveProbe()
    recorder = tracing.traced_recorder(tracer, make_recorder(prob, variant, cfg, None), probe)
    getattr(solvers, attr)(prob, bundle.constants, cfg, np.zeros(prob.n), np.zeros(prob.m), recorder=recorder)
    delta = [b - a for a, b in zip(probe.first, probe.last)]
    assert probe.records > 20
    assert delta[tracing.JAC_CALLS] == probe.records - 1
    assert delta[tracing.G_CALLS] == 0
