"""Experiment driver: metrics, references, config parsing, CSV traces."""

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from apdpro import bench
from apdpro.bench import (
    CSV_HEADER,
    ExperimentConfig,
    InstanceSpec,
    build_instance,
    get_reference,
    load_experiment_config,
    make_recorder,
    run_experiment,
    write_csv,
)
from apdpro.linalg import NumericalError
from apdpro.pagerank import build_ppr_problem, load_graph, make_synthetic_instance
from apdpro.problem import BlockNormObjective, ConstrainedProblem, derive_constants, kkt_residual
from apdpro.solvers import (
    VARIANTS,
    IterateRecord,
    RecordInputs,
    SolverConfig,
    _metrics_recorder,
    rapdpro,
)
from helpers import blocky_problem, chorded_path_edges, path_edges, star_edges, write_edge_list
from oracles import ppr_kkt_oracle, record_oracle


def _record_inputs(problem, x, **kw):
    """The RecordInputs of reporting point x, with G(x) as the loop hands it."""
    defaults = dict(iter=1, epoch=0, y=np.zeros(1), rho=0.0, tau=0.25,
                    sigma=0.25, elapsed_s=0.0)
    defaults.update(kw)
    x = np.asarray(x, dtype=float)
    return RecordInputs(x=x, g=problem.g(x), **defaults)


def _synthetic_config(**overrides):
    kw = dict(
        instance=InstanceSpec(kind="synthetic", n=1, center=2.0, level=1.0),
        solver=SolverConfig(variant="apdpro", max_iters=2000),
        reference_mode="oracle",
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


def _accuracy(blocks, x, x_ref, threshold=1e-8):
    """The recorder's active_set_acc of x against x* for this block partition (the problem
    around it, a unit ball constraint, plays no part)."""
    n = int(sum(length for _, length in blocks))
    problem = ConstrainedProblem(
        objective=BlockNormObjective(blocks=blocks, weights=np.ones(len(blocks))),
        constraints=lambda x: np.array([0.5 * (x @ x) - 1.0]), jacobian=lambda x: x.reshape(n, 1),
        mu=np.ones(1), L_X=1.0, r=1.0, strict_point=np.zeros(n),
    )
    record = _metrics_recorder(problem, (np.asarray(x_ref, dtype=float), 1.0), threshold)
    return record(_record_inputs(problem, x)).active_set_acc


def test_active_set_accuracy_examples():
    singletons = ((0, 1), (1, 1), (2, 1))
    assert _accuracy(singletons, [0.0, 1.0, 0.0], [0.0, 2.0, 0.0]) == 1.0
    assert _accuracy(singletons, [1e-9, 1.0, 0.0], [0.0, 2.0, 0.0]) == 1.0  # under the threshold: zero
    assert _accuracy(singletons, [0.5, 1.0, 0.0], [0.0, 2.0, 0.0]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="threshold must be positive"):
        _accuracy(((0, 1),), [0.0], [0.0], threshold=0.0)


def test_active_set_accuracy_blockwise():
    blocks = ((0, 2), (2, 1))
    # first block is nonzero through its second coordinate only
    assert _accuracy(blocks, [0.0, 0.3, 0.0], [1.0, 0.0, 0.0]) == 1.0
    assert _accuracy(blocks, [0.0, 0.3, 0.0], [0.0, 0.0, 2.0]) == 0.0


def test_compute_metrics_values(canonical):
    problem, _, x_star, _ = canonical
    ri = _record_inputs(problem, [1.1])
    rec = _metrics_recorder(problem, (x_star, 1.0))(ri)
    assert rec.objective == pytest.approx(1.1)
    assert rec.rel_gap == pytest.approx(0.1)
    assert rec.feas_violation == 0.0  # g(1.1) < 0
    assert rec.active_set_acc == 1.0
    infeasible = _metrics_recorder(problem, None)(_record_inputs(problem, [5.0]))
    assert infeasible.feas_violation == pytest.approx(0.5 * 9.0 - 1.0)


def test_compute_metrics_without_reference(canonical):
    problem = canonical[0]
    rec = _metrics_recorder(problem, None)(_record_inputs(problem, [1.0]))
    assert rec.rel_gap is None and rec.active_set_acc is None
    assert rec.objective == pytest.approx(1.0)


def test_run_recorder_matches_compute_metrics_bitwise(canonical):
    """One recorder per run (x*'s zero pattern cached) gives the oracle's record, field for field."""
    rng = np.random.default_rng(23)
    five, x_five, _ = make_synthetic_instance(5, np.array([1.5, -0.7, 2.0, 0.6, -1.2]), 0.9)
    blocky = blocky_problem()
    cases = ((canonical[0], canonical[2]), (five, x_five), (blocky, np.array([0.0, 0.0, 1.5, 0.2, -0.1, 0.0])))
    for problem, x_ref in cases:
        f_ref = problem.f(x_ref)
        points = [x_ref.copy()]
        for _ in range(12):  # sparse iterates, some coordinates straddling the 1e-8 threshold
            x = rng.normal(size=problem.n) * (rng.random(problem.n) < 0.6)
            x[rng.random(problem.n) < 0.3] = rng.choice([5e-9, -5e-9, 2e-8])
            points.append(x)
        inputs = [_record_inputs(problem, x, iter=i + 1, epoch=i % 3, y=np.ones(1), rho=0.1 * i, sigma=0.5,
                                 elapsed_s=1e-3 * i) for i, x in enumerate(points)]
        accuracies = set()
        for reference in (None, (x_ref, f_ref), (x_ref, 0.0), (None, f_ref), (None, 0.0)):
            for threshold in (1e-8, 0.3):
                record = _metrics_recorder(problem, reference, threshold)
                for ri in inputs:
                    got = record(ri)
                    want = record_oracle(problem, ri, reference, threshold)
                    assert type(got) is IterateRecord and repr(dataclasses.astuple(got)) == repr(want)
                    assert (got.rel_gap is None) == (reference is None or reference[1] == 0.0)
                    assert (got.active_set_acc is None) == (reference is None or reference[0] is None)
                    accuracies.add(got.active_set_acc)
        assert len(accuracies - {None}) >= min(3, problem.n + 1)  # the patterns do differ from x*'s
        for variant in VARIANTS:  # bench.make_recorder wires x*, f*; the loop, not the variant, picks the point
            record = make_recorder(problem, variant, SolverConfig(variant=variant), (x_ref, None, f_ref), 1e-8)
            for ri in inputs:
                want = record_oracle(problem, ri, (x_ref, f_ref), 1e-8)
                assert repr(dataclasses.astuple(record(ri))) == repr(want)
    with pytest.raises(ValueError, match="threshold must be positive"):
        _metrics_recorder(five, (x_five, 1.0), 0.0)
    _metrics_recorder(five, (None, 1.0), 0.0)  # no x*, no accuracy: the threshold is unused


def test_make_recorder_rejects_a_threshold_that_is_not_finite():
    """A nan threshold once made active_set_acc read 1.0 on every row."""
    five, x_five, _ = make_synthetic_instance(5, np.array([1.5, -0.7, 2.0, 0.6, -1.2]), 0.9)
    for threshold in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^threshold must be positive and finite, got {threshold!r}$"):
            make_recorder(five, "apdpro", SolverConfig(), (x_five, None, 1.0), threshold)


def test_default_recorder_matches_compute_metrics(canonical):
    """Every variant's default trace is the oracle's record at the point each row reports."""
    problem, constants, x_star, _ = canonical
    f_star = problem.f(x_star)
    for variant in VARIANTS:
        runner = bench._RUNNERS[variant]
        # rapdpro's first three epochs end after 25 + 17 + 17 = 59 iterations on this instance, and msapd's
        # first four stages, whose estimate starts at rho_lb, after 9 + 10 + 13 + 16 = 48: one more epoch
        # or stage takes each past 60 records
        cfg = SolverConfig(variant=variant, max_iters=60, max_epochs=4, restart_period=25)
        for f_ref in (f_star, None):
            default = runner(problem, constants, cfg, np.zeros(1), np.zeros(1), f_star=f_ref)
            reference = None if f_ref is None else (None, f_ref)
            explicit = runner(problem, constants, cfg, np.zeros(1), np.zeros(1), f_star=f_ref,
                              recorder=lambda ri: IterateRecord(*record_oracle(problem, ri, reference, 1e-8)))
            assert len(default.trace) == len(explicit.trace) >= 60, variant
            for a, b in zip(default.trace, explicit.trace):
                assert repr(dataclasses.replace(a, elapsed_s=0.0)) == repr(dataclasses.replace(b, elapsed_s=0.0))


@pytest.mark.parametrize("instance", ["canonical", "small_graph"])  # the generic and the quadratic path
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_recorder_gets_the_reporting_point_and_its_g(instance, variant, request):
    """ri.x is x_{k+1} (apdpro, rapdpro) or x_bar_{k+1} (the others) bitwise, as the observer sees
    them; ri.g is G(ri.x), bitwise on the generic path and to rounding on the quadratic one."""
    problem, constants = request.getfixturevalue(instance)[:2]
    cfg = SolverConfig(variant=variant, max_iters=30, max_epochs=2, restart_period=12)
    default = make_recorder(problem, variant, cfg, None)
    snaps, seen = [], []

    def recorder(ri):
        seen.append((ri.x.copy(), ri.g.copy()))
        return default(ri)

    bench._RUNNERS[variant](problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m),
                            recorder=recorder, observer=snaps.append)
    assert len(seen) == len(snaps) >= 30
    last = variant in ("apdpro", "rapdpro")
    for sn, (x, g) in zip(snaps, seen):
        assert np.array_equal(x, sn.x_next if last else sn.x_bar_next)
        want = problem.g(x)
        if problem.quadratic is None:
            assert np.array_equal(g, want)
        else:
            assert np.max(np.abs(g - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_write_csv_reproduces_floats_exactly(tmp_path):
    rng = np.random.default_rng(21)
    values = rng.normal(scale=1e3, size=200)
    trace = [_row(iter=7, objective=float(v), rel_gap=np.float64(v)) for v in values]
    path = tmp_path / "trace.csv"
    write_csv(str(path), trace)
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert [float(r[2]) for r in rows] == [float(r[3]) for r in rows] == values.tolist()
    assert {(r[0], r[8]) for r in rows} == {("7", "")}


def test_write_csv_layout(tmp_path):
    rows = [
        IterateRecord(iter=1, epoch=0, objective=1.5, rel_gap=None,
                      feas_violation=0.0, rho=0.1, tau=0.25, sigma=0.25,
                      active_set_acc=None, elapsed_s=0.01),
        IterateRecord(iter=2, epoch=0, objective=1.25, rel_gap=0.25,
                      feas_violation=0.0, rho=0.2, tau=0.2, sigma=0.3125,
                      active_set_acc=1.0, elapsed_s=0.02),
    ]
    path = tmp_path / "trace.csv"
    write_csv(str(path), rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER == "iter,epoch,objective,rel_gap,feas_violation,rho,tau,sigma,active_set_acc,elapsed_s"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "" and first[8] == ""
    second = lines[2].split(",")
    assert float(second[3]) == 0.25 and float(second[8]) == 1.0


def _fmt(v) -> str:
    """One CSV field, formatted on its own: None empty, floats at 17 significant digits, else str."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _fmt_csv(trace) -> bytes:
    """The CSV as written field by field through _fmt: the reference for write_csv's templates."""
    lines = [CSV_HEADER] + [",".join(_fmt(getattr(r, name)) for name in CSV_HEADER.split(",")) for r in trace]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _variant_traces(canonical, small_graph):
    """(label, trace) of every variant on the canonical and the 30-node instance, with a reference and
    without; the graph's reference has no x*, so its traces have rel_gap but no active_set_acc."""
    problem, constants, x_star, _ = canonical
    instances = (("canonical", problem, constants, (x_star, None, problem.f(x_star))),
                 ("graph", *small_graph, (None, None, 1.0)))
    for name, prob, consts, ref in instances:
        for variant in VARIANTS:
            for reference in (ref, None):
                cfg = SolverConfig(variant=variant, max_iters=40, max_epochs=2, restart_period=15)
                recorder = make_recorder(prob, variant, cfg, reference)
                res = bench._RUNNERS[variant](prob, consts, cfg, np.zeros(prob.n), np.zeros(prob.m),
                                              recorder=recorder, f_star=None if reference is None else reference[2])
                assert res.trace
                yield f"{name}/{variant}/{reference is not None}", res.trace


def test_write_csv_template_matches_the_per_field_path_on_every_variant(canonical, small_graph, tmp_path):
    path = tmp_path / "trace.csv"
    for label, trace in _variant_traces(canonical, small_graph):
        write_csv(str(path), trace)
        assert path.read_bytes() == _fmt_csv(trace), label


def test_library_traces_always_take_the_csv_template(canonical, small_graph, tmp_path, monkeypatch):
    """Several templates serve foreign traces; each of the library's own needs just one."""
    built, template = [], bench._template

    def counting(kinds):
        built.append(kinds)
        return template(kinds)

    traces = list(_variant_traces(canonical, small_graph))
    monkeypatch.setattr(bench, "_template", counting)
    for label, trace in traces:
        built.clear()
        write_csv(str(tmp_path / "trace.csv"), trace)
        assert len(built) == 1, label


def _row(**kw):
    fields = dict(iter=1, epoch=0, objective=1.5, rel_gap=None, feas_violation=0.0, rho=0.1, tau=0.25,
                  sigma=0.25, active_set_acc=None, elapsed_s=0.01)
    fields.update(kw)
    return IterateRecord(**fields)


@pytest.mark.parametrize("trace", [
    pytest.param([], id="empty"),
    pytest.param([_row(), _row(iter=2, rel_gap=0.25, active_set_acc=1.0)], id="none-pattern-varies"),
    pytest.param([_row(rel_gap=0.5), _row(iter=2)], id="none-pattern-varies-late"),
    pytest.param([_row(active_set_acc=True), _row(iter=2, active_set_acc=False)], id="bool-column"),
    pytest.param([_row(epoch=True)], id="bool-in-int-column"),
    pytest.param([_row(rho=np.float64(0.1)), _row(iter=2, rho=1.0 / 3.0), _row(iter=3, rho=np.float64(2.0) / 3.0)],
                 id="float64-and-float"),
    pytest.param([_row(iter=10**17 + 3), _row(iter=2**70, epoch=-5)], id="large-ints"),
    pytest.param([_row(iter=np.int64(4))], id="numpy-int"),
    pytest.param([_row(objective=np.nan, rel_gap=np.inf, feas_violation=-0.0, tau=5e-324, sigma=-1e308)],
                 id="special-floats"),
    pytest.param([_row(objective="1.5")], id="string"),
])
def test_write_csv_template_matches_the_per_field_path(tmp_path, trace):
    path = tmp_path / "trace.csv"
    write_csv(str(path), trace)
    assert path.read_bytes() == _fmt_csv(trace)


def test_write_csv_writes_long_traces_whole(tmp_path):
    """More rows than one write holds: every row, in order."""
    trace = [_row(iter=i, objective=1.0 / (i + 1)) for i in range(1000)]
    path = tmp_path / "trace.csv"
    write_csv(str(path), trace)
    assert path.read_bytes() == _fmt_csv(trace)


def test_reference_solution_oracle_matches_closed_form():
    config = _synthetic_config()
    x, y, f = get_reference(build_instance(config.instance), config)
    assert x[0] == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-14)
    assert y[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)
    assert f == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-14)


_SOLVER = SolverConfig(variant="apdpro")


@pytest.mark.parametrize("build, message", [
    (lambda: InstanceSpec(kind="mesh"), "instance kind must be 'synthetic' or 'graph'"),
    (lambda: InstanceSpec(kind="graph"), "graph instances need a path"),
    (lambda: ExperimentConfig(InstanceSpec(kind="synthetic"), _SOLVER, reference_mode="exact"),
     "unknown reference mode 'exact'"),
], ids=["kind", "graph-path", "reference-mode"])
def test_bench_inputs_are_rejected_with_their_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _graph_config(tmp_path, reference_mode):
    path = write_edge_list(tmp_path / "p2.txt", [(0, 1)])
    spec = InstanceSpec(kind="graph", path=path, alpha=0.5, b=-0.05)
    return ExperimentConfig(instance=spec, solver=_SOLVER, reference_mode=reference_mode)


def test_reference_solution_oracle_rejects_graphs(tmp_path):
    config = _graph_config(tmp_path, "oracle")
    with pytest.raises(ValueError, match="^oracle reference requires a synthetic instance$"):
        get_reference(build_instance(config.instance), config)


def test_reference_solution_long_run_hits_kkt_target(tmp_path):
    config = _graph_config(tmp_path, "long-run")
    bundle = build_instance(config.instance)
    x, y, f = get_reference(bundle, config)
    assert kkt_residual(bundle.problem, x, y).max() <= 1e-10
    assert f == pytest.approx(bundle.problem.f(x))


def test_get_reference_long_run_cache_roundtrip(tmp_path):
    path = write_edge_list(tmp_path / "p2c.txt", [(0, 1)])
    spec = InstanceSpec(kind="graph", path=path, alpha=0.5, b=-0.05)
    bundle = build_instance(spec)
    config = ExperimentConfig(instance=spec, solver=SolverConfig(variant="rapdpro"),
                              reference_mode="long-run")
    x1, y1, f1 = get_reference(bundle, config)
    caches = [p for p in os.listdir(tmp_path) if p.startswith(".ref-")]
    assert len(caches) == 1
    cache = tmp_path / caches[0]
    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert payload["identity"] == bundle.identity
    # poison the stored primal point; a second call must read it back verbatim
    payload["x"] = bench._encode(np.full(x1.size, 42.0))
    cache.write_text(json.dumps(payload), encoding="utf-8")
    x2, _, _ = get_reference(bundle, config)
    assert np.array_equal(x2, 42.0 * np.ones_like(x1))
    # an identity mismatch invalidates the cache and recomputes
    payload["identity"] = "something else"
    cache.write_text(json.dumps(payload), encoding="utf-8")
    x3, _, f3 = get_reference(bundle, config)
    assert np.allclose(x3, x1, atol=1e-9) and f3 == pytest.approx(f1, abs=1e-12)


@pytest.mark.parametrize("n, level, index, before, after", [
    (2, 0.5, 1, 1.23456789012, 1.23456789099),  # the 10th digit
    (5000, 1.0, 2500, 1.0, 1.0 + 2.0**-40),  # a middle entry, where repr(center) summarizes
])
def test_synthetic_centers_that_differ_anywhere_get_their_own_cache(tmp_path, n, level, index, before, after):
    center = np.ones(n)
    center[index] = before
    other = center.copy()
    other[index] = after
    out = str(tmp_path / "trace.csv")
    bundles = [build_instance(InstanceSpec(kind="synthetic", n=n, center=c, level=level))
               for c in (center, center.copy(), other)]
    assert bundles[0].identity == bundles[1].identity
    assert bundles[0].identity != bundles[2].identity
    assert bench._cache_path(bundles[0], out) != bench._cache_path(bundles[2], out)


def test_numpy_and_python_floats_key_one_cache_entry(tmp_path):
    """alpha, b and level are stored as Python floats: a value given as np.float64 is the same instance."""
    path = write_edge_list(tmp_path / "p2.txt", [(0, 1)])
    out = str(tmp_path / "trace.csv")
    pairs = (
        (InstanceSpec(kind="graph", path=path, alpha=0.5, b=-0.05),
         InstanceSpec(kind="graph", path=path, alpha=np.float64(0.5), b=np.float64(-0.05))),
        (InstanceSpec(kind="synthetic", n=2, center=np.array([2.0, -1.0]), level=1.0),
         InstanceSpec(kind="synthetic", n=2, center=np.array([2.0, -1.0]), level=np.float64(1.0))),
    )
    for plain, numpy_spec in pairs:
        assert all(type(getattr(numpy_spec, name)) is float for name in ("alpha", "b", "level"))
        bundles = [build_instance(spec) for spec in (plain, numpy_spec)]
        assert "np.float64" not in bundles[1].identity
        assert bundles[0].identity == bundles[1].identity
        assert bench._cache_path(bundles[0], out) == bench._cache_path(bundles[1], out)


def test_get_reference_recomputes_a_truncated_cache(tmp_path, monkeypatch):
    path = write_edge_list(tmp_path / "p2t.txt", [(0, 1)])
    spec = InstanceSpec(kind="graph", path=path, alpha=0.5, b=-0.05)
    bundle = build_instance(spec)
    config = ExperimentConfig(instance=spec, solver=SolverConfig(variant="rapdpro"),
                              reference_mode="long-run")
    x1, y1, f1 = get_reference(bundle, config)
    (cache,) = [tmp_path / p for p in os.listdir(tmp_path) if p.startswith(".ref-")]
    text = cache.read_text(encoding="utf-8")
    calls = []
    original = bench._solve_reference
    monkeypatch.setattr(bench, "_solve_reference", lambda *a: calls.append(a) or original(*a))
    payload = json.loads(text)
    stale = [
        dict(payload, x=x1.tolist(), y=y1.tolist()),  # the JSON-list format, written before the base64 payload
        dict(payload, x=payload["x"][:-4] + "*==="),  # bad base64
        dict(payload, x=bench._encode(x1[:-1])),  # n - 1 entries
        dict(payload, y=bench._encode(np.append(y1, 1.0))),  # m + 1 entries
    ]
    for broken in (text[: len(text) // 2], "", "[1, 2]", '{"identity": 3}', *map(json.dumps, stale)):
        cache.write_text(broken, encoding="utf-8")
        for _ in range(2):  # recomputed once, then read back
            x2, y2, f2 = get_reference(bundle, config)
            assert np.array_equal(x2, x1) and np.array_equal(y2, y1) and f2 == f1
        assert cache.read_text(encoding="utf-8") == text  # rewritten in the base64 format
    assert len(calls) == 8
    assert [p for p in os.listdir(tmp_path) if p.startswith(".ref-")] == [cache.name]


@pytest.mark.parametrize("fail", ["dump", "replace"])
def test_a_failed_cache_write_removes_its_temp_file_and_keeps_the_cache(tmp_path, monkeypatch, fail):
    """When the dump or os.replace fails, the exception propagates, the temp file is gone, and
    the cache already on disk is left as it was."""
    path = tmp_path / ".ref-test.json"
    bench._write_cache(str(path), {"identity": "old"})
    before = path.read_bytes()
    payload = {"identity": "new"}
    if fail == "dump":
        payload["x"] = object()  # json cannot encode it
        expected = TypeError
    else:
        def refuse(src, dst):
            raise PermissionError(f"refused: {src} -> {dst}")
        monkeypatch.setattr(bench.os, "replace", refuse)
        expected = PermissionError
    with pytest.raises(expected):
        bench._write_cache(str(path), payload)
    assert os.listdir(tmp_path) == [path.name]
    assert path.read_bytes() == before


def test_cache_payload_reads_back_bit_exact(tmp_path):
    x = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0, -7.25, np.pi])
    y = np.array([2.0**-1074 * 3])
    path = tmp_path / ".ref-test.json"
    bench._write_cache(str(path), {"identity": "id", "x": bench._encode(x), "y": bench._encode(y), "f": 0.1})
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(payload["x"], str) and isinstance(payload["y"], str)
    cached = bench._read_cache(str(path), "id", x.size, y.size)
    for got, want in ((cached["x"], x), (cached["y"], y)):
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tobytes() == want.tobytes()  # bit for bit: -0.0 and the subnormals too
    assert cached["f"] == 0.1
    assert bench._read_cache(str(path), "id", x.size - 1, y.size) is None
    assert bench._read_cache(str(path), "id", x.size, y.size + 1) is None


_RACE_WRITER = """
import os, sys, time
from apdpro.bench import ExperimentConfig, InstanceSpec, build_instance, get_reference
from apdpro.solvers import SolverConfig

graph, b, sync, tag = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4]
spec = InstanceSpec(kind="graph", path=graph, alpha=0.2, b=b)
bundle = build_instance(spec)
config = ExperimentConfig(instance=spec, solver=SolverConfig(variant="rapdpro"), reference_mode="long-run")
open(os.path.join(sync, "ready-" + tag), "w").close()
deadline = time.monotonic() + 60.0
while not os.path.exists(os.path.join(sync, "go")) and time.monotonic() < deadline:
    time.sleep(0.001)
x, y, f = get_reference(bundle, config)
print(x.tobytes().hex(), y.tobytes().hex(), float(f).hex())
"""


def test_writers_racing_on_one_cache_agree_bit_for_bit(tmp_path, small_graph_bundle):
    """Three processes build the 30-node instance, wait at a barrier, then call get_reference in
    long-run mode on one cache path at once: each reads the same bits, and one cache file remains."""
    graph_dir, sync = tmp_path / "graph", tmp_path / "sync"
    graph_dir.mkdir()
    sync.mkdir()
    graph = write_edge_list(graph_dir / "g30.txt", chorded_path_edges(30, 60, seed=5))  # the fixture's graph
    b = float(small_graph_bundle.problem.quadratic[1][0])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                                     os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", _RACE_WRITER, graph, repr(b), str(sync), str(i)],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for i in range(3)]
    try:
        deadline = time.monotonic() + 60.0
        while len(os.listdir(sync)) < len(procs) and time.monotonic() < deadline:
            time.sleep(0.005)
        (sync / "go").touch()
        results = [proc.communicate(timeout=60) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err[-2000:]
    outputs = {out for out, _ in results}
    assert len(outputs) == 1
    left = os.listdir(graph_dir)
    caches = [p for p in left if p.startswith(".ref-") and p.endswith(".json")]
    assert len(caches) == 1
    assert not [p for p in left if p.endswith(".tmp")]
    identity = build_instance(InstanceSpec(kind="graph", path=graph, alpha=0.2, b=b)).identity
    cached = bench._read_cache(str(graph_dir / caches[0]), identity, 30, 1)
    assert outputs.pop().split() == [cached["x"].tobytes().hex(), cached["y"].tobytes().hex(), cached["f"].hex()]


def _without_quadratic(bundle):
    """The bundle with its quadratic structure dropped: no exact solve, only the long run."""
    return dataclasses.replace(bundle, problem=dataclasses.replace(bundle.problem, quadratic=None))


def test_get_reference_unconverged_warns_and_returns_none(tmp_path, monkeypatch):
    path = write_edge_list(tmp_path / "p2u.txt", [(0, 1)])
    spec = InstanceSpec(kind="graph", path=path, alpha=0.5, b=-0.05)
    bundle = _without_quadratic(build_instance(spec))
    config = ExperimentConfig(instance=spec, solver=SolverConfig(variant="rapdpro"), reference_mode="long-run")
    monkeypatch.setattr(bench, "_REFERENCE_ITERS", 5)
    monkeypatch.setattr(bench, "_REFERENCE_EPOCHS", 1)
    with pytest.warns(UserWarning, match="reference unavailable"):
        assert get_reference(bundle, config) is None


def _ppr_case(tmp_path, edges, alpha, level, s="uniform"):
    """(bundle, b) for the PageRank instance on ``edges`` at ``level`` times g's unconstrained minimum."""
    path = write_edge_list(tmp_path / "graph.txt", edges)
    probe = build_ppr_problem(load_graph(path), alpha=alpha, b=-1e-12, s=s)
    b = level * (float(probe.g(probe.strict_point)[0]) - 1e-12)
    return build_instance(InstanceSpec(kind="graph", path=path, alpha=alpha, b=b, s=s)), b


@pytest.mark.parametrize("edges, alpha, level, s", [
    (chorded_path_edges(30, 60, seed=5), 0.2, 0.5, "uniform"),
    (star_edges(20), 0.4, 0.95, "seed:1"),
    (chorded_path_edges(300, 900, seed=7), 0.15, 0.5, "uniform"),
    (chorded_path_edges(300, 900, seed=7), 0.15, 0.1, "uniform"),
    (chorded_path_edges(300, 900, seed=7), 0.15, 0.99, "seed:3"),
    (chorded_path_edges(300, 900, seed=7), 0.15, 0.1, "seed:3"),
], ids=["g30", "star20-seed1", "g300-uniform-0.5", "g300-uniform-0.1", "g300-seed3-0.99", "g300-seed3-0.1"])
def test_exact_reference_matches_the_long_run_and_a_dense_kkt_check(tmp_path, edges, alpha, level, s):
    bundle, b = _ppr_case(tmp_path, edges, alpha, level, s)
    x, y, kkt, how = bench._solve_reference(bundle)
    assert how["method"] == "active-set" and kkt <= 1e-10
    x_long, y_long, _, how_long = bench._solve_reference(_without_quadratic(bundle))
    assert how_long == {"method": "long-run"}
    assert np.array_equal(x != 0, x_long != 0)
    assert np.max(np.abs(x - x_long)) <= 1e-9
    n = bundle.problem.n
    teleport = np.full(n, 1.0 / n) if s == "uniform" else np.eye(n)[int(s[5:])]
    for point in ((x, y), (x_long, y_long)):
        stationarity, complementarity = ppr_kkt_oracle(n, edges, alpha, teleport, b, *point)
        assert stationarity <= 1e-10 and complementarity <= 1e-10
    if s == "seed:1":
        assert np.count_nonzero(x) == 1


def _sign_flip(sigma, x, jac, bound):
    return -sigma  # a two-cycle: sigma, -sigma, sigma


@pytest.mark.parametrize("force", ["cycling signs", "step cap", "CG stall"])
def test_exact_reference_falls_back_to_the_long_run(tmp_path, monkeypatch, force):
    bundle, _ = _ppr_case(tmp_path, star_edges(20), 0.4, 0.95, "seed:1")  # two active-set steps
    calls = []
    if force == "cycling signs":
        monkeypatch.setattr(bench, "_update_signs", lambda *a: calls.append(a) or _sign_flip(*a))
    elif force == "step cap":
        monkeypatch.setattr(bench, "_ACTIVE_SET_STEPS", 1)
    else:
        def stall(*a, **kw):
            raise NumericalError("conjugate gradients stalled at relative residual 1e-3")
        monkeypatch.setattr(bench, "cg_solve", stall)
    if force == "CG stall":
        with pytest.raises(NumericalError):
            bench._active_set_kkt(bundle.problem)
    else:
        assert bench._active_set_kkt(bundle.problem) is None
    if force == "cycling signs":
        assert len(calls) == 2  # the third pattern repeats the first
    x, y, kkt, how = bench._solve_reference(bundle)
    assert how == {"method": "long-run"}
    assert kkt <= 1e-10 and kkt_residual(bundle.problem, x, y).max() == kkt


def test_exact_reference_applies_q_through_the_oracle(monkeypatch, small_graph_bundle):
    """Every Q mat-vec of the exact reference is a ``jacobian`` call: the CG mat-vecs, one sign
    update per step and the KKT check's J. The KKT check makes the only ``constraints`` call."""
    problem, calls = small_graph_bundle.problem, {"g": 0, "jac": 0, "cg": 0}

    def constraints(x):
        calls["g"] += 1
        return problem.constraints(x)

    def jacobian(x):
        calls["jac"] += 1
        return problem.jacobian(x)

    counted = dataclasses.replace(problem, constraints=constraints, jacobian=jacobian)
    calls.update(g=0, jac=0)  # forget the structure check's calls at construction
    original = bench.cg_solve

    def cg_solve(matvec, *a, **kw):
        def counting(v):
            calls["cg"] += 1
            return matvec(v)
        return original(counting, *a, **kw)

    monkeypatch.setattr(bench, "cg_solve", cg_solve)
    _, _, _, how = bench._solve_reference(dataclasses.replace(small_graph_bundle, problem=counted))
    assert how == {"method": "active-set", "steps": 1}
    assert calls["cg"] > 0 and calls["jac"] == calls["cg"] + how["steps"] + 1 and calls["g"] == 1


@pytest.mark.parametrize("case, steps", [("one step", 1), ("star20-seed1", 2)])
def test_active_set_makes_two_cg_solves_per_step(tmp_path, monkeypatch, small_graph_bundle, case, steps):
    if case == "one step":
        problem = small_graph_bundle.problem
    else:
        problem = _ppr_case(tmp_path, star_edges(20), 0.4, 0.95, "seed:1")[0].problem
    calls = []
    original = bench.cg_solve
    monkeypatch.setattr(bench, "cg_solve", lambda *a, **kw: calls.append(a) or original(*a, **kw))
    _, _, taken = bench._active_set_kkt(problem)
    assert taken == steps and len(calls) == 2 * steps


def test_reference_cache_records_the_method(small_graph_bundle, tmp_path, capsys):
    bundle = dataclasses.replace(small_graph_bundle, cache_dir=str(tmp_path))
    config = ExperimentConfig(instance=InstanceSpec(kind="graph", path="unused"),
                              solver=SolverConfig(variant="rapdpro"), reference_mode="long-run")
    x, y, f = get_reference(bundle, config)
    (cache,) = [tmp_path / p for p in os.listdir(tmp_path) if p.startswith(".ref-")]
    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert payload["method"] == "active-set" and payload["steps"] == 1
    assert payload["kkt"] == kkt_residual(bundle.problem, x, y).max() <= 1e-10
    # An older cache without the new keys still loads.
    for key in ("method", "steps", "kkt"):
        del payload[key]
    cache.write_text(json.dumps(payload), encoding="utf-8")
    x2, y2, f2 = get_reference(bundle, config)
    assert np.array_equal(x2, x) and np.array_equal(y2, y) and f2 == f


def test_load_experiment_config_full(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[instance]\nkind = synthetic\nn = 2\ncenter = 1.5\nlevel = 0.5\n"
        "[solver]\nvariant = rapdpro\nvariants = apdpro, apd\nmax_iters = 300\n"
        "max_epochs = 4\nrestart_period = inf\n"
        "[reference]\nmode = oracle\n"
        "[output]\npath = out.csv\n",
        encoding="utf-8",
    )
    cfg = load_experiment_config(str(path))
    assert cfg.instance.kind == "synthetic" and cfg.instance.n == 2
    assert cfg.instance.center == 1.5 and cfg.instance.level == 0.5
    assert cfg.solver.variant == "rapdpro" and cfg.solver.max_iters == 300
    assert cfg.solver.max_epochs == 4
    assert cfg.solver.restart_period == float("inf")
    assert cfg.variants == ("apdpro", "apd")
    assert cfg.reference_mode == "oracle"
    assert cfg.output_path == "out.csv"


def test_load_experiment_config_rejects_typos(tmp_path):
    def load(text):
        p = tmp_path / "bad.ini"
        p.write_text(text, encoding="utf-8")
        return load_experiment_config(str(p))

    with pytest.raises(ValueError, match="unknown key"):
        load("[instance]\nkind = synthetic\nnn = 3\n")
    with pytest.raises(ValueError, match=r"unknown section \[solvers\]"):
        load("[instance]\nkind = synthetic\n[solvers]\nvariant = apd\n")
    with pytest.raises(ValueError, match=r"missing \[instance\]"):
        load("[solver]\nvariant = apd\n")
    # The reporting point follows the variant; the key that once overrode it is gone.
    with pytest.raises(ValueError, match="unknown key 'metric_iterate'"):
        load("[instance]\n[solver]\nmetric_iterate = ergodic\n")
    # Step sizes come from the problem's constants; the keys that once overrode them are gone.
    with pytest.raises(ValueError, match="unknown key 'tau0'"):
        load("[instance]\n[solver]\ntau0 = 0.1\n")
    # Runs start at zeros, active_set_acc reads zeros below 1e-8, and the long run has a fixed budget.
    for section, key, value in (
        ("solver", "x0", "strict"),
        ("reference", "path", "ref.json"),
        ("reference", "budget_iters", "50"),
        ("reference", "budget_epochs", "4"),
        ("reference", "truncation", "1e-6"),
    ):
        with pytest.raises(ValueError, match=rf"unknown key '{key}' in \[{section}\]$"):
            load(f"[instance]\n[{section}]\n{key} = {value}\n")
    with pytest.raises(ValueError, match="^unknown reference mode 'file'$"):
        load("[instance]\n[reference]\nmode = file\n")
    with pytest.raises(ValueError, match="unknown variant 'rapdpr'"):
        load("[instance]\n[solver]\nvariants = apdpro, rapdpr\n")
    # A repeated variant would run twice and write its CSV twice.
    with pytest.raises(ValueError, match="^variant 'apd' is listed twice in variants$"):
        load("[instance]\n[solver]\nvariants = apd, apdpro, apd\n")
    # A file configparser cannot read is one line naming the file and the line, not its traceback.
    for text, line in (
        ("[instance]\nkind = synthetic\nkind = graph\n", 3),  # a repeated key
        ("[instance]\n[solver]\n[instance]\n", 3),  # a repeated section
        ("kind = synthetic\n[instance]\n", 1),  # no section header
        ("[instance]\nkind\n", 2),  # no '='
    ):
        with pytest.raises(ValueError) as info:
            load(text)
        message = str(info.value)
        assert "\n" not in message and str(tmp_path / "bad.ini") in message, message
        assert re.search(rf"\bline:? {line}\b", message), message


# One non-default value per field: (INI text, parsed value).
SOLVER_VALUES = {
    "variant": ("msapd", "msapd"),
    "max_iters": ("1234", 1234),
    "max_epochs": ("9", 9),
    "restart_period": ("37", 37.0),
    "tolerance": ("1e-7", 1e-7),
}
INSTANCE_VALUES = {
    "kind": ("graph", "graph"),
    "n": ("7", 7),
    "center": ("3.5", 3.5),
    "level": ("0.25", 0.25),
    "path": ("g.txt", "g.txt"),
    "alpha": ("0.2", 0.2),
    "b": ("-0.001", -0.001),
    "s": ("node:3", "node:3"),
    "r_rule": ("half", "half"),
}


def _load_text(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return load_experiment_config(str(path))


@pytest.mark.parametrize("field", dataclasses.fields(SolverConfig), ids=lambda f: f.name)
def test_load_experiment_config_reads_every_solver_field(tmp_path, field):
    text, value = SOLVER_VALUES[field.name]
    assert value != field.default
    cfg = _load_text(tmp_path, f"[instance]\n[solver]\n{field.name} = {text}\n")
    got = getattr(cfg.solver, field.name)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("field", dataclasses.fields(InstanceSpec), ids=lambda f: f.name)
def test_load_experiment_config_reads_every_instance_field(tmp_path, field):
    text, value = INSTANCE_VALUES[field.name]
    assert value != field.default
    path = "path = g.txt\n" if field.name == "kind" else ""  # graph instances need one
    cfg = _load_text(tmp_path, f"[instance]\n{path}{field.name} = {text}\n")
    got = getattr(cfg.instance, field.name)
    assert got == value and type(got) is type(value)


def test_run_experiment_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    res1 = run_experiment(_synthetic_config(
        solver=SolverConfig(variant="apdpro", max_iters=400), output_path=out1))["apdpro"]
    res2 = run_experiment(_synthetic_config(
        solver=SolverConfig(variant="apdpro", max_iters=400), output_path=out2))["apdpro"]
    assert len(res1.trace) == len(res2.trace) == 400
    for a, b in zip(res1.trace, res2.trace):
        assert (a.iter, a.epoch, a.objective, a.rel_gap, a.feas_violation,
                a.rho, a.tau, a.sigma, a.active_set_acc) == \
               (b.iter, b.epoch, b.objective, b.rel_gap, b.feas_violation,
                b.rho, b.tau, b.sigma, b.active_set_acc)


def test_canonical_long_trace_reaches_tiny_gap(tmp_path):
    out = str(tmp_path / "run.csv")
    run_experiment(_synthetic_config(output_path=out))
    lines = pathlib.Path(out).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2001
    final = lines[-1].split(",")
    assert float(final[3]) <= 1e-6


def test_rapdpro_gap_windows_soft_nonincreasing():
    res = run_experiment(_synthetic_config(
        solver=SolverConfig(variant="rapdpro", max_iters=2000, max_epochs=12)))["rapdpro"]
    gaps = np.array([r.rel_gap for r in res.trace])
    w = 50
    means = [max(float(gaps[i:i + w].mean()), 1e-14)
             for i in range(0, len(gaps) - w + 1, w)]
    assert len(means) >= 5
    for prev, cur in zip(means, means[1:]):
        assert cur <= 10.0 * prev


def test_rapdpro_active_set_reaches_one_and_keeps_it():
    problem, x_star, y_star = make_synthetic_instance(3, np.array([2.0, 0.05, 1.5]), 1.0)
    constants = derive_constants(problem)
    cfg = SolverConfig(variant="rapdpro", max_iters=2000, max_epochs=8)
    recorder = make_recorder(problem, "rapdpro", cfg, (x_star, y_star, problem.f(x_star)))
    res = rapdpro(problem, constants, cfg, np.zeros(3), np.zeros(1), recorder=recorder)
    accs = np.array([r.active_set_acc for r in res.trace])
    hits = np.nonzero(accs >= 1.0)[0]
    assert hits.size > 0
    assert np.all(accs[hits[0]:] >= 1.0)


def test_comparison_estimated_steps_beat_constant_steps(tmp_path):
    out = str(tmp_path / "cmp.csv")
    config = _synthetic_config(
        solver=SolverConfig(variant="apdpro", max_iters=2000),
        variants=("apdpro", "apd"),
        output_path=out,
    )
    results = run_experiment(config)
    assert list(results) == ["apdpro", "apd"]
    assert os.path.exists(tmp_path / "cmp-apdpro.csv")
    assert os.path.exists(tmp_path / "cmp-apd.csv")

    def first_hit(trace):
        for r in trace:
            if r.rel_gap is not None and r.rel_gap <= 1e-6:
                return r.iter
        return None

    fast = first_hit(results["apdpro"].trace)
    slow = first_hit(results["apd"].trace)
    assert fast is not None
    assert slow is None or fast < slow


def test_load_experiment_config_strips_inline_comments(tmp_path):
    # A ';' after whitespace starts a comment; one inside a value is kept.
    cfg = _load_text(tmp_path, "[instance]\nkind = graph\nn = 5 ; c\nr_rule = degree\t; note\npath = a;b\n")
    assert cfg.instance.n == 5
    assert cfg.instance.r_rule == "degree"
    assert cfg.instance.path == "a;b"


@pytest.mark.parametrize("section, key, raw, kind", [
    ("instance", "n", "1e3", "int"),
    ("solver", "tolerance", "1e-7x", "float"),
])
def test_load_experiment_config_conversion_error_names_file_section_and_key(tmp_path, section, key, raw, kind):
    head = "" if section == "instance" else "[instance]\n"
    with pytest.raises(ValueError) as info:
        _load_text(tmp_path, f"{head}[{section}]\n{key} = {raw}\n")
    assert str(info.value) == f"{tmp_path / 'exp.ini'}: [{section}] {key} = {raw!r}: expected {kind}"
