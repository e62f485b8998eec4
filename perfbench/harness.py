"""Rounds, correctness gate and metrics of the apdpro benchmark.

A run repeats one *round* -- every instance of the workload, from its input
on disk to its last CSV on disk -- until ``--seconds`` is used up. Rounds are
hermetic: each gets a fresh temporary directory under the checkout, which
holds the edge lists, the CSVs and the ``.ref-*.json`` reference cache, and
is removed afterwards, so every long-run reference is computed cold. Times
are medians over rounds; counts are identical in every round, and the gate
checks that they are.

With ``--trace 1`` the rounds alternate untraced and traced. The traced
rounds give the per-layer metrics; the untraced ones the base for the
tracing overhead and for the check that tracing leaves the CSVs unchanged.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from apdpro import bench, solvers
from apdpro.problem import kkt_residual

import hostspeed
import tracing
from workloads import WORKLOADS, Instance

REFERENCE_KKT = 1e-10
TRUNCATION = 1e-8

END_TO_END_UNITS = {
    "setup_s": "s",
    "reference_s": "s",
    "solve_s": "s",
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "baseline_us_per_iter": "us",
    "total_s": "s",
    "iters_to_tol": "count",
    "peak_rss_mb": "MB",
}

VARIANTS = tuple(tracing.SOLVER_ATTRS)


@dataclass
class SolveOutcome:
    label: str
    variant: str
    tolerance: float
    max_iters: int
    seconds: float
    iters: int
    termination: str
    final_gap: float | None
    final_feas: float
    finite: bool
    csv_path: str
    csv_s: float
    csv_digest: str = ""
    probe: tracing.SolveProbe | None = None


@dataclass
class RoundResult:
    traced: bool
    pieces: list = field(default_factory=list)  # (key, seconds)
    probe_s: list = field(default_factory=list)  # host probe times
    total_s: float = 0.0
    solves: list = field(default_factory=list)
    references: list = field(default_factory=list)  # (label, computed cold, problem, reference)
    failures: list = field(default_factory=list)  # (solve key, message)
    span_range: tuple = (0, 0)
    layers: dict = field(default_factory=dict)


def _write_edges(path: str, edges: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{u} {v}" for u, v in edges.tolist()))
        fh.write("\n")


def _csv_digest(path: str) -> str:
    """sha256 of the CSV with the elapsed_s column dropped."""
    h = hashlib.sha256()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            h.update(line.rstrip("\n").rsplit(",", 1)[0].encode())
            h.update(b"\n")
    return h.hexdigest()


def _solve_config(solve) -> solvers.SolverConfig:
    return solvers.SolverConfig(
        variant=solve.variant,
        tolerance=solve.tolerance,
        max_iters=solve.max_iters,
        max_epochs=solve.max_epochs,
    )


def run_round(instances: list[Instance], workdir: str, tracer: tracing.Tracer | None,
              probe: hostspeed.HostProbe) -> RoundResult:
    """One pass over every instance: build, reference, solves, CSVs.

    The host probe runs first and after every solve; its time is left out
    of the round's. Failures are recorded, never raised; an instance whose
    setup or reference fails counts all of its solves as failed.
    """
    rr = RoundResult(traced=tracer is not None)
    paths = {}
    for inst in instances:
        os.mkdir(os.path.join(workdir, inst.label))
        if inst.edges is not None:
            paths[inst.label] = os.path.join(workdir, inst.label, "graph.edges")
            _write_edges(paths[inst.label], inst.edges)
    rr.probe_s.append(probe.sample())
    t_round = perf_counter()
    for inst in instances:
        instdir = os.path.join(workdir, inst.label)
        spec = bench.InstanceSpec(path=paths.get(inst.label), **inst.spec)
        try:
            t0 = perf_counter()
            bundle = bench.build_instance(spec)
            rr.pieces.append((("setup", inst.label), perf_counter() - t0))
            plain_problem = bundle.problem
            if tracer is not None:
                bundle = tracing.traced_bundle(tracer, bundle)
            config = bench.ExperimentConfig(
                instance=spec,
                solver=solvers.SolverConfig(),
                reference_mode=inst.reference_mode,
                output_path=os.path.join(instdir, "trace.csv"),
            )
            cached_before = _ref_files(instdir)
            t0 = perf_counter()
            reference = bench.get_reference(bundle, config)
            rr.pieces.append((("reference", inst.label), perf_counter() - t0))
            if reference is None:
                raise RuntimeError("reference unavailable")
            if inst.reference_mode == "long-run":
                cold = not cached_before and len(_ref_files(instdir)) == 1
                rr.references.append((inst.label, cold, plain_problem, reference))
        except Exception:  # noqa: BLE001 - counted as failures, see docstring
            for solve in inst.solves:
                rr.failures.append(((inst.label, solve.variant), f"instance setup/reference: {traceback.format_exc()}"))
            continue
        for solve in inst.solves:
            try:
                outcome = _run_solve(inst.label, bundle, solve, reference, instdir, tracer)
                rr.solves.append(outcome)
                rr.pieces.append((("solve", inst.label, solve.variant), outcome.seconds))
                rr.pieces.append((("csv", inst.label, solve.variant), outcome.csv_s))
            except Exception:  # noqa: BLE001
                rr.failures.append(((inst.label, solve.variant), f"solve raised: {traceback.format_exc()}"))
            rr.probe_s.append(probe.sample())
    rr.total_s = perf_counter() - t_round - sum(rr.probe_s[1:])
    for s in rr.solves:
        s.csv_digest = _csv_digest(s.csv_path)
    return rr


def _ref_files(instdir: str) -> list[str]:
    return [f for f in os.listdir(instdir) if f.startswith(".ref-")]


def _run_solve(label, bundle, solve, reference, instdir, tracer) -> SolveOutcome:
    problem = bundle.problem
    scfg = _solve_config(solve)
    recorder = bench.make_recorder(problem, solve.variant, scfg, reference, TRUNCATION)
    probe = None
    if tracer is not None:
        probe = tracing.SolveProbe()
        recorder = tracing.traced_recorder(tracer, recorder, probe)
    runner = getattr(solvers, tracing.SOLVER_ATTRS[solve.variant])
    x0, y0 = np.zeros(problem.n), np.zeros(problem.m)
    t0 = perf_counter()
    result = runner(problem, bundle.constants, scfg, x0, y0, recorder=recorder, f_star=reference[2])
    seconds = perf_counter() - t0
    path = os.path.join(instdir, f"trace-{solve.variant}.csv")
    t0 = perf_counter()
    bench.write_csv(path, result.trace)
    csv_s = perf_counter() - t0
    last = result.trace[-1] if result.trace else None
    return SolveOutcome(
        label=label,
        variant=solve.variant,
        tolerance=solve.tolerance,
        max_iters=solve.max_iters,
        seconds=seconds,
        iters=result.state.k,
        termination=result.termination,
        final_gap=None if last is None else last.rel_gap,
        final_feas=math.inf if last is None else last.feas_violation,
        finite=bool(np.all(np.isfinite(result.x)) and np.all(np.isfinite(result.y))),
        csv_path=path,
        csv_s=csv_s,
        probe=probe,
    )


def check_round(rr: RoundResult, first: RoundResult | None) -> None:
    """The correctness gate; appends one failure per offending solve.

    Tolerance solves must stop on tolerance with max(rel_gap, feas) within
    it; fixed-budget solves must run their budget. Every solve must match
    the first round in iteration count and in every CSV column except
    elapsed_s. A long-run reference must be computed, not read from a cache,
    and reach KKT residual <= 1e-10.
    """
    baseline = {} if first is None else {(s.label, s.variant): s for s in first.solves}
    for s in rr.solves:
        key = (s.label, s.variant)
        problems = []
        if not s.finite:
            problems.append("non-finite final iterate")
        if s.tolerance > 0:
            if s.termination != "tolerance":
                problems.append(f"termination {s.termination!r}, expected 'tolerance'")
            if s.final_gap is None or max(s.final_gap, s.final_feas) > s.tolerance:
                problems.append(f"final gap {s.final_gap} / feas {s.final_feas} above {s.tolerance}")
        elif s.iters != s.max_iters or s.termination != "completed":
            problems.append(f"fixed budget: {s.iters} iterations, termination {s.termination!r}")
        ref = baseline.get(key)
        if ref is not None:
            if ref.iters != s.iters:
                problems.append(f"iterations {s.iters} differ from round 0's {ref.iters}")
            if ref.csv_digest != s.csv_digest:
                problems.append("CSV differs from round 0's outside elapsed_s")
        for msg in problems:
            rr.failures.append((key, msg))
    for label, cold, problem, (x, y, _) in rr.references:
        if not cold:
            rr.failures.append(((label, "reference"), "reference was read from a cache, not computed"))
        resid = kkt_residual(problem, x, y).max()
        if not resid <= REFERENCE_KKT:
            rr.failures.append(((label, "reference"), f"reference KKT residual {resid:.3g} > {REFERENCE_KKT}"))
    rr.references.clear()  # release the problems and reference vectors


def planned_checks(instances: list[Instance]) -> int:
    """Solves plus long-run references of one round: the unit of fail_frac."""
    return sum(len(inst.solves) + (inst.reference_mode == "long-run") for inst in instances)


def scaled_pieces(rounds: list[RoundResult], nominal: float | None = hostspeed.NOMINAL_S) -> dict:
    """Each piece's time at the nominal host speed, median over rounds.

    Every piece of a round, and the rest of the round (time outside the
    pieces), is divided by the round's mean probe time over ``nominal``;
    ``nominal=None`` leaves the times unscaled. The host changes speed
    within a second, so a round's mean probe time tracks it better than the
    two probes around a piece would (README.md, "Statistics").
    """
    per_key: dict = {}
    for rr in rounds:
        speed = statistics.mean(rr.probe_s) / nominal if nominal else 1.0
        rest = rr.total_s - sum(seconds for _, seconds in rr.pieces)
        for key, seconds in rr.pieces + [(("rest",), rest)]:
            per_key.setdefault(key, []).append(seconds / speed)
    return {key: statistics.median(v) for key, v in per_key.items()}


def end_to_end(rounds: list[RoundResult], nominal: float | None = hostspeed.NOMINAL_S) -> dict:
    """Every end-to-end metric of a run's untraced rounds."""
    first = rounds[0].solves
    piece = scaled_pieces(rounds, nominal)

    def total(kind, solves=None):
        keys = None if solves is None else {("solve", s.label, s.variant) for s in solves}
        return sum(t for key, t in piece.items() if key[0] == kind and (keys is None or key in keys))

    to_tol = [s for s in first if s.tolerance > 0]
    apd = [s for s in first if s.variant == "apd"]
    values = {
        "setup_s": total("setup"),
        "reference_s": total("reference"),
        "solve_s": total("solve", to_tol),
        "baseline_us_per_iter": 1e6 * total("solve", apd) / max(1, sum(s.iters for s in apd)),
        "total_s": sum(piece.values()),
    }
    latencies = [1e3 * piece[("solve", s.label, s.variant)] for s in to_tol]
    if len(latencies) >= 2:
        values["solve_ms.p50"] = statistics.median(latencies)
        values["solve_ms.p90"] = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    else:
        values["solve_ms.p50"] = values["solve_ms.p90"] = latencies[0] if latencies else 0.0
    values["iters_to_tol"] = sum(s.iters for s in to_tol)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


# -- per-layer metrics from a traced round ----------------------------------


def _oracle_bytes(bundle_kind: str, n: int, nnz: int) -> tuple[float, float]:
    """Computed bytes moved by one constraints call and one jacobian call.

    PageRank: each call is one Q mat-vec, i.e. CSR values, column indices
    and the gathered x entry per nonzero (8+4+8 B), row pointers, and 15
    streamed n-vectors of 8 B for the elementwise work around the sparse
    product; constraints adds two dot products (4 vectors), jacobian one
    subtraction (3 vectors). Synthetic: d = x - c and d'd stream 5 vectors;
    the jacobian x - c streams 3. A model, not a measurement.
    """
    if bundle_kind == "graph":
        matvec = 20 * nnz + 4 * (n + 1) + 15 * 8 * n
        return matvec + 4 * 8 * n, matvec + 3 * 8 * n
    return 5 * 8 * n, 3 * 8 * n


def per_layer(tracer: tracing.Tracer, rr: RoundResult, oracle_bytes: dict) -> dict:
    """Per-layer metrics of one traced round (spans rr.span_range)."""
    i0, i1 = rr.span_range
    a = tracer.arrays(i0, i1)
    dur = a["end"] - a["start"]
    names = tracer.names
    nid = a["name_id"]

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def secs(*wanted):
        return float(dur[np.isin(nid, ids(*wanted))].sum())

    def calls(*wanted):
        return int(np.isin(nid, ids(*wanted)).sum())

    out = {
        "pagerank.load_graph.s": secs("pagerank.load_graph"),
        "pagerank.build_ppr_problem.s": secs("pagerank.build_ppr_problem"),
        "bench.build_instance.s": secs("bench.build_instance"),
        "linalg.power_iteration.s": secs("linalg.power_iteration"),
        "linalg.power_iteration.matvecs": tracer.counts["linalg.power_iteration.matvecs"],
        "linalg.cg_solve.s": secs("linalg.cg_solve"),
        "linalg.cg_solve.matvecs": tracer.counts["linalg.cg_solve.matvecs"],
        "problem.oracle.calls": calls("problem.oracle"),
        "problem.oracle.s": secs("problem.oracle"),
        "problem.jacobian_operator_norm.s": secs("problem.jacobian_operator_norm"),
        "problem.kkt_residual.calls": calls("problem.kkt_residual"),
        "problem.kkt_residual.s": secs("problem.kkt_residual"),
        "problem.block_norms.s": secs("problem.block_norms"),
        "prox.prox_f_over_ball.s": secs("prox.prox_f_over_ball"),
        "prox.project_dual_set.s": secs("prox.project_dual_set"),
        "estimator.s": secs("estimator.h1", "estimator.h2", "estimator.advance"),
        "bench.get_reference.s": secs("bench.get_reference"),
        "bench.recorder.s": secs("bench.recorder"),
        "bench.recorder.calls": calls("bench.recorder"),
        "bench.write_csv.s": secs("bench.write_csv"),
        "bench.write_csv.bytes": sum(os.path.getsize(s.csv_path) for s in rr.solves if os.path.exists(s.csv_path)),
    }
    prox_calls = calls("prox.prox_f_over_ball")
    soft = tracer.live[tracing.SOFT_THRESHOLD_CALLS]
    out["prox.bisect_steps_per_call"] = soft / prox_calls - 1.0 if prox_calls else 0.0

    # Solver spans: self time over the benchmark's solves, iterations of the
    # long-run reference (a rapdpro span under bench.get_reference).
    solver_ids = ids(*(f"solvers.{v}" for v in VARIANTS))
    is_solver = np.isin(nid, solver_ids)
    par = a["parent"]
    nested = par >= 0
    child = np.bincount(par[nested] - i0, weights=dur[nested], minlength=i1 - i0)
    solve_spans = is_solver & (a["phase"] == tracing.SOLVE)
    out["solvers.self_s"] = float((dur - child)[solve_spans].sum())
    ref_spans = np.flatnonzero(is_solver & (a["phase"] == tracing.REFERENCE)) + i0
    out["bench.get_reference.iters"] = sum(tracer.solver_iters[int(i)] for i in ref_spans)

    # Steady-state per-iteration counts, pooled over solves (see SolveProbe).
    steady = np.zeros(5)
    steady_iters = 0
    by_variant = {v: [0.0, 0, 0, 0.0] for v in VARIANTS}  # seconds, iters, oracle calls, steady iters
    g_bytes, jac_bytes = oracle_bytes["g"], oracle_bytes["jac"]
    byte_total = 0.0
    for s in rr.solves:
        acc = by_variant[s.variant]
        acc[0] += s.seconds
        acc[1] += s.iters
        p = s.probe
        if p is None or p.records < 2:
            continue
        delta = np.subtract(p.last, p.first)
        steady += delta
        steady_iters += p.records - 1
        acc[2] += delta[tracing.G_CALLS] + delta[tracing.JAC_CALLS]
        acc[3] += p.records - 1
        byte_total += delta[tracing.G_CALLS] * g_bytes[s.label] + delta[tracing.JAC_CALLS] * jac_bytes[s.label]
    per_iter = steady / steady_iters if steady_iters else steady
    out["problem.oracle.calls_per_iter"] = float(per_iter[tracing.G_CALLS] + per_iter[tracing.JAC_CALLS])
    out["problem.oracle.bytes_per_iter_computed"] = byte_total / steady_iters if steady_iters else 0.0
    out["problem.jacobian_operator_norm.calls_per_iter"] = float(per_iter[tracing.NORM_CALLS])
    out["problem.block_norms.calls_per_iter"] = float(per_iter[tracing.BLOCK_NORM_CALLS])
    for v, (sec, iters, oracle, steady_v) in by_variant.items():
        out[f"solvers.{v}.s"] = sec
        out[f"solvers.{v}.iters"] = iters
        out[f"solvers.{v}.us_per_iter"] = 1e6 * sec / iters if iters else 0.0
        out[f"solvers.{v}.oracle_calls_per_iter"] = oracle / steady_v if steady_v else 0.0
    return out


PER_LAYER_UNITS = {
    "pagerank.load_graph.s": "s",
    "pagerank.build_ppr_problem.s": "s",
    "bench.build_instance.s": "s",
    "linalg.power_iteration.s": "s",
    "linalg.power_iteration.matvecs": "count",
    "linalg.cg_solve.s": "s",
    "linalg.cg_solve.matvecs": "count",
    "problem.oracle.calls": "count",
    "problem.oracle.calls_per_iter": "calls/iter",
    "problem.oracle.s": "s",
    "problem.oracle.bytes_per_iter_computed": "B/iter",
    "problem.jacobian_operator_norm.calls_per_iter": "calls/iter",
    "problem.jacobian_operator_norm.s": "s",
    "problem.kkt_residual.calls": "count",
    "problem.kkt_residual.s": "s",
    "problem.block_norms.calls_per_iter": "calls/iter",
    "problem.block_norms.s": "s",
    "prox.prox_f_over_ball.s": "s",
    "prox.bisect_steps_per_call": "ratio",
    "prox.project_dual_set.s": "s",
    "estimator.s": "s",
    "solvers.self_s": "s",
    **{f"solvers.{v}.{k}": u for v in VARIANTS for k, u in
       (("s", "s"), ("iters", "count"), ("us_per_iter", "us"), ("oracle_calls_per_iter", "calls/iter"))},
    "bench.get_reference.s": "s",
    "bench.get_reference.iters": "count",
    "bench.recorder.s": "s",
    "bench.recorder.calls": "count",
    "bench.write_csv.s": "s",
    "bench.write_csv.bytes": "B",
    "trace.overhead_frac": "ratio",
}


def oracle_bytes_model(instances: list[Instance]) -> dict:
    """Per-instance computed bytes of one constraints / jacobian call."""
    g, jac = {}, {}
    for inst in instances:
        if inst.edges is not None:
            n = int(inst.edges.max()) + 1
            e = inst.edges[inst.edges[:, 0] != inst.edges[:, 1]]
            nnz = 2 * len(np.unique(np.sort(e, axis=1), axis=0))
            g[inst.label], jac[inst.label] = _oracle_bytes("graph", n, nnz)
        else:
            g[inst.label], jac[inst.label] = _oracle_bytes("synthetic", inst.spec["n"], 0)
    return {"g": g, "jac": jac}


# -- the run -----------------------------------------------------------------


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds until ``seconds`` is used; returns the result record."""
    instances = WORKLOADS[workload](seed)
    tmp_root = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    oracle_bytes = oracle_bytes_model(instances)
    probe = hostspeed.HostProbe()
    rounds: list[RoundResult] = []
    t_start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
        t0 = perf_counter()
        try:
            if traced:
                tracer.reset_counters()
                i0 = len(tracer)
                with tracing.installed(tracer):
                    rr = run_round(instances, workdir, tracer, probe)
                rr.span_range = (i0, len(tracer))
                rr.layers = per_layer(tracer, rr, oracle_bytes)
            else:
                rr = run_round(instances, workdir, None, probe)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        last = perf_counter() - t0
        check_round(rr, rounds[0] if rounds else None)
        rounds.append(rr)
        elapsed = perf_counter() - t_start
        if len(rounds) >= (2 if trace else 1) and elapsed + 0.5 * last >= seconds:
            break

    failures = [(r_i, key, msg) for r_i, rr in enumerate(rounds) for key, msg in rr.failures]
    n_attempted = planned_checks(instances) * len(rounds)
    n_failed = sum(len({key for key, _ in rr.failures}) for rr in rounds)
    for r_i, key, msg in failures:
        print(f"FAILED round {r_i} {key[0]}/{key[1]}: {msg}", file=sys.stderr)

    untraced = [rr for rr in rounds if not rr.traced]
    traced_rounds = [rr for rr in rounds if rr.traced]
    unscaled = {}
    if trace:
        layers = {k: statistics.median(rr.layers[k] for rr in traced_rounds) for k in traced_rounds[0].layers}
        base = statistics.median(rr.total_s for rr in untraced)
        layers["trace.overhead_frac"] = statistics.median(rr.total_s for rr in traced_rounds) / base - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        unscaled = end_to_end(untraced, nominal=None)
        e2e = end_to_end(untraced)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "result": {
            "correct": n_failed == 0,
            "attempted": n_attempted,
            "failed": n_failed,
            "metrics": metrics,
        },
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "solves_per_round": len(rounds[0].solves),
        "fail_frac": n_failed / n_attempted if n_attempted else 1.0,
        "failures": [f"round {r}: {k[0]}/{k[1]}: {m}" for r, k, m in failures],
        "round_total_s": [rr.total_s for rr in rounds],
        "host_speed": [statistics.mean(rr.probe_s) / hostspeed.NOMINAL_S for rr in rounds],
        "probe_s": [rr.probe_s for rr in rounds],
        "unscaled_metrics": unscaled,
        "tracer": tracer,
    }
