"""In-memory span tracer and the wrappers that put it around apdpro's layers.

Spans are recorded from the benchmark's side only: the wrapped functions are
the module attributes the library looks up at call time (and two methods on
library classes), installed by ``installed()`` and restored when it exits.
The problem's ``constraints``/``jacobian`` callables are wrapped per
instance through ``dataclasses.replace``, and the recorder closure per
solve. No code under ``src/`` changes.

Each span keeps (name, start, end, parent) plus a phase inherited from its
top-level ancestor, in flat typed arrays so a traced run of a few million
spans stays at tens of megabytes.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
from array import array
from time import perf_counter

import numpy as np

PHASES = ("other", "setup", "reference", "solve", "output")
SETUP, REFERENCE, SOLVE, OUTPUT = 1, 2, 3, 4

# Slots of Tracer.live: running call counts the recorder snapshots per solve.
G_CALLS, JAC_CALLS, NORM_CALLS, BLOCK_NORM_CALLS, SOFT_THRESHOLD_CALLS = range(5)

SOLVER_ATTRS = {"apdpro": "apdpro", "rapdpro": "rapdpro", "msapd": "msapd", "apd": "apd_baseline"}


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("b")
        self.stack = [-1]
        self.live = [0] * 5
        self.counts: collections.Counter = collections.Counter()
        self.solver_iters: dict[int, int] = {}

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def reset_counters(self) -> None:
        self.live[:] = [0] * len(self.live)
        self.counts.clear()

    def span(self, name: str, fn, phase: int = 0, slot: int | None = None, iters: bool = False):
        """Wrap ``fn`` so each call records one span (and bumps ``live[slot]``).

        ``phase`` applies to top-level calls; nested calls inherit their
        parent's phase. With ``iters`` the returned RunResult's iteration
        count is stored against the span.
        """
        nid = self.name(name)
        name_id, start, end, parent, phases = self.name_id, self.start, self.end, self.parent, self.phase
        stack, live, solver_iters = self.stack, self.live, self.solver_iters

        def wrapper(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            name_id.append(nid)
            parent.append(up)
            phases.append(phases[up] if up >= 0 else phase)
            end.append(0.0)
            if slot is not None:
                live[slot] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if iters:
                solver_iters[idx] = out.state.k
            return out

        return wrapper

    def counted_matvec(self, key: str, fn):
        """Wrap an iterative solver whose first argument is a mat-vec callable."""
        counts = self.counts

        def wrapper(matvec, *args, **kwargs):
            def counting(v):
                counts[key] += 1
                return matvec(v)

            return fn(counting, *args, **kwargs)

        return wrapper

    def counted(self, slot: int, fn):
        live = self.live

        def wrapper(*args, **kwargs):
            live[slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    def arrays(self, i0: int = 0, i1: int | None = None) -> dict:
        """Numpy copies of spans [i0, i1)."""
        i1 = len(self) if i1 is None else i1
        return {
            "name_id": np.frombuffer(self.name_id[i0:i1], dtype=np.uint16),
            "start": np.frombuffer(self.start[i0:i1], dtype=np.float64),
            "end": np.frombuffer(self.end[i0:i1], dtype=np.float64),
            "parent": np.frombuffer(self.parent[i0:i1], dtype=np.int32),
            "phase": np.frombuffer(self.phase[i0:i1], dtype=np.int8),
        }

    def write(self, path: str) -> None:
        """Write every span of the run as a compressed numpy archive."""
        np.savez_compressed(path, names=np.array(self.names), phases=np.array(PHASES), **self.arrays())


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Put span wrappers on the library's module attributes; restore on exit."""
    from apdpro import bench, estimator, pagerank, problem, prox, solvers

    sp = tracer.span
    patches = [
        (bench, "build_instance", sp("bench.build_instance", bench.build_instance, SETUP)),
        (bench, "load_graph", sp("pagerank.load_graph", bench.load_graph)),
        (bench, "build_ppr_problem", sp("pagerank.build_ppr_problem", bench.build_ppr_problem)),
        (pagerank, "power_iteration", sp("linalg.power_iteration",
            tracer.counted_matvec("linalg.power_iteration.matvecs", pagerank.power_iteration))),
        (problem, "power_iteration", sp("linalg.power_iteration",
            tracer.counted_matvec("linalg.power_iteration.matvecs", problem.power_iteration))),
        (pagerank, "cg_solve", sp("linalg.cg_solve",
            tracer.counted_matvec("linalg.cg_solve.matvecs", pagerank.cg_solve))),
        (bench, "get_reference", sp("bench.get_reference", bench.get_reference, REFERENCE)),
        (bench, "rapdpro", sp("solvers.rapdpro", bench.rapdpro, iters=True)),
        (bench, "kkt_residual", sp("problem.kkt_residual", bench.kkt_residual)),
        (bench, "write_csv", sp("bench.write_csv", bench.write_csv, OUTPUT)),
        (solvers, "kkt_residual", sp("problem.kkt_residual", solvers.kkt_residual)),
        (solvers, "jacobian_operator_norm",
            sp("problem.jacobian_operator_norm", solvers.jacobian_operator_norm, slot=NORM_CALLS)),
        (solvers, "prox_f_over_ball", sp("prox.prox_f_over_ball", solvers.prox_f_over_ball)),
        (solvers, "project_dual_set", sp("prox.project_dual_set", solvers.project_dual_set)),
        (solvers, "h1", sp("estimator.h1", solvers.h1)),
        (solvers, "h2", sp("estimator.h2", solvers.h2)),
        (prox, "block_soft_threshold", tracer.counted(SOFT_THRESHOLD_CALLS, prox.block_soft_threshold)),
        (estimator.RhoEstimate, "advance", sp("estimator.advance", estimator.RhoEstimate.advance)),
        (problem.BlockNormObjective, "block_norms",
            sp("problem.block_norms", problem.BlockNormObjective.block_norms, slot=BLOCK_NORM_CALLS)),
    ]
    for variant, attr in SOLVER_ATTRS.items():
        patches.append((solvers, attr, sp(f"solvers.{variant}", getattr(solvers, attr), SOLVE, iters=True)))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_bundle(tracer: Tracer, bundle):
    """The bundle with its problem's constraint oracle wrapped in spans."""
    p = bundle.problem
    traced = dataclasses.replace(
        p,
        constraints=tracer.span("problem.oracle", p.constraints, slot=G_CALLS),
        jacobian=tracer.span("problem.oracle", p.jacobian, slot=JAC_CALLS),
    )
    return dataclasses.replace(bundle, problem=traced)


@dataclasses.dataclass
class SolveProbe:
    """Per-solve call counts between the first and the last recorded iteration.

    The recorder runs once at the end of every iteration, so the live
    counters snapshot there delimit whole iterations: the difference between
    the last and first snapshots divided by (records - 1) is the exact
    per-iteration count, free of the calls made before the first iteration
    (a restarted run's later epochs still add their start-up calls).
    """

    first: tuple | None = None
    last: tuple | None = None
    records: int = 0


def traced_recorder(tracer: Tracer, recorder, probe: SolveProbe):
    span = tracer.span("bench.recorder", recorder)
    live = tracer.live

    def wrapper(ri):
        out = span(ri)
        snap = tuple(live)
        if probe.first is None:
            probe.first = snap
        probe.last = snap
        probe.records += 1
        return out

    return wrapper
