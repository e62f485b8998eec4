"""Small shared test utilities: graph files, the benchmark loader, slope fits, trace comparison."""

import math
import pathlib
import sys

import numpy as np

from apdpro.problem import BlockNormObjective, ConstrainedProblem

# c_bar of the canonical instance (f = |x|, g = (x - 2)^2/2 - 1, strict point 2) in closed form. Its model
# ball B(2, sqrt(2)) is exact, so at t = sqrt(2) the lower bound is f* = 2 - sqrt(2) and p = x* = 2 - sqrt(2).
# The second point x_s = 2 - s sqrt(2), s = 1 - 1e-3, gives (f(x_s) - lb)/(-g(x_s)) = sqrt(2)(1 - s)/(1 - s^2)
# = sqrt(2)/(1 + s), against y* = 1/sqrt(2). Its numerator cancels to 1e-3 of f, so the computed value
# matches to about 1e-13 relative, not to the last bit.
CANONICAL_C_BAR = math.sqrt(2.0) / (2.0 - 1e-3)


class NdarraySubclass(np.ndarray):
    """An ndarray subclass: input checks convert it to a plain ndarray, never pass it through."""


def unequal_weights_problem():
    """n = 6 under unequal weights, one of them zero, and one ball constraint, strict point its center."""
    n, c = 6, np.array([1.0, -0.5, 2.0, 0.3, 0.0, -1.0])
    return ConstrainedProblem(
        objective=BlockNormObjective((1.0, 0.0, 0.5, 2.0, 2.0, 1.5)),
        constraints=lambda x: np.array([0.5 * (x - c) @ (x - c) - 1.0]),
        jacobian=lambda x: (x - c).reshape(n, 1),
        mu=np.ones(1), L_X=1.0, r=1.0, strict_point=c,
    )


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_MODULES = ("harness", "hostspeed", "tracing", "workloads")


class NoProbe:
    """Stands in for the benchmark's host probe: a round's traces do not depend on the host's speed."""

    def sample(self) -> float:
        return 0.0


def import_perfbench():
    """(harness, workloads), imported from the benchmark directory and dropped from sys.modules after.

    The directory is loaded read-only: no bytecode is written there.
    """
    saved_modules = {name: sys.modules.pop(name) for name in PERFBENCH_MODULES if name in sys.modules}
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        import harness
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_bytecode
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)
    return harness, workloads


def q_times(problem, v):
    """Q v on a problem with quadratic structure, n-by-m (Q_i v in column i): J(v) + q_lin."""
    return problem.jac(v) + problem.quadratic[0]


def write_edge_list(path, edges, header=None):
    lines = [] if header is None else [header]
    lines += [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def star_edges(n):
    """Hub 0 joined to n-1 leaves."""
    return [(0, i) for i in range(1, n)]


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(n - 1, 0)]


def chorded_path_edges(n, chords, seed):
    """A path on n nodes plus up to ``chords`` random edges (self-loops dropped)."""
    rng = np.random.default_rng(seed)
    return path_edges(n) + [tuple(map(int, e)) for e in rng.integers(0, n, size=(chords, 2)) if e[0] != e[1]]


def loglog_slope(ks, vals, lo, hi, floor=1e-300):
    """Least-squares slope of log(vals) vs log(ks) restricted to lo <= k <= hi."""
    ks = np.asarray(ks, dtype=float)
    vals = np.maximum(np.asarray(vals, dtype=float), floor)
    mask = (ks >= lo) & (ks <= hi)
    return float(np.polyfit(np.log(ks[mask]), np.log(vals[mask]), 1)[0])


def assert_traces_close(a, b):
    """Two traces (lists of IterateRecord) agree up to rounding.

    iter, epoch and active_set_acc are equal; objective, rho, tau and sigma
    agree to 1e-12 relative; rel_gap and feas_violation, cancellation
    quantities near zero, to 1e-12 absolute. elapsed_s is not compared.
    """
    assert len(a) == len(b), (len(a), len(b))
    for ra, rb in zip(a, b):
        assert (ra.iter, ra.epoch, ra.active_set_acc) == (rb.iter, rb.epoch, rb.active_set_acc), (ra, rb)
        for name in ("objective", "rho", "tau", "sigma"):
            va, vb = getattr(ra, name), getattr(rb, name)
            assert abs(va - vb) <= 1e-12 * max(abs(va), abs(vb)), (ra.iter, name, va, vb)
        for name in ("rel_gap", "feas_violation"):
            va, vb = getattr(ra, name), getattr(rb, name)
            assert (va is None) == (vb is None), (ra.iter, name, va, vb)
            assert va is None or abs(va - vb) <= 1e-12, (ra.iter, name, va, vb)
