"""Constrained problem model shared by every solver.

Problems have the form

    min f(x)  s.t.  g_i(x) <= 0,  i = 1..m,

where f is a weighted sum of block Euclidean norms and each g_i is smooth and
mu_i-strongly convex. The dual variable lives in Y = {y >= 0, ||y||_1 <= c_bar}
with c_bar derived from a strictly feasible point, and the primal iterates are
confined to a ball around that point that provably contains the feasible set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import power_iteration  # noqa: F401  (unused here; perfbench/tracing.py wraps this name)

__all__ = [
    "BlockNormObjective",
    "ConstrainedProblem",
    "ProblemConstants",
    "KktResidual",
    "derive_constants",
    "kkt_residual",
    "jacobian_operator_norm",
]


# Derived and direct G at the strict point may differ by this much relative to
# |x'Qx/2| + |q'x| + |b|: far above the rounding of a length-n dot product,
# far below any mismatch between the structure and the oracle.
_QUADRATIC_RTOL = 1e-9
_F64 = np.dtype(np.float64)
# The ball's margin theta over the radius sqrt(-2 g(x_g*)/mu) that {g <= 0}
# needs. Without one, the synthetic family's ball is exactly {g <= 0} and x*
# lies on both boundaries: at theta = 1e-9 the canonical instance takes
# apdpro 7,628 iterations to a 1e-9 gap, against 52 at theta = 0.1. A larger
# theta grows L_G and D_X, and the step sizes and epoch budgets follow. On
# the benchmark's workloads 0.05 and 0.1 ran about even and 0.2 and 0.5
# slower; 0.1 keeps twice the distance from the blow-up at 0.
_BALL_MARGIN = 0.1


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float64 array, bitwise (its own sqrt of v.dot(v)), without its dispatch."""
    return math.sqrt(v.dot(v))


def _vec(z, n: int, name: str) -> np.ndarray:
    if type(z) is np.ndarray and z.dtype == _F64 and z.shape == (n,):  # what the conversion below would return
        return z
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {z.shape}")
    return z


@dataclass(frozen=True, eq=False)
class BlockNormObjective:
    """f(x) = sum_i p_i * ||x_(i)||_2 over a contiguous block partition.

    Parameters
    ----------
    blocks : sequence of (start, length) pairs, or a (B, 2) integer array
        Contiguous blocks in ascending order, partitioning ``range(n)``.
        Stored as a read-only (B, 2) ``np.intp`` array, column-major so its
        start and length columns are contiguous, and checked without a loop.
    weights : array_like
        Nonnegative coefficient p_i per block. Singleton blocks with unit
        weights recover the weighted l1 norm; f(0) = 0 is the minimum.

    Objectives compare and hash by identity: array fields have no single
    truth value to compare by.
    """

    blocks: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # a copy; the reshape, a view, rejects anything but (start, length) rows
        blocks = np.array(self.blocks, dtype=np.intp, order="F").reshape((len(self.blocks), 2), order="A")
        blocks.flags.writeable = False
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(blocks),):
            raise ValueError("need exactly one weight per block")
        if np.any(weights < 0):
            raise ValueError("block weights must be nonnegative")
        starts, lengths = blocks[:, 0], blocks[:, 1]
        ends = np.cumsum(lengths)
        if not (np.all(lengths > 0) and np.array_equal(starts, ends - lengths)):
            raise ValueError("blocks must be contiguous, ascending, and partition the space")
        n = int(lengths.sum())
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_singletons", len(blocks) == n)

    def block_norms(self, x: np.ndarray) -> np.ndarray:
        x = _vec(x, self.n, "x")
        if self._singletons:  # the reduceat below, bitwise unless x*x underflows (then |x| is exact)
            return np.abs(x)
        return np.sqrt(np.add.reduceat(x * x, self._starts))

    def expand(self, per_block: np.ndarray) -> np.ndarray:
        """Broadcast a per-block array to coordinates (the input itself for singleton blocks)."""
        if self._singletons:
            return np.asarray(per_block)
        return np.repeat(per_block, self._lengths)

    def value(self, x: np.ndarray) -> float:
        return float(self.weights @ self.block_norms(x))


@dataclass(frozen=True)
class ConstrainedProblem:
    """A block-norm objective under m smooth strongly convex constraints.

    The sizes are derived, not passed: ``n`` is ``objective.n`` and ``m`` is
    ``len(mu)``, so ``mu`` must be a non-empty vector. ``constraints`` maps
    x to the m constraint values G(x); ``jacobian`` maps x to the n-by-m
    matrix whose columns are the constraint gradients. The jacobian may be
    assembled from implicit matrix-vector products internally but must
    return a dense array. Both must be pure functions of x: the
    solvers evaluate each at most once per point and reuse the result.
    ``L_X`` bounds the Jacobian's Lipschitz modulus in the operator norm,
    ||J(x) - J(x')|| <= L_X ||x - x'||, and ``r`` lower bounds the
    objective's subgradient norms at the optimum. The constraint map's
    modulus L_G follows from L_X and the primal ball (``derive_constants``).
    Both are checked here (L_X finite and >= 0, r finite and > 0) and
    stored as Python floats, so the step sizes and estimator values the
    solvers derive from them are floats too: the same IEEE binary64
    arithmetic as numpy scalars, without numpy's per-operation dispatch.

    ``quadratic`` = (q_lin, b, qmatvec), with q_lin n-by-m and b of length
    m, is an optional promise that g_i(x) = (1/2) x'Q_i x - q_i'x - b_i and
    J(x) = [Q_i x - q_i] for some symmetric Q_i, and that ``qmatvec`` maps x
    to [Q_i x] (n-by-m, or length n for m = 1). Then G follows from J
    (``g_from_jac``), and J is affine, so J at an average of points is the
    same average of their J. The solvers use this to make one ``jacobian``
    call per iterate and no ``constraints`` call; the reference solves with
    Q itself. The promise is checked once, here: the shapes, the derived G
    at the strict point against ``constraints``, and J there against
    ``qmatvec`` minus q_lin, each to rounding, so a ``dataclasses.replace``
    that swaps an oracle and leaves a stale structure raises ValueError.
    """

    n: int = field(init=False)
    objective: BlockNormObjective
    m: int = field(init=False)
    constraints: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    mu: np.ndarray
    L_X: float
    r: float
    strict_point: np.ndarray
    quadratic: tuple | None = None

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError(f"mu must be a non-empty vector, got shape {mu.shape}")
        object.__setattr__(self, "n", self.objective.n)
        object.__setattr__(self, "m", len(mu))
        if np.any(mu <= 0):
            raise ValueError("all strong-convexity moduli must be positive")
        for name, positive in (("L_X", False), ("r", True)):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
                sign = "positive" if positive else "nonnegative"
                raise ValueError(f"{name} must be finite and {sign}, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "strict_point", _vec(self.strict_point, self.n, "strict_point"))
        if self.quadratic is not None:
            self._check_quadratic()

    def _check_quadratic(self) -> None:
        q_lin, b, qmatvec = self.quadratic
        q_lin = np.asarray(q_lin, dtype=float)
        if q_lin.shape == (self.n,) and self.m == 1:
            q_lin = q_lin.reshape(self.n, 1)
        if q_lin.shape != (self.n, self.m):
            raise ValueError(f"quadratic q_lin must have shape ({self.n}, {self.m}), got {q_lin.shape}")
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if b.shape != (self.m,):
            raise ValueError(f"quadratic b must have shape ({self.m},), got {b.shape}")
        object.__setattr__(self, "quadratic", (q_lin, b, qmatvec))
        x = self.strict_point
        jac = self.jac(x)
        derived, direct = self.g_from_jac(x, jac), self.g(x)
        qx = x @ q_lin
        scale = np.abs(0.5 * (x @ jac + qx)) + np.abs(qx) + np.abs(b)  # |x'Qx/2| + |q'x| + |b|
        if not np.all(np.abs(derived - direct) <= _QUADRATIC_RTOL * scale):  # nan fails too
            raise ValueError(
                "quadratic structure does not match the oracle: at the strict point G from the "
                f"Jacobian is {derived.tolist()}, constraints returns {direct.tolist()}"
            )
        qxt = np.asarray(qmatvec(x), dtype=float).reshape(self.n, self.m)
        gap = np.linalg.norm(jac - (qxt - q_lin), axis=0)
        if not np.all(gap <= _QUADRATIC_RTOL * (np.linalg.norm(qxt, axis=0) + np.linalg.norm(q_lin, axis=0))):
            raise ValueError(
                "quadratic structure does not match the oracle: at the strict point the Jacobian "
                f"is {gap.tolist()} away from qmatvec minus q_lin"
            )

    def f(self, x) -> float:
        return self.objective.value(x)

    def g(self, x) -> np.ndarray:
        vals = self.constraints(x)
        if type(vals) is not np.ndarray or vals.dtype != _F64 or vals.shape != (self.m,):  # else as is
            vals = np.atleast_1d(np.asarray(vals, dtype=float))
            if vals.shape != (self.m,):
                raise ValueError(f"constraint evaluator returned shape {vals.shape}, expected ({self.m},)")
        return vals

    def jac(self, x) -> np.ndarray:
        mat = self.jacobian(x)
        if type(mat) is not np.ndarray or mat.dtype != _F64 or mat.shape != (self.n, self.m):  # else as is
            mat = np.asarray(mat, dtype=float)
            if mat.shape == (self.n,) and self.m == 1:
                mat = mat.reshape(self.n, 1)
            if mat.shape != (self.n, self.m):
                raise ValueError(f"jacobian evaluator returned shape {mat.shape}, expected ({self.n}, {self.m})")
        return mat

    def g_from_jac(self, x: np.ndarray, jac: np.ndarray) -> np.ndarray:
        """G(x) = (1/2) J(x)'x - (1/2) q_lin'x - b from J(x); needs ``quadratic``."""
        q_lin, b, _ = self.quadratic
        return 0.5 * (x @ jac - x @ q_lin) - b


@dataclass(frozen=True)
class ProblemConstants:
    """Derived constants: dual bound, primal ball radius, diameters, the constraint map's and the coupled smoothness.

    The primal ball is centered at the problem's ``strict_point``.
    """

    c_bar: float
    ball_radius: float
    D_X: float
    D_Y: float
    L_XY: float
    L_G: float
    mu_lb: float


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    complementarity: float
    primal_violation: float
    dual_violation: float

    def max(self) -> float:
        return max(self.stationarity, self.complementarity, self.primal_violation, self.dual_violation)


def _dual_radius_bound(problem: ConstrainedProblem, g_tilde: np.ndarray, jac_tilde: np.ndarray) -> float:
    """l1 radius c_bar of a set containing all dual optima, from the best strictly feasible point found.

    Any x with G(x) < 0 gives ||y*||_1 <= (f(x) - f*)/min_i(-g_i(x)) <=
    f(x)/min_i(-g_i(x)). The candidates are x_tilde and one point t x_tilde
    of the segment from the origin, where f(t x_tilde) = t f(x_tilde).
    Along the segment each g_i is modelled as a t^2 + b t + c from G(0),
    G(x_tilde) = ``g_tilde`` and the slope x_tilde'J(x_tilde) at t = 1 (the
    model is exact for quadratic g). min_i(-g_i(t x_tilde))/t is largest at
    t^2 = c/a for one constraint; for several, the per-constraint optimum
    whose model value is best is taken. One real G evaluation there
    certifies the point, so the bound holds whether or not the model fits;
    a t that is not strictly feasible, or a nan anywhere in the model,
    leaves x_tilde alone.

    Raises
    ------
    ValueError
        If G(x_tilde) < 0 fails componentwise.
    """
    g_list = g_tilde.tolist()
    if not all(g < 0 for g in g_list):  # nan fails too
        raise ValueError(
            "strict feasibility violated: G(strict_point) must be negative componentwise, "
            f"got max g_i = {float(np.max(g_tilde)):.6g}"
        )
    x = problem.strict_point
    f_tilde = problem.f(x)
    best = f_tilde / -max(g_list)
    # Per constraint (a, b, c) with c = g_i(0), a + b + c = g_i(x_tilde) and 2a + b = the slope.
    models = []
    for g1, c, slope in zip(g_list, problem.g(np.zeros(problem.n)).tolist(), (x @ jac_tilde).tolist()):
        a = slope - (g1 - c)
        models.append((a, g1 - c - a, c))
    ts = [math.sqrt(c / a) for a, _, c in models if 0.0 < c < a]  # the optima inside (0, 1)
    if ts:
        t = max(ts, key=lambda t: min(-(a * t * t + b * t + c) for a, b, c in models) / t)
        g_t = problem.g(t * x).tolist()
        if all(-math.inf < g < 0 for g in g_t):
            best = min(best, t * f_tilde / -max(g_t))
    return best


def derive_constants(problem: ConstrainedProblem, minimizers: Sequence[np.ndarray]) -> ProblemConstants:
    """c_bar, the primal ball's radius, diameters, L_XY = c_bar * L_X and L_G in one bundle.

    Parameters
    ----------
    minimizers : sequence of ndarray
        One unconstrained minimizer x_i* per constraint (for quadratic
        constraints these come from a linear solve; generic callers must
        supply them).

    The primal ball X = B(x_tilde, R) is centered at the strict point and
    contains the feasible set {G <= 0}, hence the optimum. R is the least
    over i of ||x_tilde - x_i*|| + (1 + theta) sqrt(-2 g_i(x_i*)/mu_i). By
    strong convexity g_i(x) >= g_i(x_i*) + mu_i ||x - x_i*||^2 / 2, so
    {g_i <= 0} lies within sqrt(-2 g_i(x_i*)/mu_i) of x_i*; the triangle
    inequality moves that ball to x_tilde, and the margin theta = 0.1
    (``_BALL_MARGIN``) keeps its boundary off the feasible set's.

    G and J are evaluated once each at x_tilde, and G again only at a
    minimizer that differs from x_tilde. G(x_tilde) serves c_bar
    (``_dual_radius_bound``, which adds G at the origin and at one point of
    the segment between them); J(x_tilde) serves L_G = ||J(x_tilde)|| +
    L_X R, the largest ||J|| on the ball that the Lipschitz modulus L_X
    allows. D_Y is the exact diameter of Y: c_bar for m = 1,
    sqrt(2)*c_bar otherwise (the farthest vertex pair of the l1-capped
    nonnegative orthant). The scalars are Python floats (L_X is one, see
    ConstrainedProblem).

    Raises
    ------
    ValueError
        If the minimizers are not one per constraint, a constraint's minimum
        is not negative, G(x_tilde) < 0 fails, or L_G is not finite and
        positive.
    """
    if len(minimizers) != problem.m:
        raise ValueError(f"need {problem.m} per-constraint minimizers, got {len(minimizers)}")
    x_tilde = problem.strict_point
    g_tilde = problem.g(x_tilde)
    radius = math.inf
    for i, xi in enumerate(minimizers):
        xi = _vec(xi, problem.n, f"minimizer {i}")
        gi = float((g_tilde if np.array_equal(xi, x_tilde) else problem.g(xi))[i])  # the builders pass x_tilde
        if gi >= 0:
            raise ValueError(f"constraint {i} is never strictly satisfiable: min g = {gi:.6g} >= 0")
        radius = min(radius, _norm(x_tilde - xi) + (1.0 + _BALL_MARGIN) * math.sqrt(-2.0 * gi / problem.mu[i]))
    jac_tilde = problem.jac(x_tilde)
    c_bar = _dual_radius_bound(problem, g_tilde, jac_tilde)
    l_g = _operator_norm(jac_tilde, problem.m) + problem.L_X * radius
    if not (math.isfinite(l_g) and l_g > 0.0):
        raise ValueError(f"L_G must be finite and positive, got {l_g!r}")
    d_y = c_bar if problem.m == 1 else math.sqrt(2.0) * c_bar
    return ProblemConstants(
        c_bar=c_bar,
        ball_radius=radius,
        D_X=2.0 * radius,
        D_Y=d_y,
        L_XY=c_bar * problem.L_X,
        L_G=l_g,
        mu_lb=float(problem.mu.min()),
    )


def kkt_residual(problem: ConstrainedProblem, x, y, *, g=None, jac=None) -> KktResidual:
    """KKT diagnostics at (x, y); all four fields are zero exactly at a KKT point.

    Stationarity uses the per-block closed form: ||p_i x_(i)/||x_(i)|| + v_(i)||
    on nonzero blocks and max(0, ||v_(i)|| - p_i) on zero blocks, where
    v = grad G(x) y; the block distances are combined in Euclidean norm.
    ``g`` and ``jac``, when given, must be G(x) and grad G(x) as returned by
    ``problem.g`` and ``problem.jac``; they spare re-evaluating the oracle.
    """
    x = _vec(x, problem.n, "x")
    y = _vec(y, problem.m, "y")
    obj = problem.objective
    v = (problem.jac(x) if jac is None else jac).dot(y)
    norms = obj.block_norms(x)
    nz = norms > 0
    scale = np.where(nz, obj.weights / np.where(nz, norms, 1.0), 0.0)
    wnorms = obj.block_norms(obj.expand(scale) * x + v)
    dist = np.where(nz, wnorms, np.maximum(0.0, wnorms - obj.weights))
    if g is None:
        g = problem.g(x)
    return KktResidual(
        stationarity=float(np.linalg.norm(dist)),
        complementarity=float(abs(y @ g)),
        primal_violation=float(np.linalg.norm(np.maximum(g, 0.0))),
        dual_violation=float(np.linalg.norm(np.maximum(-y, 0.0))),
    )


def jacobian_operator_norm(problem: ConstrainedProblem, x) -> float:
    """Spectral norm of the n-by-m Jacobian at x.

    Exact in both cases: the column norm for m = 1, the largest singular
    value (``np.linalg.norm(J, 2)``) otherwise. A power-iteration estimate
    would be a Rayleigh quotient, a lower bound on ||J||, and h1 and h2 would
    then overstate the certified rho. A J with a nan or inf entry gives nan.
    """
    return _operator_norm(problem.jac(_vec(x, problem.n, "x")), problem.m)


def _operator_norm(mat: np.ndarray, m: int) -> float:
    """Spectral norm of an n-by-m Jacobian already evaluated (see above); nan if J is not finite."""
    if m == 1:
        return _norm(mat.ravel())  # the column, copied contiguous where np.linalg.norm would copy it
    if not np.isfinite(mat).all():  # the SVD would raise LinAlgError; the caller names the point
        return math.nan
    return float(np.linalg.norm(mat, 2))
