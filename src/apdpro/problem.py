"""Constrained problem model shared by every solver.

Problems have the form

    min f(x)  s.t.  g_i(x) <= 0,  i = 1..m,

where f is a weighted sum of block Euclidean norms and each g_i is smooth and
mu_i-strongly convex. The dual variable lives in Y = {y >= 0, ||y||_1 <= c_bar}
with c_bar derived from a strictly feasible point, and the primal iterates are
confined to a ball around that point that provably contains the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import power_iteration  # noqa: F401  (unused here; perfbench/tracing.py wraps this name)

__all__ = [
    "BlockNormObjective",
    "ConstrainedProblem",
    "ProblemConstants",
    "KktResidual",
    "eval_lagrangian",
    "dual_radius_bound",
    "feasible_ball",
    "derive_constants",
    "kkt_residual",
    "jacobian_operator_norm",
]


# Derived and direct G at the strict point may differ by this much relative to
# |x'Qx/2| + |q'x| + |b|: far above the rounding of a length-n dot product,
# far below any mismatch between the structure and the oracle.
_QUADRATIC_RTOL = 1e-9
_F64 = np.dtype(np.float64)


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


@dataclass(frozen=True)
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

    ``constraints`` maps x to the m constraint values G(x); ``jacobian`` maps
    x to the n-by-m matrix whose columns are the constraint gradients. The
    jacobian may be assembled from implicit matrix-vector products internally
    but must return a dense array. Both must be pure functions of x: the
    solvers evaluate each at most once per point and reuse the result.
    ``L_X`` bounds the Jacobian's Lipschitz modulus on the primal ball,
    ``L_G`` the constraint map's, and ``r`` lower bounds the objective's
    subgradient norms at the optimum. They are checked here (L_X finite and
    >= 0, L_G and r finite and > 0) and stored as Python floats, so the
    step sizes and estimator values the solvers derive from them are floats
    too: the same IEEE binary64 arithmetic as numpy scalars, without numpy's
    per-operation dispatch.

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

    n: int
    objective: BlockNormObjective
    m: int
    constraints: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    mu: np.ndarray
    L_X: float
    L_G: float
    r: float
    strict_point: np.ndarray
    quadratic: tuple | None = None

    def __post_init__(self):
        if self.objective.n != self.n:
            raise ValueError("objective block partition does not cover dimension n")
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.shape != (self.m,):
            raise ValueError(f"mu must have shape ({self.m},)")
        if np.any(mu <= 0):
            raise ValueError("all strong-convexity moduli must be positive")
        for name, positive in (("L_X", False), ("L_G", True), ("r", True)):
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
    """Derived constants: dual bound, primal ball, diameters, coupled smoothness."""

    c_bar: float
    ball_center: np.ndarray
    ball_radius: float
    D_X: float
    D_Y: float
    L_XY: float
    mu_lb: float


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    complementarity: float
    primal_violation: float
    dual_violation: float

    def max(self) -> float:
        return max(self.stationarity, self.complementarity, self.primal_violation, self.dual_violation)


def eval_lagrangian(problem: ConstrainedProblem, x, y) -> float:
    """L(x, y) = f(x) + <y, G(x)>. Unconditional: y >= 0 is not required."""
    x = _vec(x, problem.n, "x")
    y = _vec(y, problem.m, "y")
    return float(problem.f(x) + y @ problem.g(x))


def dual_radius_bound(problem: ConstrainedProblem) -> float:
    """l1 radius c_bar = f(x_tilde) / min_i(-g_i(x_tilde)) of a set containing all dual optima.

    Raises
    ------
    ValueError
        If the stored strict point fails G(x_tilde) < 0 componentwise.
    """
    gvals = problem.g(problem.strict_point)
    if np.any(gvals >= 0):
        raise ValueError(
            "strict feasibility violated: G(strict_point) must be negative componentwise, "
            f"got max g_i = {float(np.max(gvals)):.6g}"
        )
    return float(problem.f(problem.strict_point) / np.min(-gvals))


def feasible_ball(
    problem: ConstrainedProblem, minimizers: Sequence[np.ndarray]
) -> tuple[np.ndarray, float]:
    """Ball B(x_tilde, R) strictly containing the optimum.

    Parameters
    ----------
    minimizers : sequence of ndarray
        One unconstrained minimizer per constraint (for quadratic constraints
        these come from a linear solve; generic callers must supply them).

    Returns
    -------
    (center, radius)
        Center is the strict point; R = min_i 2*sqrt(-2 g_i(x_i*)/mu_i).
    """
    if len(minimizers) != problem.m:
        raise ValueError(f"need {problem.m} per-constraint minimizers, got {len(minimizers)}")
    radii = []
    for i, xi in enumerate(minimizers):
        gi = float(problem.g(_vec(xi, problem.n, f"minimizer {i}"))[i])
        if gi >= 0:
            raise ValueError(f"constraint {i} is never strictly satisfiable: min g = {gi:.6g} >= 0")
        radii.append(2.0 * float(np.sqrt(-2.0 * gi / problem.mu[i])))
    return problem.strict_point.copy(), float(min(radii))


def derive_constants(problem: ConstrainedProblem, ball: tuple[np.ndarray, float]) -> ProblemConstants:
    """Package c_bar, ball, diameters, and L_XY = c_bar * L_X into one bundle.

    D_Y is the exact diameter of Y: c_bar for m = 1, sqrt(2)*c_bar otherwise
    (the farthest vertex pair of the l1-capped nonnegative orthant). The
    scalars are Python floats (L_X is one, see ConstrainedProblem).
    """
    center, radius = ball
    c_bar = dual_radius_bound(problem)
    d_y = c_bar if problem.m == 1 else float(np.sqrt(2.0)) * c_bar
    return ProblemConstants(
        c_bar=c_bar,
        ball_center=_vec(center, problem.n, "ball center"),
        ball_radius=float(radius),
        D_X=2.0 * float(radius),
        D_Y=d_y,
        L_XY=c_bar * problem.L_X,
        mu_lb=float(np.min(problem.mu)),
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
