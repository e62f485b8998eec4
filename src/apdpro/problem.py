"""Constrained problem model shared by every solver.

Problems have the form

    min f(x)  s.t.  g_i(x) <= 0,  i = 1..m,

where f is a weighted sum of block Euclidean norms and each g_i is smooth and
mu_i-strongly convex. The dual variable lives in Y = {y >= 0, ||y||_1 <= c_bar}
with c_bar derived from a strictly feasible point, and the primal iterates are
confined to a ball around that point that provably contains the optimum.
"""

from __future__ import annotations

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


def _vec(z, n: int, name: str) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {z.shape}")
    return z


@dataclass(frozen=True)
class BlockNormObjective:
    """f(x) = sum_i p_i * ||x_(i)||_2 over a contiguous block partition.

    Parameters
    ----------
    blocks : sequence of (start, length)
        Contiguous blocks in ascending order, partitioning ``range(n)``.
    weights : array_like
        Nonnegative coefficient p_i per block. Singleton blocks with unit
        weights recover the weighted l1 norm; f(0) = 0 is the minimum.
    """

    blocks: tuple
    weights: np.ndarray

    def __post_init__(self):
        blocks = tuple((int(s), int(ln)) for s, ln in self.blocks)
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(blocks),):
            raise ValueError("need exactly one weight per block")
        if np.any(weights < 0):
            raise ValueError("block weights must be nonnegative")
        pos = 0
        for s, ln in blocks:
            if s != pos or ln <= 0:
                raise ValueError("blocks must be contiguous, ascending, and partition the space")
            pos += ln
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "n", pos)
        object.__setattr__(self, "_starts", np.array([s for s, _ in blocks], dtype=np.intp))
        object.__setattr__(self, "_lengths", np.array([ln for _, ln in blocks], dtype=np.intp))
        object.__setattr__(self, "_singletons", len(blocks) == pos)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_norms(self, x: np.ndarray) -> np.ndarray:
        x = _vec(x, self.n, "x")
        if self._singletons:  # bitwise equal to the reduceat below, and far cheaper
            return np.sqrt(x * x)
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
    subgradient norms at the optimum.
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

    def __post_init__(self):
        if self.objective.n != self.n:
            raise ValueError("objective block partition does not cover dimension n")
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.shape != (self.m,):
            raise ValueError(f"mu must have shape ({self.m},)")
        if np.any(mu <= 0):
            raise ValueError("all strong-convexity moduli must be positive")
        if self.r <= 0:
            raise ValueError("subgradient lower bound r must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "strict_point", _vec(self.strict_point, self.n, "strict_point"))

    def f(self, x) -> float:
        return self.objective.value(x)

    def g(self, x) -> np.ndarray:
        vals = np.atleast_1d(np.asarray(self.constraints(x), dtype=float))
        if vals.shape != (self.m,):
            raise ValueError(f"constraint evaluator returned shape {vals.shape}, expected ({self.m},)")
        return vals

    def jac(self, x) -> np.ndarray:
        mat = np.asarray(self.jacobian(x), dtype=float)
        if mat.shape == (self.n,) and self.m == 1:
            mat = mat.reshape(self.n, 1)
        if mat.shape != (self.n, self.m):
            raise ValueError(f"jacobian evaluator returned shape {mat.shape}, expected ({self.n}, {self.m})")
        return mat


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
    (the farthest vertex pair of the l1-capped nonnegative orthant).
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
    v = (problem.jac(x) if jac is None else jac) @ y
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
    then overstate the certified rho.
    """
    return _operator_norm(problem.jac(_vec(x, problem.n, "x")), problem.m)


def _operator_norm(mat: np.ndarray, m: int) -> float:
    """Spectral norm of an n-by-m Jacobian already evaluated (see above)."""
    if m == 1:
        return float(np.linalg.norm(mat[:, 0]))
    return float(np.linalg.norm(mat, 2))
