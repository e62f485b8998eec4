"""Constrained problem model shared by every solver.

Problems have the form

    min f(x)  s.t.  g_i(x) <= 0,  i = 1..m,

where f(x) = sum_i w_i |x_i| is a weighted l1 norm and each g_i is smooth and
mu_i-strongly convex. The dual variable lives in Y = {y >= 0, ||y||_1 <= c_bar}
with c_bar derived from a lower bound on f* and strictly feasible points,
and the primal iterates are confined to a ball around the strict point that
provably contains the feasible set (``derive_constants``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
# The ball's margin theta over the model ball's radius rho. Without one, the synthetic family's ball
# is exactly {g <= 0} and x* lies on both boundaries: at theta = 1e-9 the canonical instance takes
# apdpro 5,661 iterations to a 1e-9 gap, against 63 at 0.2. A larger theta grows L_G and D_X, and the
# step sizes and epoch budgets follow. iters_to_tol at seeds 0 / 4242 (/ 17):
#   theta   synth-batch          ppr-5k            synth-10k
#   0.05    8144 / 8195          1278 / 1325       1123 / 1132
#   0.1     7641 / 7634 / 7768   955 / 847 / 948   931 / 911 / 937
#   0.2     7640 / 7560 / 7672   856 / 856 / 856   870 / 885 / 885
#   0.3     7937 / 7895          862 / 799         865 / 844
# Of the swept {0.05, 0.1, 0.2}, 0.2 has the least two-seed (0 + 4242) total on each workload, though
# it loses ppr-5k at seed 4242 to 0.1 by 9 iterations; 0.2 is chosen on those per-workload totals.
# 0.3, outside the sweep, beats 0.2 on ppr-5k and synth-10k but loses synth-batch by about 4%.
_BALL_MARGIN = 0.2
# How far c_bar's point x_s may go toward p. Where the model is exact (the synthetic family), p lies
# on {g = 0}, and this keeps c_bar about 5e-4 above ||y*||_1.
_SEGMENT_CAP = 1.0 - 1e-3
# How far rho_lb's point s p may go toward p. Near p both lb - f and G sit at rounding level and their
# ratio is no bound (it read 1.32 ||y*||_1 at p itself). On the benchmark's synthetic instances rho_lb
# is 0.91-0.99 of mu_lb ||y*||_1 with this cap; 0.99 adds at most about 3% to it, for a point nearer p.
_RHO_SEGMENT_CAP = 0.95
# lb shrunk by this much relative before it certifies rho_lb along the segment: lb can exceed f* by
# rounding (by 4.4e-16 on one synthetic instance), and there lb - f is small.
_LB_SLACK = 1e-9


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
    """f(x) = sum_i w_i |x_i|, the weighted l1 norm, given by its weights; n = len(weights).

    Parameters
    ----------
    weights : array_like
        A non-empty 1-D array of finite, nonnegative w_i, checked here:
        f(0) = 0 is the minimum.

    The class, its ``block_norms`` (|x|) and ``block_soft_threshold`` keep
    their names from when f was a sum of block norms: the benchmark's tracer
    patches them by name, so a rename waits for a revision of the benchmark
    (ROADMAP). Objectives compare and hash by identity: array fields have no
    single truth value to compare by.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError(f"weights must be a non-empty 1-D array, got shape {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite, got a nan or inf entry")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative, got a negative entry")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "n", len(weights))

    def block_norms(self, x: np.ndarray) -> np.ndarray:
        return np.abs(_vec(x, self.n, "x"))

    def value(self, x: np.ndarray) -> float:
        return float(self.weights @ self.block_norms(x))


def block_soft_threshold(v, objective: BlockNormObjective, eta: float) -> np.ndarray:
    """The soft threshold v - clip(v, -t, t), t = eta*w, the proximal map of eta*f at v, in two passes.

    A kernel of the prox: v is a float64 vector of length n and eta > 0, as
    ``prox_f_over_ball`` and ``_ball_lower_bound`` pass them; nothing is
    checked here.
    """
    t = eta * objective.weights
    c = np.negative(t)
    np.maximum(v, c, out=c)
    np.minimum(c, t, out=c)
    return np.subtract(v, c, out=c)


@dataclass(frozen=True)
class ConstrainedProblem:
    """A weighted l1 objective under m smooth strongly convex constraints.

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
    Both are checked here (L_X finite and >= max(mu), r finite and > 0) and
    stored as Python floats, so the step sizes and estimator values the
    solvers derive from them are floats too: the same IEEE binary64
    arithmetic as numpy scalars, without numpy's per-operation dispatch.

    ``quadratic`` = (q_lin, b), with q_lin n-by-m (length n allowed for
    m = 1) and b of length m, is an optional promise that
    J(x) = [Q_i x - q_i] and g_i(x) = (1/2) x'Q_i x - q_i'x - b_i for some
    symmetric Q_i, so Q_i v = J_i(v) + q_i. Then G follows from J
    (``g(x, jac)``), and J is affine, so J at an average of points is the
    same average of their J. The solvers use this to make one ``jacobian``
    call per iterate and no ``constraints`` call; the reference applies Q
    through ``jacobian``. The promise is checked once, here: the shapes, and
    G derived from J at the strict point against ``constraints``, to
    rounding, so a ``dataclasses.replace`` that swaps an oracle and leaves a
    stale structure raises ValueError.
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
        if not np.all(mu > 0):  # nan fails too
            raise ValueError(f"all strong-convexity moduli must be positive, got {mu.tolist()}")
        for name, positive in (("L_X", False), ("r", True)):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
                sign = "positive" if positive else "nonnegative"
                raise ValueError(f"{name} must be finite and {sign}, got {value!r}")
            object.__setattr__(self, name, value)
        mu_max = float(mu.max())
        if self.L_X < mu_max:  # ||J(x) - J(x')|| >= mu_i ||x - x'||, so such an L_X bounds nothing
            raise ValueError(f"L_X = {self.L_X!r} is below max(mu) = {mu_max!r}: a mu_i-strongly convex g_i "
                             "has a Jacobian whose modulus is at least mu_i")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "strict_point", _vec(self.strict_point, self.n, "strict_point"))
        if self.quadratic is not None:
            self._check_quadratic()

    def _check_quadratic(self) -> None:
        q_lin, b = self.quadratic
        q_lin = np.asarray(q_lin, dtype=float)
        if q_lin.shape == (self.n,) and self.m == 1:
            q_lin = q_lin.reshape(self.n, 1)
        if q_lin.shape != (self.n, self.m):
            raise ValueError(f"quadratic q_lin must have shape ({self.n}, {self.m}), got {q_lin.shape}")
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if b.shape != (self.m,):
            raise ValueError(f"quadratic b must have shape ({self.m},), got {b.shape}")
        object.__setattr__(self, "quadratic", (q_lin, b))
        x = self.strict_point
        jac = self.jac(x)
        derived, direct = self.g(x, jac), self.g(x)
        qx = x @ q_lin
        scale = np.abs(0.5 * (x @ jac + qx)) + np.abs(qx) + np.abs(b)  # |x'Qx/2| + |q'x| + |b|
        if not np.all(np.abs(derived - direct) <= _QUADRATIC_RTOL * scale):  # nan fails too
            raise ValueError(
                "quadratic structure does not match the oracle: at the strict point G from the "
                f"Jacobian is {derived.tolist()}, constraints returns {direct.tolist()}"
            )

    def f(self, x) -> float:
        return self.objective.value(x)

    def g(self, x, jac: np.ndarray | None = None) -> np.ndarray:
        """G(x). Given ``jac`` = J(x) on a problem with ``quadratic``, it is (1/2)(x'J - x'q_lin) - b,
        and ``constraints`` is not called; otherwise ``constraints`` is called and ``jac`` ignored."""
        if jac is not None and self.quadratic is not None:
            q_lin, b = self.quadratic
            return 0.5 * (x @ jac - x @ q_lin) - b
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


@dataclass(frozen=True)
class ProblemConstants:
    """Derived constants: dual bound, primal ball radius, diameters, the constraint map's and the coupled smoothness,
    and a lower bound rho_lb on mu'y*.

    The primal ball is centered at the problem's ``strict_point``.
    """

    c_bar: float
    ball_radius: float
    D_X: float
    D_Y: float
    L_XY: float
    L_G: float
    mu_lb: float
    rho_lb: float


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    complementarity: float
    primal_violation: float
    dual_violation: float

    def max(self) -> float:
        return max(self.stationarity, self.complementarity, self.primal_violation, self.dual_violation)


def _ball_lower_bound(objective: BlockNormObjective, z: np.ndarray, rho: float) -> tuple[float, np.ndarray, float]:
    """(lb, p, f(p)): lb <= the least f over B(z, rho), by weak duality at any t > 0, and p the point behind it.

    lb = min_x f(x) + (||x - z||^2 - rho^2)/(2t) = sum_i [w_i (a_i - m_i) + m_i^2/(2t)] - rho^2/(2t),
    a_i = |z_i|, m_i = min(a_i, t w_i); p is the soft threshold of z at t, so |p_i| = a_i - m_i and
    f(p) = sum_i w_i (a_i - m_i), to rounding. lb is tight at the root of sum_i m_i^2 = rho^2: t
    starts below it, at rho/||w||, and takes one active-set step toward it. A converged t gave a looser
    c_bar on the benchmark's synth-10k instances (1.06-1.20 times ||y*||_1, against 1.02-1.05), as it
    moves p. (0, 0, 0) stands for a ball that holds the origin.
    """
    w = objective.weights
    a = objective.block_norms(z)
    rho_sq, w_norm = rho * rho, _norm(w)
    t = rho / w_norm if w_norm > 0.0 else math.inf
    if not math.isfinite(t):  # f = 0, or rho = inf
        return 0.0, np.zeros_like(z), 0.0
    tw = t * w
    m = np.minimum(a, tw)
    free = float((w * w) @ (a > tw))  # sum of w_i^2 over the coordinates not held at a_i
    room = rho_sq - (float(m @ m) - t * t * free)  # rho^2 less the held coordinates' a_i^2
    if not (room > 0.0 and free > 0.0):  # every coordinate is held: the origin is in the ball
        return 0.0, np.zeros_like(z), 0.0
    t = max(t, math.sqrt(room / free))
    m = np.minimum(a, t * w)
    f_p = float(w @ (a - m))
    return f_p + (float(m @ m) - rho_sq) / (2.0 * t), block_soft_threshold(z, objective, t), f_p


def _segment_dual_bound(problem: ConstrainedProblem, lb: float, p: np.ndarray, f_p: float, g_0: list,
                        g_p: list) -> float:
    """A lower bound on ||y*||_1 from weak duality at points s p, 0 < s <= ``_RHO_SEGMENT_CAP``, or 0.

    f* <= f(s p) + ||y*||_1 max_i g_i(s p) and f(s p) = s F, F = ``f_p`` = f(p), so ||y*||_1 >=
    (L - s F)/max_i g_i(s p) wherever both are positive, L = lb (1 - ``_LB_SLACK``); a point where G is
    not finite certifies nothing. G at the cap s = ``_RHO_SEGMENT_CAP`` certifies the first point and,
    with G(0) and G(p) (``g_0``, ``g_p``), fits each g_i along the segment by the quadratic
    c + b s + a s^2 (exact for quadratic g_i). Each fit's ratio (L - s F)/(c + b s + a s^2) is stationary
    at the roots of a F s^2 - 2 a L s - (F c + L b). The in-range root with the best model ratio (over
    the max of the fits) costs one more G, and only when that ratio beats the cap's bound.
    """
    low, cap = lb * (1.0 - _LB_SLACK), _RHO_SEGMENT_CAP

    def certified(s: float) -> tuple[list, float]:
        g_s = problem.g(s * p).tolist()
        g_max, gap = max(g_s), low - s * f_p
        return g_s, gap / g_max if all(map(math.isfinite, g_s)) and g_max > 0.0 and gap > 0.0 else 0.0

    g_cap, bound = certified(cap)
    if not all(map(math.isfinite, g_cap + g_p)):
        return bound
    fits = []  # (c, b, a) through (0, g_0), (cap, g_cap) and (1, g_p)
    for c, h, e in zip(g_0, g_cap, g_p):
        a = (cap * (e - c) - (h - c)) / (cap * (1.0 - cap))
        fits.append((c, e - c - a, a))
    roots = []
    for c, b, a in fits:
        qa, qb, qc = a * f_p, -2.0 * a * low, -(f_p * c + low * b)
        disc = qb * qb - 4.0 * qa * qc
        if qa == 0.0 or disc < 0.0:  # a = 0: the ratio is monotone (f_p = 0 would make lb <= 0)
            continue
        half = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))  # no cancellation in either root
        pair = (half / qa, qc / half) if half != 0.0 else ()  # half = 0 only at the double root 0
        roots += [s for s in pair if 0.0 < s < cap]
    s, top = cap, bound
    for t in roots:
        g_max = max([c + t * (b + t * a) for c, b, a in fits])
        ratio = (low - t * f_p) / g_max if g_max > 0.0 else 0.0
        if ratio > top:
            s, top = t, ratio
    return bound if s == cap else max(bound, certified(s)[1])


def derive_constants(problem: ConstrainedProblem) -> ProblemConstants:
    """c_bar, the primal ball's radius, diameters, L_XY = c_bar * L_X, L_G and rho_lb in one bundle.

    Strong convexity at the strict point x_tilde puts {g_i <= 0} in the model ball B(z_i, rho_i),
    z_i = x_tilde - J_i(x_tilde)/mu_i, rho_i^2 = ||J_i(x_tilde)||^2/mu_i^2 - 2 g_i(x_tilde)/mu_i. So
    the primal ball X = B(x_tilde, R), R = min_i ||x_tilde - z_i|| + (1 + theta) rho_i, holds the
    feasible set, and the margin theta (``_BALL_MARGIN``) keeps its boundary off the feasible set's.
    L_G = ||J(x_tilde)|| + L_X R is the largest ||J|| on X that L_X allows.

    A strictly feasible x and lb <= f* give ||y*||_1 <= (f(x) - lb)/min_i(-g_i(x)). lb is the largest
    of 0 and the model balls' bounds (``_ball_lower_bound``), and c_bar takes the better of x_tilde
    and x_s = x_tilde + s (p - x_tilde), p the point behind lb, where f(x_s) <= (1 - s) f(x_tilde)
    + s f(p). With g_i modelled along the segment as c + a s^2 (c = g_i(x_tilde), a = g_i(p) - c;
    exact at the minimizer of a quadratic g_i), the bound is least at s = 1 - sqrt(1 + c/a) if
    g_i(p) > 0, at s = 1 otherwise; s is the least of those and ``_SEGMENT_CAP``. G(x_s) certifies
    x_s, and one that is not strictly feasible is dropped.

    Weak duality at the origin, where f = 0, gives lb <= f* <= y*'G(0) <= ||y*||_1 max_i g_i(0), so
    mu_lb lb / max_i g_i(0) <= mu_lb ||y*||_1 <= mu'y* when max_i g_i(0) > 0; rho_lb is 0 when it is
    not, when G(0) is not finite, or when lb = 0. Where this origin bound is positive, rho_lb is the
    larger of it and mu_lb times the bound that weak duality gives at one certified point s p of the
    segment from the origin to p (``_segment_dual_bound``), with lb shrunk by a relative 1e-9 (lb can
    exceed f* by rounding, by 4.4e-16 on one synthetic instance). s stays at or below 0.95
    (``_RHO_SEGMENT_CAP``): near p, f - lb and G are both at rounding level and their ratio is no
    bound (it read 1.32 ||y*||_1 at p itself).

    J is evaluated once, at x_tilde, and G five times: at x_tilde, p, x_s and 0, then at 0.95 p (four
    when the origin bound is 0), and a sixth time where the fit finds a better point inside the
    segment (1 of the 68 synth-batch instances of seeds 0, 4242, 17 and 99, 9 of the 32 synth-10k
    ones). D_Y is the exact diameter of Y: c_bar for m = 1, sqrt(2)*c_bar otherwise (the farthest
    vertex pair of the l1-capped nonnegative orthant). The scalars are Python floats (L_X is one, see
    ConstrainedProblem).

    Raises
    ------
    ValueError
        If G(x_tilde) < 0 fails componentwise, or L_G is not finite and
        positive, or L_G^2 is not finite.
    """
    x_tilde = problem.strict_point
    g_tilde = problem.g(x_tilde).tolist()
    if not all(g < 0 for g in g_tilde):  # nan fails too
        raise ValueError(
            "strict feasibility violated: G(strict_point) must be negative componentwise, "
            f"got max g_i = {float(np.max(g_tilde)):.6g}"
        )
    jac_tilde = problem.jac(x_tilde)
    radius, lb, p, f_p = math.inf, -math.inf, None, 0.0
    for i, (g_i, mu_i) in enumerate(zip(g_tilde, problem.mu.tolist())):
        offset = _norm(jac_tilde[:, i]) / mu_i  # ||x_tilde - z_i||
        rho = math.sqrt(offset * offset - 2.0 * g_i / mu_i)
        radius = min(radius, offset + (1.0 + _BALL_MARGIN) * rho)
        lb_i, p_i, f_p_i = _ball_lower_bound(problem.objective, x_tilde - jac_tilde[:, i] / mu_i, rho)
        if lb_i > lb:
            lb, p, f_p = lb_i, p_i, f_p_i
    l_g = _operator_norm(jac_tilde, problem.m) + problem.L_X * radius
    if not (math.isfinite(l_g) and l_g > 0.0):
        raise ValueError(f"L_G must be finite and positive, got {l_g!r}")
    if not math.isfinite(l_g * l_g):  # the step sizes divide by L_G^2
        raise ValueError(f"L_G^2 overflows: L_G = {l_g:.6g} (L_X = {problem.L_X:.6g}, R = {radius:.6g})")
    lb = max(lb, 0.0)
    c_bar = (problem.f(x_tilde) - lb) / -max(g_tilde)
    s = _SEGMENT_CAP
    g_p = problem.g(p).tolist()
    for c, g_p_i in zip(g_tilde, g_p):
        if g_p_i > 0.0:
            s = min(s, 1.0 - math.sqrt(1.0 + c / (g_p_i - c)))
    x_s = x_tilde + s * (p - x_tilde)
    g_s = problem.g(x_s).tolist()
    if all(-math.inf < g < 0 for g in g_s):
        c_bar = min(c_bar, (problem.f(x_s) - lb) / -max(g_s))
    mu_lb = float(problem.mu.min())
    g_0 = problem.g(np.zeros(problem.n)).tolist()
    g_0_max = max(g_0) if all(map(math.isfinite, g_0)) else 0.0
    rho_lb = mu_lb * lb / g_0_max if g_0_max > 0.0 else 0.0
    if rho_lb > 0.0:
        rho_lb = max(rho_lb, mu_lb * _segment_dual_bound(problem, lb, p, f_p, g_0, g_p))
    d_y = c_bar if problem.m == 1 else math.sqrt(2.0) * c_bar
    return ProblemConstants(
        c_bar=c_bar,
        ball_radius=radius,
        D_X=2.0 * radius,
        D_Y=d_y,
        L_XY=c_bar * problem.L_X,
        L_G=l_g,
        mu_lb=mu_lb,
        rho_lb=rho_lb,
    )


def kkt_residual(problem: ConstrainedProblem, x, y, *, g=None, jac=None) -> KktResidual:
    """KKT diagnostics at (x, y); all four fields are zero exactly at a KKT point.

    Stationarity uses the per-coordinate closed form: |w_i sign(x_i) + v_i|
    where x_i != 0 and max(0, |v_i| - w_i) where x_i = 0, v = grad G(x) y;
    the coordinate distances are combined in Euclidean norm.
    ``g`` and ``jac``, when given, must be G(x) and grad G(x) as returned by
    ``problem.g`` and ``problem.jac``; they spare re-evaluating the oracle.
    """
    x = _vec(x, problem.n, "x")
    y = _vec(y, problem.m, "y")
    w, v = problem.objective.weights, (problem.jac(x) if jac is None else jac).dot(y)
    dist = np.where(x != 0.0, np.abs(np.copysign(w, x) + v), np.maximum(0.0, np.abs(v) - w))
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
