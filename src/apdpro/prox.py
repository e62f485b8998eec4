"""Exact proximal and projection oracles used by every solver step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError
from .problem import BlockNormObjective, _norm, _vec

__all__ = [
    "DualSlab",
    "InfeasibleCutError",
    "block_soft_threshold",
    "prox_f_over_ball",
    "project_dual_set",
]


class InfeasibleCutError(RuntimeError):
    """The dual cut produced an empty slab (rho exceeded mu_lb * c_bar)."""


@dataclass(frozen=True)
class DualSlab:
    """The cut dual set {y >= 0, lower <= sum(y) <= upper} with lower = rho/mu_lb."""

    lower: float
    upper: float
    m: int


def block_soft_threshold(v, objective: BlockNormObjective, eta: float) -> np.ndarray:
    """Per-block shrinkage, the proximal map of eta*f at v.

    Each block becomes max(0, 1 - eta*p_i/||v_(i)||) * v_(i); a zero block
    stays zero (the unique prox value there). With singleton blocks this is
    v - clip(v, -t, t), t = eta*p, formed in two passes; it agrees with the
    block form to one unit in the last place of v.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    v = _vec(v, objective.n, "v")
    if objective._singletons:
        t = eta * objective.weights
        c = np.negative(t)
        np.maximum(v, c, out=c)
        np.minimum(c, t, out=c)
        return np.subtract(v, c, out=c)
    norms = objective.block_norms(v)
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.maximum(0.0, 1.0 - eta * objective.weights / safe)
    return objective.expand(scale) * v


def prox_f_over_ball(
    v,
    eta: float,
    objective: BlockNormObjective,
    ball: tuple[np.ndarray, float],
) -> np.ndarray:
    """Exact minimizer of f(xh) + ||xh - v||^2 / (2 eta) over ||xh - center|| <= R.

    Parameters
    ----------
    v : array_like
        Point being proximated (already includes any gradient step).
    eta : float
        Positive step size.
    objective : BlockNormObjective
        Defines f.
    ball : (center, radius)
        The primal ball X.

    Returns
    -------
    ndarray
        The constrained prox point.

    Notes
    -----
    A scalar multiplier lam >= 0 enforces the ball: x(lam) is the block
    soft-threshold of w(lam) = (v/eta + lam*center)/(1/eta + lam) at the
    effective step 1/(1/eta + lam). lam = 0 when the unconstrained prox is
    already feasible; otherwise safeguarded bisection drives the radius
    residual ||x(lam) - center|| - R to 1e-12.
    """
    center, radius = ball
    if eta <= 0:
        raise ValueError("eta must be positive")
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    v = _vec(v, objective.n, "v")
    center = _vec(center, objective.n, "ball center")

    x0 = block_soft_threshold(v, objective, eta)
    if _norm(x0 - center) <= radius:
        return x0

    def trial(lam: float) -> np.ndarray:
        eta_eff = 1.0 / (1.0 / eta + lam)
        w = (v / eta + lam * center) * eta_eff
        return block_soft_threshold(w, objective, eta_eff)

    def resid(lam: float) -> float:
        return _norm(trial(lam) - center) - radius

    # resid(0) > 0 here; double until the residual changes sign.
    lo, hi = 0.0, 1.0
    fhi = resid(hi)
    doublings = 0
    while fhi > 0.0:
        doublings += 1
        if doublings > 200:
            raise NumericalError("ball multiplier not bracketed within 200 doublings")
        lo, hi = hi, 2.0 * hi
        fhi = resid(hi)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = resid(mid)
        if abs(fm) <= 1e-12:
            return trial(mid)
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    # hi keeps resid <= 0, so the output stays inside the ball.
    return trial(hi)


def project_dual_set(u, slab: DualSlab) -> np.ndarray:
    """Euclidean projection onto the slab {y >= 0, lower <= sum(y) <= upper}.

    Uses the shift characterization y(nu) = [u - nu]_+, whose sum is
    nonincreasing in nu: nu = 0 if the plain positive part already satisfies
    the sum bounds, else nu is found exactly by water-filling on sorted
    entries so the active sum bound holds with equality.

    The water-filling runs on u - max(u): the support's entries lie within
    the target of the largest one, so the shifted values stay small at any
    |u|, and y on the support S is formed as (u - mean(u_S)) + target/|S|
    there, which keeps the sum at the target to rounding (u - nu would
    cancel at |u| >> target).
    """
    if slab.lower > slab.upper:
        raise InfeasibleCutError(
            f"empty dual slab: lower {slab.lower:.6g} > upper {slab.upper:.6g}"
        )
    u = _vec(u, slab.m, "u")
    y0 = np.maximum(u, 0.0)
    s0 = float(y0.sum())
    if slab.lower <= s0 <= slab.upper:
        return y0
    target = slab.upper if s0 > slab.upper else slab.lower
    if target <= 0.0:
        return np.zeros_like(u)
    us = np.sort(u)[::-1]
    top = us[0]
    shifted = us - top
    prefix = np.cumsum(shifted)
    counts = np.arange(1, u.size + 1, dtype=float)
    # The largest entry always qualifies (its test reads target > 0), so the support is never empty.
    k = np.nonzero(shifted - (prefix - target) / counts > 0)[0][-1]
    size = k + 1.0  # |S|
    return np.maximum(((u - top) - prefix[k] / size) + target / size, 0.0)
