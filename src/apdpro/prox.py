"""Exact proximal and projection oracles used by every solver step.

``prox_f_over_ball``, ``block_soft_threshold`` (defined in ``problem``) and
``project_dual_set`` are the loop's kernels: they take the driver's float64
vectors and scalars as given and check nothing, so their preconditions are
met where those values enter the program (each docstring names the check).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import NumericalError
from .problem import BlockNormObjective, _norm, block_soft_threshold

__all__ = ["InfeasibleCutError"]


# The prox's ball multiplier is solved until ||x - center|| lies in [(1 - _RADIUS_RTOL) R, R].
_RADIUS_RTOL = 1e-14
_ROOT_STEPS = 100
_EPS = float(np.finfo(float).eps)


class InfeasibleCutError(RuntimeError):
    """The dual cut produced an empty slab (rho exceeded mu_lb * c_bar)."""


def prox_f_over_ball(
    v,
    eta: float,
    objective: BlockNormObjective,
    ball: tuple[np.ndarray, float],
) -> np.ndarray:
    """Exact minimizer of f(xh) + ||xh - v||^2 / (2 eta) over ||xh - center|| <= R.

    Parameters
    ----------
    v : ndarray
        Float64 vector of length n, the point being proximated (already
        includes any gradient step).
    eta : float
        Step size, > 0: the driver's tau (see ``solvers.stepsize_update``).
    objective : BlockNormObjective
        Defines f.
    ball : (center, radius)
        The primal ball X: the problem's float64 ``strict_point``
        (``ConstrainedProblem`` converts it) and ``derive_constants``'
        radius R > 0.

    Returns
    -------
    ndarray
        The constrained prox point, inside the ball. A nan or inf in v
        comes back as a non-finite point, for the solver to report.

    Raises
    ------
    NumericalError
        If a finite v gives a multiplier that cannot be bracketed (the
        distance to the center overflows).

    Notes
    -----
    A scalar multiplier lam >= 0 enforces the ball: x(lam) is the block
    soft-threshold of w(lam) = (v/eta + lam*center)/(1/eta + lam) at the
    effective step 1/(1/eta + lam), and ||x(lam) - center|| falls as lam
    grows. lam = 0 when the unconstrained prox is already feasible.
    Otherwise lam is solved for until ||x(lam) - center|| lies in
    [(1 - 1e-14) R, R], and the last trial inside the ball is returned.

    - With singleton blocks, each step first tries the multiplier's closed
      form on the active set A of the last trial (its nonzero coordinates,
      signs s): on A, x - center is (v/eta - s p - center/eta)/(1/eta + lam),
      and off A it is -center, so the trial's own distance on A, rescaled,
      gives the root. Once A stands, that step lands on it: counting the
      unconstrained trial, a binding call costs 2 to 6 soft thresholds on
      the benchmark's workloads (README).
    - Otherwise, and whenever that step leaves the bracket, the bracket
      gives the step. Its upper end comes in closed form: w(lam) - center
      is (v - center)/(eta (1/eta + lam)), and each block moves at most
      p_i/(1/eta + lam) from w(lam), so the radius is met by lam_hi =
      (||v - center||/eta + ||p||)/R - 1/eta. lam_hi is doubled should
      rounding leave x(lam_hi) outside. Within the bracket the step is
      Illinois's (regula falsi that halves the stale end's residual).
    """
    center, radius = ball
    x = block_soft_threshold(v, objective, eta)
    d = x - center
    dist = _norm(d)
    if dist <= radius or not np.isfinite(x).all():  # inside, or non-finite from v
        return x

    inv_eta = 1.0 / eta
    target = radius * (1.0 - 0.5 * _RADIUS_RTOL)
    tol = 0.5 * _RADIUS_RTOL * radius

    v_eta = v * inv_eta

    def trial(lam: float) -> np.ndarray:
        eta_eff = 1.0 / (inv_eta + lam)
        return block_soft_threshold((v_eta + lam * center) * eta_eff, objective, eta_eff)

    def active_set_root(x: np.ndarray, d: np.ndarray, lam: float) -> float:
        """The multiplier that meets ``target`` should the active set and signs of x = x(lam) stand:
        d = x - center scales as 1/(1/eta + lam) on the active set and is -center off it."""
        dd = d * d
        on = float(np.where(x == 0.0, 0.0, dd).sum())
        room = target * target - (dd.sum() - on)
        return (inv_eta + lam) * math.sqrt(on / room) - inv_eta if room > 0.0 else math.nan

    singletons = objective._singletons
    lam = 0.0
    lo, f_lo = 0.0, dist - target
    hi, f_hi, x_hi = math.inf, -math.inf, None
    last_side = 0
    for _ in range(_ROOT_STEPS):
        lam = active_set_root(x, d, lam) if singletons else math.nan
        if not lo < lam < hi:
            if x_hi is None:  # nothing inside the ball yet: the bound, doubled should rounding defeat it
                bound = (_norm(v - center) * inv_eta + _norm(objective.weights)) / target - inv_eta
                lam = bound if bound > lo else 2.0 * max(lo, inv_eta)
            else:
                lam = hi - f_hi * (hi - lo) / (f_hi - f_lo)
                if not lo < lam < hi:
                    lam = 0.5 * (lo + hi)
        x = trial(lam)
        d = x - center
        f = _norm(d) - target
        if abs(f) <= tol:
            return x
        if not math.isfinite(f):
            raise NumericalError(f"ball multiplier not bracketed: radius residual {f} at lam = {lam:.6g}")
        if f > 0.0:
            lo, f_lo = lam, f
            if last_side > 0:
                f_hi *= 0.5
            last_side = 1
        else:
            hi, f_hi, x_hi = lam, f, x
            if last_side < 0:
                f_lo *= 0.5
            last_side = -1
        if x_hi is not None and hi - lo <= 4.0 * _EPS * hi:
            break
    if x_hi is None:
        raise NumericalError(f"ball multiplier not bracketed within {_ROOT_STEPS} steps")
    return x_hi  # f_hi <= 0: inside the ball


def project_dual_set(u, lower: float, upper: float) -> np.ndarray:
    """Euclidean projection onto the slab {y >= 0, lower <= sum(y) <= upper}.

    The solvers cut the dual set Y = {y >= 0, ||y||_1 <= c_bar} below at
    lower = rho/mu_lb, with upper = c_bar; u may have any length.

    Uses the shift characterization y(nu) = [u - nu]_+, whose sum is
    nonincreasing in nu: nu = 0 if the plain positive part already satisfies
    the sum bounds, else nu is found exactly by water-filling on sorted
    entries so the active sum bound holds with equality.

    The water-filling runs on u - max(u): the support's entries lie within
    the target of the largest one, so the shifted values stay small at any
    |u|, and y on the support S is formed as (u - max(u)) plus the common
    offset (target - sum of the shifted u_S)/|S|, which keeps the sum at the
    target to rounding (u - nu would cancel at |u| >> target). The support
    test has no division, so it is exact on the subnormal grid and entries
    tied with the largest stay in S; the offset rounds once, so a target
    below the normal range is met to |S|/2 smallest subnormals.

    u is a float64 vector, as the driver's y + sigma z is (its start y0 is
    converted in ``_Driver.__init__``), and upper = c_bar >= 0.
    """
    if lower > upper:
        raise InfeasibleCutError(f"empty dual slab: lower {lower:.6g} > upper {upper:.6g}")
    y0 = np.maximum(u, 0.0)
    s0 = float(y0.sum())
    if lower <= s0 <= upper:
        return y0
    target = upper if s0 > upper else lower
    if target <= 0.0:
        return np.zeros_like(u)
    us = np.sort(u)[::-1]
    top = us[0]
    shifted = us - top
    prefix = np.cumsum(shifted)
    counts = np.arange(1, u.size + 1, dtype=float)
    # The largest entry always qualifies (its test reads 0 > -target), so the support is never empty.
    k = np.nonzero(counts * shifted > prefix - target)[0][-1]
    return np.maximum((u - top) + (target - prefix[k]) / (k + 1.0), 0.0)
