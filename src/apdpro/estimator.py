"""Progressive strong-convexity estimation.

Two quantities drive the adaptive solvers: rho_k, a certified lower bound on
(y*)^T mu grown by the Improve procedure from two dual-norm bounds (h1, h2),
and rho_hat_k, the rate coefficient whose recursion ties the step-size decay
to the restart schedule. rho starts at 0, since no iterate exists to improve
from before the first step, except in msapd's stages, which start it at the
constant rho_lb certified at set-up (``derive_constants``); rho_hat is seeded
from the first certified rho of each segment, epoch or stage, so it starts
again with the segment, as T and the step sizes do.

Both bounds fall as their gradient norm grows, so each one's value at
gradient norm 0 caps it, and mu_lb times the cap has a closed form
(``improve_caps``). The solvers evaluate that first and compute the bound
itself, and for h2 the Jacobian at the averaged iterate, only when it can
lift rho (see ``solvers._Driver.segment``).

h1 and h2 are the loop's kernels: they take the driver's values as given and
check nothing. ``ConstrainedProblem`` checks r (finite, > 0) and L_X (finite,
>= max(mu) > 0) when it is built, and ``derive_constants`` takes mu_lb =
min(mu) > 0; the driver forms beta and beta_bar from positive steps and
diameters. The loop is their only caller, so they are not in ``__all__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RhoEstimate",
    "rho_hat_recursion",
]


def h1(grad_norm: float, beta: float, r: float, L_X: float) -> float:
    """First dual-norm lower bound: r / (grad_norm + L_X*sqrt(2*beta)).

    Valid as a lower bound on ||y*||_1 whenever ||xh - x*||^2 <= 2*beta for
    the point xh at which grad_norm was evaluated. Precondition: grad_norm
    >= 0, beta > 0 and L_X > 0, so the denominator is positive; the
    driver forms beta from positive steps and D_X = 2R > 0, and
    ``ConstrainedProblem`` checks L_X >= max(mu) > 0.
    """
    return r / (grad_norm + L_X * math.sqrt(2.0 * beta))


def h2(grad_norm: float, beta: float, r: float, L_X: float, mu_lb: float) -> float:
    """Second dual-norm lower bound, from the averaged iterate.

    Returns [ (L_X/r)*sqrt(beta/(2*mu_lb)) + sqrt(L_X^2*beta/(2*mu_lb*r^2)
    + grad_norm/r) ]^-2. beta = 0 collapses it to r/grad_norm, and
    beta = inf (no average yet) gives inf ** -2 = 0. Precondition: r > 0
    and L_X > 0 (checked by ``ConstrainedProblem``), mu_lb > 0
    (``derive_constants``' min(mu)), and beta > 0 or grad_norm > 0, so the
    bracket is positive.
    """
    half = L_X * L_X * beta / (2.0 * mu_lb * r * r)
    return (math.sqrt(half) + math.sqrt(half + grad_norm / r)) ** -2.0


def improve_caps(r: float, L_X: float, mu_lb: float) -> tuple[float, float]:
    """(K1, K2) = (mu_lb r/L_X, mu_lb^2 r^2/(2 L_X^2)): mu_lb h1(0, beta) = K1/sqrt(2 beta) and
    mu_lb h2(0, beta_bar) = K2/beta_bar, to a few ulps, fixed once per run. K2/inf = 0 is h2's cap
    before an average exists. Same preconditions as h1 and h2.
    """
    k1 = mu_lb * r / L_X
    return k1, 0.5 * k1 * k1


def rho_hat_recursion(rho_hat_old: float, rho: float, k: int) -> float:
    """The rate-coefficient recursion: sqrt(rho_hat_old^2 k^2 + 3 rho rho_hat_old k)/(k+1).

    k is the index of rho_hat_old, so the call produces rho_hat_{k+1}. Valid
    for any k >= 1 (the seeded sequence enters it first at k = 1).
    """
    return math.sqrt(rho_hat_old * rho_hat_old * k * k + 3.0 * rho * rho_hat_old * k) / (k + 1.0)


@dataclass
class RhoEstimate:
    """Mutable estimator state owned by one solver run.

    ``advance`` feeds it the next certified rho (post-Improve, post-cap) at
    step k of the current segment and maintains the seeded recursion:
    rho_hat_1 = 3*sqrt(rho_1/tau_0) at k = 0, then rho_hat_{k+1} =
    rho_hat_recursion(rho_hat_k, rho_{k+1}, k), so the k = 1 step uses the
    recursion at multiplier 1. The seed at each segment's k = 0 starts
    rho_hat again with the segment (rapdpro's epochs, msapd's stages);
    rho itself carries over.
    """

    rho: float = 0.0
    rho_hat: float = 0.0

    def advance(self, rho_new: float, tau_0: float, k: int) -> None:
        if rho_new < self.rho:
            raise ValueError("rho must be nondecreasing across updates")
        self.rho = rho_new
        if k == 0:
            self.rho_hat = 3.0 * math.sqrt(rho_new / tau_0)
        else:
            self.rho_hat = rho_hat_recursion(self.rho_hat, rho_new, k)
