"""Progressive strong-convexity estimation.

Two quantities drive the adaptive solvers: rho_k, a certified lower bound on
(y*)^T mu grown by the Improve procedure from two dual-norm bounds (h1, h2),
and rho_hat_k, the rate coefficient whose recursion ties the step-size decay
to the restart schedule. rho starts at 0, since no iterate exists to improve
from before the first step, except in msapd's stages, which start it at the
constant rho_lb certified at set-up (``derive_constants``); rho_hat is seeded
from the first certified rho.

Both bounds fall as their gradient norm grows, so each one's value at
gradient norm 0 caps it. The solvers evaluate that scalar first and compute
the bound itself, and for h2 the Jacobian at the averaged iterate, only when
mu_lb times the cap can lift rho (see ``solvers._Driver.segment``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RhoEstimate",
    "h1",
    "h2",
    "rho_hat_recursion",
]


def h1(grad_norm: float, beta: float, r: float, L_X: float) -> float:
    """First dual-norm lower bound: r / (grad_norm + L_X*sqrt(2*beta)).

    Valid as a lower bound on ||y*||_1 whenever ||xh - x*||^2 <= 2*beta for
    the point xh at which grad_norm was evaluated.
    """
    denom = grad_norm + L_X * math.sqrt(2.0 * beta)
    if denom <= 0.0:
        raise ValueError("h1 denominator must be positive")
    return r / denom


def h2(grad_norm: float, beta: float, r: float, L_X: float, mu_lb: float) -> float:
    """Second dual-norm lower bound, from the averaged iterate.

    Returns [ (L_X/r)*sqrt(beta/(2*mu_lb)) + sqrt(L_X^2*beta/(2*mu_lb*r^2)
    + grad_norm/r) ]^-2. beta = 0 collapses it to r/grad_norm, and
    beta = inf yields 0 (the bound degenerates gracefully).
    """
    if r <= 0.0 or mu_lb <= 0.0:
        raise ValueError("r and mu_lb must be positive")
    if math.isinf(beta):
        return 0.0
    half = L_X * L_X * beta / (2.0 * mu_lb * r * r)
    bracket = math.sqrt(half) + math.sqrt(half + grad_norm / r)
    if bracket <= 0.0:
        raise ValueError("h2 denominator must be positive")
    return bracket ** -2.0


def rho_hat_recursion(rho_hat_old: float, rho: float, k: int) -> float:
    """The rate-coefficient recursion: sqrt(rho_hat_old^2 k^2 + 3 rho rho_hat_old k)/(k+1).

    k is the index of rho_hat_old, so the call produces rho_hat_{k+1}. Valid
    for any k >= 1 (the seeded sequence enters it first at k = 1).
    """
    return math.sqrt(rho_hat_old * rho_hat_old * k * k + 3.0 * rho * rho_hat_old * k) / (k + 1.0)


@dataclass
class RhoEstimate:
    """Mutable estimator state owned by one solver run.

    ``advance`` feeds it the next certified rho (post-Improve, post-cap) and
    maintains the seeded recursion: rho_hat_1 = 3*sqrt(rho_1/tau_0), then
    rho_hat_{j} = rho_hat_recursion(rho_hat_{j-1}, rho_j, j-1), so the k = 2
    step uses the recursion at multiplier 1.
    """

    rho: float = 0.0
    rho_hat: float = 0.0
    k: int = 0

    def advance(self, rho_new: float, tau_0: float) -> None:
        if rho_new < self.rho:
            raise ValueError("rho must be nondecreasing across updates")
        self.k += 1
        self.rho = rho_new
        if self.k == 1:
            self.rho_hat = 3.0 * math.sqrt(rho_new / tau_0)
        else:
            self.rho_hat = rho_hat_recursion(self.rho_hat, rho_new, self.k - 1)

    def reset_epoch(self) -> None:
        """Start a fresh within-epoch rho_hat sequence; rho itself carries over.

        The placeholder rho_hat = 1 is never consumed: the first advance of
        the new epoch takes the seeding branch.
        """
        self.rho_hat = 1.0
        self.k = 0
