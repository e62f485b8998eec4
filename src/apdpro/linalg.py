"""Small deterministic linear-algebra helpers shared across the package."""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

__all__ = ["NumericalError", "cg_solve", "power_iteration"]


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""


def cg_solve(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by scipy's conjugate gradients.

    ``matvec`` applies A to a vector. The iteration starts from zero, makes
    one mat-vec per step and stops once ``||A x - b|| < tol * ||b||``;
    NumericalError when ``20 * len(b) + 50`` steps do not get there. The
    result is a new array, also when b = 0.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    x, info = cg(LinearOperator((n, n), matvec=matvec, dtype=float), b, rtol=tol, atol=0.0, maxiter=20 * n + 50)
    if info != 0:
        resid = np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)
        raise NumericalError(f"conjugate gradients stalled at relative residual {resid:.3e}")
    return x.copy() if np.may_share_memory(x, b) else x  # scipy returns b itself when b = 0


def power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-10,
    maxiter: int = 100000,
    seed: int = 0,
) -> float:
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    The start vector comes from a fixed-seed generator rather than all-ones:
    on bipartite-like graphs the ones vector can be exactly orthogonal to the
    top eigenvector, which would silently return an interior eigenvalue.
    Stops when the Rayleigh quotient changes by at most ``tol`` (relative).
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = np.inf
    for _ in range(maxiter):
        w = matvec(v)
        lam_new = float(v @ w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise NumericalError(f"power iteration did not converge within {maxiter} iterations")
