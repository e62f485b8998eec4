"""Small deterministic linear-algebra helpers shared across the package."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["NumericalError", "cg_solve", "power_iteration"]


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""


def cg_solve(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by conjugate gradients.

    Parameters
    ----------
    matvec : callable
        Applies A to a vector.
    b : ndarray
        Right-hand side.
    tol : float
        Relative residual target, ``||A x - b|| <= tol * ||b||``. NumericalError
        when ``20 * len(b) + 50`` iterations do not reach it.

    Returns
    -------
    ndarray
        The solution iterate, starting from zero.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(20 * b.size + 50):
        if np.sqrt(rs) <= tol * bnorm:
            return x
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= tol * bnorm:
        return x
    raise NumericalError(
        f"conjugate gradients stalled at relative residual {np.sqrt(rs) / bnorm:.3e}"
    )


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
