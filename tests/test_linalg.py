"""Conjugate gradients on a small symmetric positive definite system."""

import numpy as np
import pytest

from apdpro.linalg import NumericalError, cg_solve


def _spd(n=12, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n), rng.standard_normal(n)


def test_cg_solve_reaches_the_requested_relative_residual():
    a, b = _spd()
    x = cg_solve(lambda v: a @ v, b, tol=1e-14)
    assert np.linalg.norm(a @ x - b) <= 1e-14 * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0.0, atol=1e-12)


def _counting(matvec):
    calls = []

    def counted(v):
        calls.append(1)
        return matvec(v)

    return counted, calls


def test_cg_solve_of_a_zero_right_hand_side_is_zero():
    a, b = _spd()
    matvec, calls = _counting(lambda v: a @ v)
    zero = np.zeros_like(b)
    x = cg_solve(matvec, zero, tol=1e-14)
    assert np.array_equal(x, zero) and not np.shares_memory(x, zero)
    assert calls == []


def test_cg_solve_takes_one_matvec_per_distinct_eigenvalue():
    """In exact arithmetic CG ends after as many steps as A has distinct eigenvalues;
    each step is one mat-vec, and no mat-vec forms the starting residual."""
    d = np.array([1.0, 2.0, 5.0, 2.0, 1.0, 5.0, 1.0])
    matvec, calls = _counting(lambda v: d * v)
    b = np.arange(1.0, 8.0)
    x = cg_solve(matvec, b, tol=1e-12)
    assert len(calls) == 3
    assert np.linalg.norm(d * x - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_solve_raises_when_it_stalls():
    """A positive definite but nonsymmetric A breaks CG's recurrence: the 20n + 50 cap runs out."""
    rng = np.random.default_rng(3)
    s = rng.standard_normal((12, 12))
    a = np.eye(12) + 2.0 * (s - s.T)
    with pytest.raises(NumericalError, match="relative residual"):
        cg_solve(lambda v: a @ v, rng.standard_normal(12), tol=1e-14)
