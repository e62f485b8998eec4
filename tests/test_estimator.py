"""Dual-norm lower bounds and the rate-coefficient recursion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apdpro.estimator import (
    RhoEstimate,
    h1,
    h2,
    improve_caps,
    rho_hat_recursion,
)


def test_h1_values():
    assert h1(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert h1(1.0, 2.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)  # sqrt(2*2) = 2
    assert h1(1.0, 0.5, 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_h1_decreases_in_gradient_and_beta():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g, b, r, lx = rng.uniform(0.1, 5.0, size=4)
        assert h1(g + 0.5, b, r, lx) < h1(g, b, r, lx)
        assert h1(g, b + 0.5, r, lx) < h1(g, b, r, lx)


def test_h2_values():
    assert h2(4.0, 0.0, 1.0, 1.0, 2.0) == pytest.approx(0.25, abs=1e-15)  # beta=0 collapse
    assert h2(0.5, 2.0, 1.0, 1.0, 2.0) == pytest.approx(0.3431458, abs=1e-7)
    assert h2(1.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert h2(1.0, math.inf, 1.0, 1.0, 1.0) == 0.0  # degenerate average bound: inf ** -2
    assert h2(0.0, math.inf, 1.0, 1.0, 1.0) == 0.0  # its cap, which can never lift rho


def _decades(lo: int, hi: int):
    """Positive floats log-uniform over 10^lo .. 10^hi."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


# A gradient norm of 0, a tiny one, or one anywhere over many decades.
_GRAD = st.one_of(st.just(0.0), st.just(5e-324), _decades(-12, 12))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(g=_GRAD, beta=_decades(-12, 12), beta_bar=st.one_of(st.just(math.inf), _decades(-12, 12)),
       r=_decades(-6, 6), L_X=_decades(-6, 6), mu_lb=_decades(-6, 6))
def test_a_bound_at_gradient_norm_0_caps_it_in_floating_point(g, beta, beta_bar, r, L_X, mu_lb):
    """Both bounds fall as the gradient norm grows, and in floating point too: h(g) never exceeds
    h(0) by the 1e-9 margin with which the solvers skip a bound whose cap cannot lift rho. The
    solvers form mu_lb h(0) in closed form (``improve_caps``): within a few ulps of mu_lb h(0), and
    mu_lb h(g), as the driver multiplies it, never exceeds it by the margin either."""
    assert h1(g, beta, r, L_X) <= h1(0.0, beta, r, L_X) * (1.0 + 1e-9)
    assert h2(g, beta_bar, r, L_X, mu_lb) <= h2(0.0, beta_bar, r, L_X, mu_lb) * (1.0 + 1e-9)
    k1, k2 = improve_caps(r, L_X, mu_lb)
    cap1, cap2 = k1 / math.sqrt(2.0 * beta), k2 / beta_bar
    assert cap1 == pytest.approx(mu_lb * h1(0.0, beta, r, L_X), rel=1e-14, abs=0.0)
    assert cap2 == pytest.approx(mu_lb * h2(0.0, beta_bar, r, L_X, mu_lb), rel=1e-14, abs=0.0)
    assert mu_lb * h1(g, beta, r, L_X) <= cap1 * (1.0 + 1e-9)
    assert mu_lb * h2(g, beta_bar, r, L_X, mu_lb) <= cap2 * (1.0 + 1e-9)


def test_rho_hat_seed_and_recursion_values():
    # The seed 3*sqrt(rho/tau_0) at a segment's step k = 0 lives in RhoEstimate.advance (next test).
    # Recursion at index 1: sqrt(9 + 27)/2 = 3.
    assert rho_hat_recursion(3.0, 3.0, 1) == pytest.approx(3.0, abs=1e-15)
    # Zero-rho step only rescales: sqrt(64)/5.
    assert rho_hat_recursion(2.0, 0.0, 4) == pytest.approx(1.6, abs=1e-15)


def test_estimate_advance_seeds_then_recurses():
    est = RhoEstimate(rho=0.0)
    est.advance(1.0, 1.0, 0)
    assert est.rho_hat == pytest.approx(3.0, abs=1e-15)
    est.advance(3.0, 1.0, 1)
    # The step k = 1 applies the recursion at the old index 1.
    assert est.rho_hat == pytest.approx(rho_hat_recursion(3.0, 3.0, 1), abs=1e-15)
    with pytest.raises(ValueError):
        est.advance(1.0, 1.0, 2)  # rho may not decrease


def test_advance_at_step_0_restarts_the_hat_sequence():
    est = RhoEstimate(rho=0.0)
    est.advance(1.0, 1.0, 0)
    est.advance(2.0, 1.0, 1)
    est.advance(2.0, 4.0, 0)  # the next segment's first step
    assert est.rho == 2.0  # the certified bound itself carries over
    assert est.rho_hat == 3.0 * math.sqrt(2.0 / 4.0)


def test_rho_hat_floor_property():
    # rho_hat_k >= min(rho_1, rho_hat_1) along any nondecreasing rho sequence.
    rng = np.random.default_rng(5)
    for _ in range(50):
        est = RhoEstimate(rho=0.0)
        tau0 = float(rng.uniform(0.05, 1.0))
        rho = float(rng.uniform(0.01, 1.0))
        est.advance(rho, tau0, 0)
        floor = min(rho, est.rho_hat)
        for k in range(1, 61):
            rho += float(rng.uniform(0.0, 0.3))
            est.advance(rho, tau0, k)
            assert est.rho_hat >= floor - 1e-12
