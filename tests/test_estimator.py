"""Dual-norm lower bounds and the rate-coefficient recursion."""

import math

import numpy as np
import pytest

from apdpro.estimator import (
    RhoEstimate,
    h1,
    h2,
    rho_hat_recursion,
    rho_hat_update,
)


def test_h1_values():
    assert h1(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert h1(1.0, 2.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)  # sqrt(2*2) = 2
    assert h1(1.0, 0.5, 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        h1(0.0, 0.0, 1.0, 0.0)


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
    assert h2(1.0, math.inf, 1.0, 1.0, 1.0) == 0.0  # degenerate average bound
    with pytest.raises(ValueError):
        h2(1.0, 0.0, 0.0, 1.0, 1.0)


def test_rho_hat_seed_and_recursion_values():
    assert rho_hat_update(0.0, 1.0, 1, 1.0) == pytest.approx(3.0, abs=1e-15)
    # Recursion at index 1: sqrt(9 + 27)/2 = 3.
    assert rho_hat_recursion(3.0, 3.0, 1) == pytest.approx(3.0, abs=1e-15)
    # Zero-rho step only rescales: sqrt(64)/5.
    assert rho_hat_recursion(2.0, 0.0, 4) == pytest.approx(1.6, abs=1e-15)
    assert rho_hat_update(7.0, 0.0, 4, 1.0) == pytest.approx(rho_hat_recursion(7.0, 0.0, 4), abs=1e-15)
    with pytest.raises(ValueError):
        rho_hat_update(0.0, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        rho_hat_update(0.0, 1.0, 1, 0.0)


def test_estimate_advance_seeds_then_recurses():
    est = RhoEstimate(rho=0.0)
    est.advance(1.0, 1.0)
    assert est.k == 1
    assert est.rho_hat == pytest.approx(3.0, abs=1e-15)
    est.advance(3.0, 1.0)
    # Second advance applies the recursion at the old index 1.
    assert est.rho_hat == pytest.approx(rho_hat_recursion(3.0, 3.0, 1), abs=1e-15)
    with pytest.raises(ValueError):
        est.advance(1.0, 1.0)  # rho may not decrease


def test_reset_epoch_restarts_the_hat_sequence():
    est = RhoEstimate(rho=0.0)
    est.advance(1.0, 1.0)
    est.advance(2.0, 1.0)
    est.reset_epoch()
    assert est.k == 0
    assert est.rho == 2.0  # the certified bound itself carries over
    est.advance(2.0, 4.0)
    assert est.rho_hat == pytest.approx(3.0 * math.sqrt(2.0 / 4.0), abs=1e-15)


def test_rho_hat_floor_property():
    # rho_hat_k >= min(rho_1, rho_hat_1) along any nondecreasing rho sequence.
    rng = np.random.default_rng(5)
    for _ in range(50):
        est = RhoEstimate(rho=0.0)
        tau0 = float(rng.uniform(0.05, 1.0))
        rho = float(rng.uniform(0.01, 1.0))
        est.advance(rho, tau0)
        floor = min(rho, est.rho_hat)
        for _ in range(60):
            rho += float(rng.uniform(0.0, 0.3))
            est.advance(rho, tau0)
            assert est.rho_hat >= floor - 1e-12
