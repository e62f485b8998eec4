"""Proximal and projection operators against closed forms and the oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apdpro.problem import BlockNormObjective
from apdpro.prox import (
    InfeasibleCutError,
    block_soft_threshold,
    project_dual_set,
    prox_f_over_ball,
)
from helpers import random_partition
from oracles import project_oracle, prox_oracle, soft_threshold_blocks


def _l1(n):
    return BlockNormObjective(blocks=tuple((i, 1) for i in range(n)), weights=np.ones(n))


def test_soft_threshold_scalar_shrinkage():
    out = block_soft_threshold(np.array([3.0, -0.5]), _l1(2), 1.0)
    assert np.array_equal(out, [2.0, 0.0])


def test_soft_threshold_tiny_step_is_identity_limit():
    v = np.array([3.0, -0.5])
    out = block_soft_threshold(v, _l1(2), 1e-12)
    assert np.allclose(out, v, atol=1e-11)


def test_soft_threshold_block_formula():
    obj = BlockNormObjective(blocks=((0, 2),), weights=(1.0,))
    out = block_soft_threshold(np.array([3.0, 4.0]), obj, 1.0)  # norm 5
    assert np.allclose(out, [2.4, 3.2], atol=1e-15)


def test_prox_unconstrained_when_ball_is_huge():
    out = prox_f_over_ball(np.array([3.0, -0.5]), 1.0, _l1(2), (np.zeros(2), 100.0))
    assert np.array_equal(out, [2.0, 0.0])


def test_prox_zero_objective_is_ball_projection():
    obj = BlockNormObjective(blocks=((0, 1), (1, 1)), weights=(0.0, 0.0))
    out = prox_f_over_ball(np.array([3.0, 0.0]), 1.0, obj, (np.zeros(2), 1.0))
    assert np.allclose(out, [1.0, 0.0], atol=1e-10)


def test_prox_boundary_case_1d():
    # Unconstrained prox is 2; the objective decreases toward it on [-1, 1].
    out = prox_f_over_ball(np.array([3.0]), 1.0, _l1(1), (np.zeros(1), 1.0))
    assert out[0] == pytest.approx(1.0, abs=1e-10)


def test_prox_stays_in_ball():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        blocks = random_partition(rng, n)
        obj = BlockNormObjective(blocks=blocks, weights=rng.uniform(0.0, 2.0, size=len(blocks)))
        center = rng.normal(size=n)
        radius = float(rng.uniform(0.2, 3.0))
        v = center + rng.normal(scale=2.0, size=n)
        out = prox_f_over_ball(v, float(rng.uniform(0.05, 3.0)), obj, (center, radius))
        assert np.linalg.norm(out - center) <= radius + 1e-10


def test_prox_beats_random_feasible_perturbations():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(1, 6))
        blocks = random_partition(rng, n)
        obj = BlockNormObjective(blocks=blocks, weights=rng.uniform(0.0, 2.0, size=len(blocks)))
        center = rng.normal(size=n)
        radius = float(rng.uniform(0.5, 2.0))
        eta = float(rng.uniform(0.1, 2.0))
        v = center + rng.normal(scale=1.5, size=n)
        x = prox_f_over_ball(v, eta, obj, (center, radius))

        def objective(z):
            return obj.value(z) + float((z - v) @ (z - v)) / (2.0 * eta)

        base = objective(x)
        for _ in range(200):
            z = x + rng.uniform(-1e-3, 1e-3, size=n)
            d = z - center
            nd = np.linalg.norm(d)
            if nd > radius:
                z = center + d * (radius / nd)
            assert base <= objective(z) + 1e-12


def test_prox_matches_independent_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        blocks = random_partition(rng, n)
        weights = rng.uniform(0.0, 2.0, size=len(blocks))
        obj = BlockNormObjective(blocks=blocks, weights=weights)
        center = rng.normal(size=n)
        radius = float(rng.uniform(0.5, 2.0))
        v = center + rng.normal(scale=1.5, size=n)
        eta = float(rng.uniform(0.05, 2.0))
        mine = prox_f_over_ball(v, eta, obj, (center, radius))
        ref = prox_oracle(v, eta, blocks, weights, center, radius)
        assert np.max(np.abs(mine - ref)) <= 1e-5


def test_prox_multiplier_path_is_monotone():
    # The multiplier solve assumes the radius residual shrinks as the multiplier grows.
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        blocks = random_partition(rng, n)
        obj = BlockNormObjective(blocks=blocks, weights=rng.uniform(0.0, 2.0, size=len(blocks)))
        center = rng.normal(size=n)
        v = center + rng.normal(scale=2.0, size=n)
        eta = float(rng.uniform(0.1, 2.0))
        dists = []
        for lam in np.linspace(0.0, 50.0, 40):
            eta_eff = 1.0 / (1.0 / eta + lam)
            w = (v / eta + lam * center) * eta_eff
            dists.append(np.linalg.norm(block_soft_threshold(w, obj, eta_eff) - center))
        assert all(b <= a + 1e-10 for a, b in zip(dists, dists[1:]))


def test_dual_projection_interval_clamp():
    assert project_dual_set(np.array([0.5]), 1.0, 2.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert project_dual_set(np.array([3.0]), 1.0, 2.0)[0] == pytest.approx(2.0, abs=1e-12)
    assert project_dual_set(np.array([1.7]), 1.0, 2.0)[0] == pytest.approx(1.7, abs=1e-15)


def test_dual_projection_upper_bound_split():
    out = project_dual_set(np.array([2.0, 2.0]), 0.0, 3.0)
    assert np.allclose(out, [1.5, 1.5], atol=1e-12)


def test_dual_projection_empty_slab_raises():
    with pytest.raises(InfeasibleCutError):
        project_dual_set(np.array([1.0]), 2.0, 1.0)


def test_dual_projection_degenerate_equality_slab():
    out = project_dual_set(np.array([0.2, 0.9]), 1.0, 1.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0.0)


def test_dual_projection_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(250):
        m = int(rng.integers(1, 4))
        u = rng.normal(scale=2.0, size=m)
        bounds = np.sort(rng.uniform(0.0, 3.0, size=2))
        lower, upper = float(bounds[0]), float(bounds[1])
        mine = project_dual_set(u, lower, upper)
        ref = project_oracle(u, lower, upper)
        assert np.max(np.abs(mine - ref)) <= 1e-8
        assert np.all(mine >= 0.0)
        assert lower - 1e-10 <= mine.sum() <= upper + 1e-10


def test_dual_projection_nonexpansive():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        bounds = np.sort(rng.uniform(0.0, 3.0, size=2))
        lower, upper = float(bounds[0]), float(bounds[1])
        u1 = rng.normal(scale=2.0, size=m)
        u2 = rng.normal(scale=2.0, size=m)
        d_out = np.linalg.norm(project_dual_set(u1, lower, upper) - project_dual_set(u2, lower, upper))
        assert d_out <= np.linalg.norm(u1 - u2) + 1e-12


def test_dual_projection_lower_edge_far_below_the_slab():
    # Cancellation in u - nu once left the support empty (IndexError) at -1e20, and 4.6% below
    # the lower edge at -1e10.
    for u, expected in (([-1e20], [1e-5]), ([-1e20, -3e20], [1e-5, 0.0]), ([-3e20, -1e20], [0.0, 1e-5]),
                        ([-1e10], [1e-5])):
        u = np.array(u)
        mine = project_dual_set(u, 1e-5, 1.0)
        assert np.array_equal(mine, expected)
        assert np.array_equal(mine, project_oracle(u, 1e-5, 1.0))


def test_dual_projection_meets_a_subnormal_target_to_one_step():
    # Every u of up to 3 entries from -4 to 4 grid steps, onto a sum of 1 to 8 steps: the support
    # test and the sums are exact on this grid, and the offset rounds once. Dividing in the support
    # test once dropped entries tied with the largest, so u = [0, 0, 0] onto 1 step gave 3 steps.
    step = float(np.finfo(float).smallest_subnormal)
    for m in (1, 2, 3):
        for u in itertools.product(range(-4, 5), repeat=m):
            u = step * np.array(u, dtype=float)
            for t in range(1, 9):
                for lower, upper in ((t * step, 1.0), (0.0, t * step)):
                    positive = np.maximum(u, 0.0).sum()
                    if lower <= positive <= upper:
                        continue
                    mine = project_dual_set(u, lower, upper)
                    assert np.all(mine >= 0.0)
                    assert abs(mine.sum() - t * step) <= step, (u / step, t, mine / step)


# -- the loop's float64 vectors -------------------------------------------------

@pytest.mark.parametrize("v", [np.array([3.0, -0.5, 0.0]), np.array([2.0])], ids=["n3", "n1"])
def test_operators_return_a_new_float64_vector_and_leave_their_input(v):
    """The operators take the loop's float64 vectors as given (no conversion, no shape check):
    each returns a new float64 array and writes neither v nor the ball's center."""
    n = v.size
    obj, center = _l1(n), np.full(n, 0.5)
    for out in (block_soft_threshold(v, obj, 0.7), prox_f_over_ball(v, 0.7, obj, (center, 1.0)),
                prox_f_over_ball(v, 0.7, obj, (center, 100.0)), project_dual_set(v, 0.5, 1.0)):
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (n,)
        assert not np.shares_memory(out, v) and not np.shares_memory(out, center)
    assert np.array_equal(v, [3.0, -0.5, 0.0] if n == 3 else [2.0])
    assert np.array_equal(center, np.full(n, 0.5))


# -- properties against the independent oracles -----------------------------------

_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def prox_cases(draw):
    """Random blocks, weights, step and ball; v near the ball or far outside it."""
    n = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    edges = [0, *cuts, n]
    blocks = tuple((a, b - a) for a, b in zip(edges, edges[1:]))
    weights = np.array(draw(st.lists(_floats(0.0, 2.0), min_size=len(blocks), max_size=len(blocks))))
    center = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([0.3, 1.5, 6.0]))
    v = center + scale * np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n)))
    radius = draw(_floats(0.2, 1.5) if n == 1 else _floats(0.2, 3.0))  # the 1-D oracle scans the ball at 1e-6
    return v, draw(_floats(0.05, 2.0)), blocks, weights, center, radius


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=prox_cases())
def test_prox_matches_the_oracle_property(case):
    v, eta, blocks, weights, center, radius = case
    mine = prox_f_over_ball(v, eta, BlockNormObjective(blocks=blocks, weights=weights), (center, radius))
    assert np.linalg.norm(mine - center) <= radius + 1e-10
    assert np.max(np.abs(mine - prox_oracle(v, eta, blocks, weights, center, radius))) <= 1e-5


@st.composite
def binding_prox_cases(draw):
    """A prox the ball binds: random blocks (singletons or not), weights, step and center, v outside,
    and a radius below the unconstrained prox's distance from the center."""
    n = draw(st.integers(1, 5))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    edges = [0, *cuts, n]
    blocks = tuple((a, b - a) for a, b in zip(edges, edges[1:]))
    weights = np.array(draw(st.lists(_floats(0.0, 2.0), min_size=len(blocks), max_size=len(blocks))))
    center = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=n, max_size=n)))
    v = center + draw(st.sampled_from([0.5, 2.0, 8.0])) * np.array(
        draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n)))
    eta = draw(_floats(0.05, 2.0))
    reach = float(np.linalg.norm(soft_threshold_blocks(v, blocks, weights, eta) - center))
    assume(reach > 0.05)
    radius = min(draw(_floats(0.1, 0.99)) * reach, 1.5)  # the 1-D oracle scans the ball at 1e-6
    return v, eta, blocks, weights, center, radius


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=binding_prox_cases())
def test_prox_where_the_ball_binds_matches_the_oracle_property(case):
    """The point lies on the sphere to 1e-13 relative, never outside it, and agrees with the oracle."""
    v, eta, blocks, weights, center, radius = case
    mine = prox_f_over_ball(v, eta, BlockNormObjective(blocks=blocks, weights=weights), (center, radius))
    assert (1.0 - 1e-13) * radius <= np.linalg.norm(mine - center) <= radius
    assert np.max(np.abs(mine - prox_oracle(v, eta, blocks, weights, center, radius))) <= 1e-5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("blocks", [((0, 1), (1, 1), (2, 1)), ((0, 2), (2, 1))], ids=["singletons", "blocks"])
def test_prox_of_a_non_finite_v_is_non_finite_and_does_not_raise(bad, blocks):
    """The solver checks x_{k+1} finite and names the layer that went non-finite first; the prox
    only passes the bad value on, whether or not the ball would bind."""
    obj = BlockNormObjective(blocks=blocks, weights=np.ones(len(blocks)))
    for radius in (0.1, 100.0):
        out = prox_f_over_ball(np.array([3.0, bad, -1.0]), 0.5, obj, (np.zeros(3), radius))
        assert not np.isfinite(out).all()


@st.composite
def singleton_cases(draw):
    """l1 weights (zeros included), a step, and v mixing any value, zeros, +-1e-160 and +-t exactly."""
    n = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), _floats(0.0, 10.0)), min_size=n, max_size=n)))
    eta = draw(_floats(1e-6, 10.0))
    t = eta * weights
    kinds = draw(st.lists(st.sampled_from(["any", "zero", "tiny", "threshold"]), min_size=n, max_size=n))
    fixed = {"zero": np.zeros(n), "tiny": np.full(n, 1e-160), "threshold": t}
    v = np.array([draw(_floats(-1e3, 1e3)) if kind == "any" else fixed[kind][i] for i, kind in enumerate(kinds)])
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    return signs * v, eta, weights


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=singleton_cases())
def test_singleton_soft_threshold_matches_the_block_oracle_property(case):
    """v - clip(v, -t, t) against the per-block formula: one unit in the last place of v."""
    v, eta, weights = case
    blocks = tuple((i, 1) for i in range(v.size))
    mine = block_soft_threshold(v, BlockNormObjective(blocks=blocks, weights=weights), eta)
    ref = soft_threshold_blocks(v, blocks, weights, eta)
    assert np.all(np.abs(mine - ref) <= np.spacing(np.abs(v))), (mine, ref)


@st.composite
def slab_cases(draw):
    """Random u, up to 1e12 in size, and slab; "below" puts all of u under the slab, so the
    lower edge binds."""
    m = draw(st.integers(1, 3))
    lower, upper = sorted(draw(st.lists(_floats(0.0, 5.0), min_size=2, max_size=2)))
    size = draw(st.sampled_from([50.0, 1e12]))
    u = np.array(draw(st.lists(_floats(-size, size), min_size=m, max_size=m)))
    where = draw(st.sampled_from(["any", "below", "above"]))
    if where == "below":
        lower = max(lower, 1e-3)
        upper = max(upper, lower)
        u = -np.abs(u)
    elif where == "above":
        u = np.abs(u) + upper
    return u, lower, upper


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=slab_cases())
def test_dual_projection_matches_the_oracle_property(case):
    u, lower, upper = case
    mine = project_dual_set(u, lower, upper)
    assert np.all(mine >= 0.0) and lower - 1e-10 <= mine.sum() <= upper + 1e-10
    positive = np.maximum(u, 0.0).sum()
    if not lower <= positive <= upper:  # a sum bound is active: the sum sits on it
        target = upper if positive > upper else lower
        # the common offset on the support rounds once, and below the normal range float64's step
        # is the smallest subnormal: u = [0, 0] onto sum 5e-324 has no representable exact answer
        assert abs(mine.sum() - target) <= max(1e-12 * target, _SUBNORMAL)
    assert np.max(np.abs(mine - project_oracle(u, lower, upper))) <= 1e-8
