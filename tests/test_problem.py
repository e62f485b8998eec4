"""Problem model: block-norm objective, derived constants, KKT."""

import dataclasses
import re

import numpy as np
import pytest

from apdpro.problem import (
    BlockNormObjective,
    ConstrainedProblem,
    _vec,
    derive_constants,
    jacobian_operator_norm,
    kkt_residual,
)
from apdpro.prox import prox_f_over_ball
from helpers import CANONICAL_C_BAR, NdarraySubclass, random_partition

SQRT2 = np.sqrt(2.0)


def _toy_problem(m=1, jac=None):
    """Minimal two-constraint-capable problem; only the fields a test exercises matter."""
    n = 3
    obj = BlockNormObjective(blocks=((0, 1), (1, 2)), weights=(1.0, 2.0))
    center = np.array([1.0, 0.0, 0.0])

    def constraints(x):
        return np.array([0.5 * (x - center) @ (x - center) - 1.0] * m)

    def jacobian(x):
        if jac is not None:
            return jac
        return np.tile((x - center).reshape(n, 1), (1, m))

    return ConstrainedProblem(
        objective=obj, constraints=constraints, jacobian=jacobian,
        mu=np.ones(m), L_X=np.float64(1.0), r=1.0, strict_point=center,
    )


def test_block_partition_validation():
    """The same message for a bad partition given as (start, length) pairs or as a (B, 2) array."""
    partition = "blocks must be contiguous, ascending, and partition the space"
    cases = (
        (((0, 2), (3, 1)), (1.0, 1.0), partition),  # gap at 2
        (((0, 2),), (1.0, 1.0), "need exactly one weight per block"),
        (((0, 1),), (-0.5,), "block weights must be nonnegative"),
        (((0, 0),), (1.0,), partition),  # empty block
    )
    for blocks, weights, message in cases:
        for given in (blocks, np.array(blocks)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                BlockNormObjective(blocks=given, weights=weights)


def test_block_partition_is_a_read_only_copy():
    given = np.array([[0, 2], [2, 1]])
    obj = BlockNormObjective(blocks=given, weights=(1.0, 1.0))
    given[1, 1] = 5
    assert obj.blocks.dtype == np.intp and np.array_equal(obj.blocks, [[0, 2], [2, 1]])
    for view in (obj.blocks, obj._starts, obj._lengths):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1


def test_objectives_compare_and_hash_by_identity():
    a = BlockNormObjective(blocks=((0, 1), (1, 2)), weights=(1.0, 2.0))
    b = BlockNormObjective(blocks=((0, 1), (1, 2)), weights=(1.0, 2.0))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_tuple_and_array_partitions_agree_bitwise():
    rng = np.random.default_rng(5)
    for n in (3, 9, 40):
        blocks = random_partition(rng, n)
        while len(blocks) in (1, n):  # a non-singleton path with more than one block
            blocks = random_partition(rng, n)
        w = rng.uniform(0.0, 3.0, size=len(blocks))
        pair = BlockNormObjective(blocks=blocks, weights=w)
        arr = BlockNormObjective(blocks=np.array(blocks), weights=w)
        x = rng.normal(size=n)
        per_block = rng.normal(size=len(blocks))
        center, radius = rng.normal(size=n), 2.0
        assert np.array_equal(pair.block_norms(x), arr.block_norms(x))
        assert np.array_equal(pair.expand(per_block), arr.expand(per_block))
        assert pair.value(x) == arr.value(x)
        for eta in (0.1, 1.0, 10.0):
            assert np.array_equal(prox_f_over_ball(x, eta, pair, (center, radius)),
                                  prox_f_over_ball(x, eta, arr, (center, radius)))


def test_objective_value_matches_direct_sum():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        blocks = random_partition(rng, n)
        w = rng.uniform(0.0, 3.0, size=len(blocks))
        obj = BlockNormObjective(blocks=blocks, weights=w)
        x = rng.normal(size=n)
        direct = sum(wi * np.linalg.norm(x[s:s + ln]) for (s, ln), wi in zip(blocks, w))
        assert obj.value(x) == pytest.approx(direct, abs=1e-12)
        assert obj.value(np.zeros(n)) == 0.0


def test_expand_broadcasts_per_block():
    obj = BlockNormObjective(blocks=((0, 2), (2, 1)), weights=(1.0, 1.0))
    assert np.array_equal(obj.expand(np.array([5.0, 7.0])), [5.0, 5.0, 7.0])


def test_singleton_blocks_match_the_general_path_bitwise():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 500):
        obj = BlockNormObjective(blocks=[(i, 1) for i in range(n)], weights=np.ones(n))
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        assert np.array_equal(obj.block_norms(x), np.sqrt(np.add.reduceat(x * x, np.arange(n))))
        assert np.array_equal(obj.expand(x), np.repeat(x, np.ones(n, dtype=np.intp)))


def test_dual_radius_bound_canonical(canonical):
    """c_bar = sqrt(2)/(1 + s) from the lower bound f* = 2 - sqrt(2) and the point x_s = 2 - s sqrt(2)
    (helpers.CANONICAL_C_BAR), below the strict point's (f(2) - f*)/(-g(2)) = sqrt(2) and within
    1e-3 of y* = 1/sqrt(2)."""
    _, constants, _, y_star = canonical
    assert constants.c_bar == pytest.approx(CANONICAL_C_BAR, rel=1e-13)
    assert y_star[0] <= constants.c_bar <= y_star[0] * (1.0 + 1e-3)


def test_dual_radius_bound_rejects_nonstrict_point():
    problem = _toy_problem()
    bad = dataclasses.replace(problem, strict_point=np.array([3.0, 0.0, 0.0]))  # g = 1 there
    with pytest.raises(ValueError, match="strict feasibility"):
        derive_constants(bad)


def test_primal_ball_canonical(canonical):
    problem, _, _, _ = canonical
    constants = derive_constants(problem)
    assert constants.ball_radius == pytest.approx(1.2 * SQRT2, abs=1e-15)  # (1 + theta) sqrt(-2 g(2)/mu)


def test_primal_ball_moves_to_a_strict_point_off_the_minimizer():
    """||x_tilde - z|| + (1 + theta) rho: the ball around x_tilde holds the model ball B(z, rho) formed at
    x_tilde. g is quadratic with Hessian mu I, so the model is exact: z = x* = (1, 0, 0) and rho^2 =
    ||J(x_tilde)||^2 - 2 g(x_tilde) = 0.25 - 2 (0.125 - 1) = 2, the ball around the minimizer."""
    problem = _toy_problem()
    moved = dataclasses.replace(problem, strict_point=np.array([1.5, 0.0, 0.0]))
    radius = derive_constants(moved).ball_radius
    assert radius == pytest.approx(0.5 + 1.2 * SQRT2, rel=1e-15)


@pytest.mark.parametrize("instance", ["canonical", "small_graph"])
def test_derive_constants_evaluates_G_at_the_strict_point_once(request, instance):
    """G(x_tilde) serves both the radius and c_bar; c_bar adds G at p and at x_s, and rho_lb G at the origin
    and at 0.95 p. On these instances the fit along the segment finds no better point, so G is evaluated
    five times; G(p), which both read, once."""
    problem = request.getfixturevalue(instance)[0]
    x_tilde, points = problem.strict_point, []

    def constraints(x):
        points.append(x.copy())
        return problem.constraints(x)

    counted = dataclasses.replace(problem, constraints=constraints)
    points.clear()  # the quadratic structure's check, at construction, evaluates G there too
    constants = derive_constants(counted)
    assert len(points) == 5
    assert sum(np.array_equal(x, x_tilde) for x in points) == 1
    assert sum(np.array_equal(x, np.zeros(problem.n)) for x in points) == 1
    p = [x for x in points if x.any() and any(np.array_equal(0.95 * x, h) for h in points)]  # scaled once
    assert len(p) == 1
    assert sum(np.array_equal(x, p[0]) for x in points) == 1
    assert constants == derive_constants(problem)


def test_primal_ball_rejects_unsatisfiable_constraint():
    """g = ||x||^2 is never negative, so no strict point exists: the one given is rejected."""
    problem = _toy_problem()
    hopeless = ConstrainedProblem(
        objective=problem.objective,
        constraints=lambda x: np.array([float(x @ x)]), jacobian=problem.jacobian,
        mu=np.array([1.0]), L_X=1.0, r=1.0, strict_point=problem.strict_point,
    )
    with pytest.raises(ValueError, match="strict feasibility"):
        derive_constants(hopeless)


def test_derived_constants_canonical(canonical):
    problem, constants, _, _ = canonical
    c_bar = CANONICAL_C_BAR
    assert constants.c_bar == pytest.approx(c_bar, rel=1e-13)
    assert constants.ball_radius == pytest.approx(1.2 * SQRT2, abs=1e-15)
    assert constants.D_X == pytest.approx(2.4 * SQRT2, abs=1e-15)
    assert constants.D_Y == constants.c_bar  # m = 1: diameter is c_bar
    assert constants.L_XY == constants.c_bar  # L_X = 1
    assert constants.L_G == pytest.approx(1.2 * SQRT2, abs=1e-15)  # ||J(2)|| = 0, plus L_X R
    assert constants.mu_lb == 1.0


def test_dual_diameter_multi_constraint():
    problem = _toy_problem(m=2)
    constants = derive_constants(problem)
    assert constants.D_Y == pytest.approx(SQRT2 * constants.c_bar, abs=1e-15)


def test_kkt_residual_zero_at_optimum(canonical):
    problem, _, x_star, y_star = canonical
    res = kkt_residual(problem, x_star, y_star)
    assert res.stationarity <= 1e-10
    assert res.complementarity <= 1e-12
    assert res.primal_violation <= 1e-12
    assert res.dual_violation == 0.0
    assert res.max() <= 1e-10


def test_kkt_residual_flags_violations(canonical):
    problem, _, x_star, y_star = canonical
    off = kkt_residual(problem, x_star + 0.3, y_star)
    assert off.max() > 1e-3
    assert kkt_residual(problem, x_star, -y_star).dual_violation > 0.0
    # infeasible point: g(4) = 1 > 0
    assert kkt_residual(problem, np.array([4.0]), y_star).primal_violation > 0.0


def test_kkt_residual_reuses_given_oracle_values(canonical):
    rng = np.random.default_rng(8)
    for problem in (canonical[0], _toy_problem(m=2)):
        for _ in range(10):
            x = rng.normal(size=problem.n)
            y = rng.uniform(-0.5, 1.0, size=problem.m)
            plain = kkt_residual(problem, x, y)
            assert kkt_residual(problem, x, y, g=problem.g(x), jac=problem.jac(x)) == plain
            assert kkt_residual(problem, x, y, g=problem.g(x)) == plain
            assert kkt_residual(problem, x, y, jac=problem.jac(x)) == plain


def test_kkt_stationarity_on_zero_block(canonical):
    problem, _, _, _ = canonical
    # At x = 0 the gradient is -2y; the subdifferential of |x| covers [-1, 1].
    inside = kkt_residual(problem, np.array([0.0]), np.array([0.4]))
    assert inside.stationarity == 0.0
    outside = kkt_residual(problem, np.array([0.0]), np.array([1.0]))
    assert outside.stationarity == pytest.approx(1.0, abs=1e-12)


def test_jacobian_operator_norm_single_constraint(canonical):
    problem, _, _, _ = canonical
    x = np.array([0.5])
    assert jacobian_operator_norm(problem, x) == pytest.approx(1.5, abs=1e-15)


def test_jacobian_operator_norm_multi_constraint():
    jac = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    problem = _toy_problem(m=2, jac=jac)
    assert jacobian_operator_norm(problem, np.zeros(3)) == pytest.approx(3.0, rel=1e-12)
    # Nearly equal singular values: a 500-step power iteration on the Gram matrix does not converge here.
    close = _toy_problem(m=2, jac=np.array([[1.0, 0.0], [0.0, 0.995], [0.0, 0.0]]))
    assert jacobian_operator_norm(close, np.zeros(3)) == 1.0
    rng = np.random.default_rng(11)
    for _ in range(10):
        mat = rng.normal(size=(3, 2))
        prob = _toy_problem(m=2, jac=mat)
        expected = np.linalg.norm(mat, 2)
        assert jacobian_operator_norm(prob, np.zeros(3)) == pytest.approx(expected, rel=1e-12)


def test_constraint_shape_errors():
    problem = _toy_problem()
    wrong = ConstrainedProblem(
        objective=problem.objective,
        constraints=lambda x: np.array([1.0]), jacobian=lambda x: np.zeros((3, 2)),
        mu=np.ones(2), L_X=1.0, r=1.0, strict_point=problem.strict_point,
    )
    assert (wrong.n, wrong.m) == (3, 2)  # from the objective and mu
    with pytest.raises(ValueError, match="constraint evaluator"):
        wrong.g(np.zeros(3))
    kwargs = dict(objective=problem.objective, constraints=problem.constraints, jacobian=problem.jacobian,
                  L_X=1.0, r=1.0, strict_point=problem.strict_point)
    for bad in (-1.0, 0.0, np.nan):  # a nan once passed, to fail in derive_constants as "L_G ... inf"
        with pytest.raises(ValueError, match=r"^all strong-convexity moduli must be positive"):
            ConstrainedProblem(mu=np.array([bad]), **kwargs)
    for mu in (np.ones(0), np.ones((1, 1))):
        with pytest.raises(ValueError, match=re.escape(f"mu must be a non-empty vector, got shape {mu.shape}")):
            ConstrainedProblem(mu=mu, **kwargs)
    for size in ("n", "m"):  # derived, so not accepted
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{size}'"):
            ConstrainedProblem(mu=np.ones(1), **kwargs, **{size: 1})


def _problem_whose_L_G_is(bad):
    """A problem from which derive_constants would form L_G = ||J(x_tilde)|| + L_X * radius equal to
    ``bad``: an inf entry of J at the strict point gives inf, a nan entry nan. 0 would need a constant
    zero J and L_X = 0, which the constructor rejects (L_X below max(mu)). A negative L_G cannot arise,
    as both of its terms are >= 0."""
    toy = _toy_problem()
    jac = np.zeros((3, 1))
    jac[0, 0] = bad
    return dataclasses.replace(toy, jacobian=lambda x: jac, L_X=0.0 if bad == 0.0 else 1.0)


@pytest.mark.parametrize("name, bad", [
    ("L_X", -1.0), ("L_X", np.inf), ("L_X", np.nan),
    ("r", 0.0), ("r", -1.0), ("r", np.inf), ("r", np.nan),
    ("L_G", 0.0), ("L_G", np.inf), ("L_G", np.nan),
])
def test_problem_constants_are_validated_at_construction(canonical, name, bad):
    """L_X and r are checked by the problem's constructor; L_G, which divides every step size,
    by derive_constants, which forms it from the ball's radius. An L_G of 0 needs L_X = 0, and the
    constructor rejects that first."""
    problem = canonical[0]
    match = f"^{name} must be finite and"
    if (name, bad) == ("L_G", 0.0):
        match = r"^L_X = 0\.0 is below max\(mu\) = 1\.0"
    with pytest.raises(ValueError, match=match):
        if name == "L_G":
            derive_constants(_problem_whose_L_G_is(bad))
        else:
            dataclasses.replace(problem, **{name: bad})


def test_an_L_X_below_the_largest_mu_is_rejected(canonical):
    """mu_i-strong convexity forces ||J(x) - J(x')|| >= mu_i ||x - x'||, so an L_X under any mu_i
    bounds nothing: it would understate L_G and let h1 and h2 overstate rho. A constant Jacobian,
    L_X = 0, contradicts mu > 0. The error names both values."""
    problem = canonical[0]
    with pytest.raises(ValueError, match=r"^L_X = 0\.0 is below max\(mu\) = 1\.0"):
        dataclasses.replace(problem, L_X=0.0)
    assert dataclasses.replace(problem, L_X=1.0).L_X == 1.0  # L_X = max(mu) is the tightest valid bound
    two = _toy_problem(m=2)
    with pytest.raises(ValueError, match=r"^L_X = 2\.5 is below max\(mu\) = 3\.0"):
        dataclasses.replace(two, mu=np.array([1.0, 3.0]), L_X=2.5)


def test_problem_constants_are_python_floats(canonical, small_graph):
    """The loop's step sizes and estimator values inherit these types; a numpy scalar here
    would make every scalar operation of an iteration pay numpy's dispatch."""
    toy = _toy_problem()  # L_X given as np.float64
    for problem, constants in (canonical[:2], small_graph, (toy, derive_constants(toy))):
        for value in (problem.L_X, problem.r, constants.L_XY, constants.L_G, constants.c_bar, constants.mu_lb,
                      constants.ball_radius, constants.D_X, constants.D_Y):
            assert type(value) is float


# -- quadratic structure (the 30-node PageRank instance) ---------------------------

def test_quadratic_structure_derives_g_from_the_jacobian(small_graph):
    problem, _ = small_graph
    q_lin, b = problem.quadratic
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(problem.n) * rng.uniform(1e-3, 1e3)
        jac = problem.jac(x)
        qx = x @ q_lin
        scale = np.abs(0.5 * (x @ jac + qx)) + np.abs(qx) + np.abs(b)  # |x'Qx/2| + |q'x| + |b|
        assert np.all(np.abs(problem.g(x, jac) - problem.g(x)) <= 1e-14 * scale)


def test_quadratic_structure_is_checked_at_construction(small_graph):
    problem, _ = small_graph
    q_lin, b = problem.quadratic
    with pytest.raises(ValueError, match="q_lin must have shape"):
        dataclasses.replace(problem, quadratic=(q_lin[1:], b))
    with pytest.raises(ValueError, match="b must have shape"):
        dataclasses.replace(problem, quadratic=(q_lin, np.zeros(2)))
    with pytest.raises(ValueError, match="too many values to unpack"):  # the old (q_lin, b, qmatvec)
        dataclasses.replace(problem, quadratic=(q_lin, b, lambda x: x))
    # Stale: the structure of another level or teleport vector, or an oracle swapped under it.
    for stale in (
        dict(quadratic=(q_lin, 1.001 * b)),
        dict(quadratic=(2.0 * q_lin, b)),
        dict(constraints=lambda x: 2.0 * problem.constraints(x)),
        dict(jacobian=lambda x: np.full((problem.n, 1), np.nan)),
    ):
        with pytest.raises(ValueError, match="does not match"):
            dataclasses.replace(problem, **stale)
    dataclasses.replace(problem, quadratic=(q_lin[:, 0], float(b[0])))  # 1-D q_lin and scalar b for m = 1


def test_g_ignores_a_jacobian_without_quadratic_structure(small_graph):
    """On a generic problem g(x, jac) calls ``constraints`` and is bitwise g(x)."""
    problem, _ = small_graph
    calls = []

    def constraints(x):
        calls.append(x)
        return problem.constraints(x)

    generic = dataclasses.replace(problem, constraints=constraints, quadratic=None)
    x = np.random.default_rng(12).standard_normal(problem.n)
    calls.clear()
    assert np.array_equal(generic.g(x, generic.jac(x)), generic.g(x)) and len(calls) == 2
    assert np.array_equal(generic.g(x, np.zeros((problem.n, 1))), generic.g(x))


# -- input checks: conversion, errors, and the float64 pass-through --------------

def _plain(a):
    return type(a) is np.ndarray and a.dtype == np.float64


def test_vec_converts_rejects_and_passes_float64_through():
    exact = np.array([1.0, 2.0, 3.0])
    assert _vec(exact, 3, "x") is exact
    converted = ([1, 2, 3], (1.0, 2.0, 3.0), np.array([1, 2, 3]), exact.astype(np.float32),
                 exact.view(NdarraySubclass), exact.astype(">f8"))
    for given in converted:
        out = _vec(given, 3, "x")
        assert out is not given and _plain(out) and np.array_equal(out, exact)
    for scalar in (2, 2.0, np.float32(2.0), np.array(2.0), np.array(2.0).view(NdarraySubclass)):
        out = _vec(scalar, 1, "x")
        assert _plain(out) and out.shape == (1,) and out[0] == 2.0
    for bad, shape in ((np.zeros(2), (2,)), (np.zeros((3, 1)), (3, 1)), ([1.0] * 4, (4,)), (2.0, (1,))):
        with pytest.raises(ValueError, match=re.escape(f"x must have shape (3,), got {shape}")):
            _vec(bad, 3, "x")
    assert np.array_equal(exact, [1.0, 2.0, 3.0])


def _returning(m, g_out, j_out, n=3):
    """A problem on n coordinates whose oracle hands back the given objects."""
    obj = BlockNormObjective(blocks=tuple((i, 1) for i in range(n)), weights=np.ones(n))
    return ConstrainedProblem(
        objective=obj, constraints=lambda x: g_out, jacobian=lambda x: j_out,
        mu=np.ones(m), L_X=1.0, r=1.0, strict_point=np.zeros(n),
    )


def test_constraint_values_convert_reject_and_pass_float64_through():
    exact = np.array([0.5])
    assert _returning(1, exact, None).g(np.zeros(3)) is exact
    for given in ([0.5], 0.5, np.float64(0.5), np.array(0.5), np.array([0.5], dtype=np.float32),
                  exact.view(NdarraySubclass), exact.astype(">f8")):
        out = _returning(1, given, None).g(np.zeros(3))
        assert out is not given and _plain(out) and out.shape == (1,) and out[0] == 0.5
    assert np.array_equal(_returning(1, 1, None).g(np.zeros(3)), [1.0])  # an int
    pair = np.array([0.5, -1.0])
    assert _returning(2, pair, None).g(np.zeros(3)) is pair
    assert np.array_equal(_returning(2, [0.5, -1], None).g(np.zeros(3)), pair)
    for m, bad in ((1, np.zeros(2)), (2, np.zeros(1)), (2, 0.5), (1, np.zeros((1, 1)))):
        message = f"constraint evaluator returned shape {np.atleast_1d(bad).shape}, expected ({m},)"
        with pytest.raises(ValueError, match=re.escape(message)):
            _returning(m, bad, None).g(np.zeros(3))


def test_jacobian_values_convert_reject_and_pass_float64_through():
    exact = np.array([[1.0], [2.0], [3.0]])
    assert _returning(1, None, exact).jac(np.zeros(3)) is exact
    for given in (exact.ravel(), [[1], [2], [3]], [1.0, 2.0, 3.0], exact.astype(np.float32),
                  exact.view(NdarraySubclass), exact.astype(">f8"), exact.ravel().view(NdarraySubclass)):
        out = _returning(1, None, given).jac(np.zeros(3))
        assert out is not given and _plain(out) and np.array_equal(out, exact)
    one = _returning(1, None, [2.0], n=1).jac(np.zeros(1))  # a length-n vector for n = m = 1
    assert _plain(one) and one.shape == (1, 1) and one[0, 0] == 2.0
    wide = np.arange(6.0).reshape(3, 2)
    assert _returning(2, None, wide).jac(np.zeros(3)) is wide
    for m, bad in ((1, np.zeros((2, 1))), (1, np.zeros((3, 2))), (2, np.zeros(3)), (1, 1.0)):
        message = f"jacobian evaluator returned shape {np.shape(bad)}, expected (3, {m})"
        with pytest.raises(ValueError, match=re.escape(message)):
            _returning(m, None, bad).jac(np.zeros(3))
