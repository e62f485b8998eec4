"""Problem model: block-norm objective, derived constants, Lagrangian, KKT."""

import numpy as np
import pytest

from apdpro.problem import (
    BlockNormObjective,
    ConstrainedProblem,
    derive_constants,
    dual_radius_bound,
    eval_lagrangian,
    feasible_ball,
    jacobian_operator_norm,
    kkt_residual,
)
from helpers import random_partition

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
        n=n, objective=obj, m=m, constraints=constraints, jacobian=jacobian,
        mu=np.ones(m), L_X=1.0, L_G=2.0 * SQRT2, r=1.0, strict_point=center,
    )


def test_block_partition_validation():
    with pytest.raises(ValueError):
        BlockNormObjective(blocks=((0, 2), (3, 1)), weights=(1.0, 1.0))  # gap at 2
    with pytest.raises(ValueError):
        BlockNormObjective(blocks=((0, 2),), weights=(1.0, 1.0))  # weight count
    with pytest.raises(ValueError):
        BlockNormObjective(blocks=((0, 1),), weights=(-0.5,))
    with pytest.raises(ValueError):
        BlockNormObjective(blocks=((0, 0),), weights=(1.0,))


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


def test_lagrangian_value(canonical):
    problem, _, _, _ = canonical
    x, y = np.array([1.0]), np.array([0.3])
    # f(1) = 1, g(1) = 0.5 - 1 = -0.5
    assert eval_lagrangian(problem, x, y) == pytest.approx(1.0 + 0.3 * -0.5, abs=1e-15)
    # y >= 0 is not required by the evaluator
    assert eval_lagrangian(problem, x, -y) == pytest.approx(1.0 - 0.3 * -0.5, abs=1e-15)


def test_dual_radius_bound_canonical(canonical):
    problem, _, _, _ = canonical
    # f(2)/(-g(2)) = 2/1
    assert dual_radius_bound(problem) == pytest.approx(2.0, abs=1e-15)


def test_dual_radius_bound_rejects_nonstrict_point():
    problem = _toy_problem()
    bad = ConstrainedProblem(
        n=problem.n, objective=problem.objective, m=1,
        constraints=lambda x: np.array([1.0]), jacobian=problem.jacobian,
        mu=np.array([1.0]), L_X=1.0, L_G=1.0, r=1.0, strict_point=problem.strict_point,
    )
    with pytest.raises(ValueError, match="strict feasibility"):
        dual_radius_bound(bad)


def test_feasible_ball_canonical(canonical):
    problem, _, _, _ = canonical
    center, radius = feasible_ball(problem, [problem.strict_point])
    assert np.array_equal(center, [2.0])
    assert radius == pytest.approx(2.0 * SQRT2, abs=1e-15)
    with pytest.raises(ValueError, match="minimizers"):
        feasible_ball(problem, [])


def test_feasible_ball_rejects_unsatisfiable_constraint():
    problem = _toy_problem()
    hopeless = ConstrainedProblem(
        n=problem.n, objective=problem.objective, m=1,
        constraints=lambda x: np.array([float(x @ x)]), jacobian=problem.jacobian,
        mu=np.array([1.0]), L_X=1.0, L_G=1.0, r=1.0, strict_point=problem.strict_point,
    )
    with pytest.raises(ValueError, match="never strictly satisfiable"):
        feasible_ball(hopeless, [np.zeros(3)])


def test_derived_constants_canonical(canonical):
    problem, constants, _, _ = canonical
    assert constants.c_bar == pytest.approx(2.0, abs=1e-15)
    assert constants.ball_radius == pytest.approx(2.0 * SQRT2, abs=1e-15)
    assert constants.D_X == pytest.approx(4.0 * SQRT2, abs=1e-15)
    assert constants.D_Y == pytest.approx(2.0, abs=1e-15)  # m = 1: diameter is c_bar
    assert constants.L_XY == pytest.approx(2.0, abs=1e-15)
    assert constants.mu_lb == 1.0


def test_dual_diameter_multi_constraint():
    problem = _toy_problem(m=2)
    constants = derive_constants(problem, feasible_ball(problem, [problem.strict_point] * 2))
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
        n=problem.n, objective=problem.objective, m=2,
        constraints=lambda x: np.array([1.0]), jacobian=lambda x: np.zeros((3, 2)),
        mu=np.ones(2), L_X=1.0, L_G=1.0, r=1.0, strict_point=problem.strict_point,
    )
    with pytest.raises(ValueError, match="constraint evaluator"):
        wrong.g(np.zeros(3))
    with pytest.raises(ValueError):
        ConstrainedProblem(
            n=3, objective=problem.objective, m=1, constraints=problem.constraints,
            jacobian=problem.jacobian, mu=np.array([-1.0]), L_X=1.0, L_G=1.0, r=1.0,
            strict_point=problem.strict_point,
        )
