"""Every derived constant the docs call certified is a bound, on generated instances.

One derandomized property covers synthetic instances (n 1..8), the same
family under blocks of unequal weights, a diagonal quadratic whose model
ball holds the origin though its feasible set does not (so the lower bound
on f* behind c_bar is 0), small connected graphs (paths, even cycles, stars
and complete bipartite graphs, which are bipartite, and chorded paths, which
mostly are not) and a generic two-constraint problem, in either order of
its constraints (the lower bound on f* comes from the second ball, or the
first). On each it checks, against ground truth computed here:

- {G <= 0} lies in the ball: boundary points of {G <= 0} in closed form,
  along random directions from the center and along the directions where
  the sublevel set reaches farthest;
- c_bar >= ||y*||_1, with y* from the closed form, the exact KKT solve or
  the hand-derived optimum;
- rho_lb <= mu_lb ||y*||_1 and rho_lb <= mu_lb c_bar; rho_lb is at least the origin's bound
  mu_lb lb/max_i g_i(0), and within 1% of the best point of a plain certified grid on the segment
  to p (``oracles.segment_rho_lb_oracle``), with the lb and p that ``derive_constants`` used;
- L_G >= ||J(x)|| at points sampled inside the ball and on its boundary;
- rho_k <= mu_lb ||y*||_1 along apdpro, rapdpro and msapd runs (msapd's
  estimate starts at rho_lb);
- r <= ||J(x*) y*||, the norm of the optimal subgradient, for the PageRank
  rule "sqrt-degree" (the only certified one; "degree" is not).
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from apdpro import problem as problem_module
from apdpro.bench import InstanceBundle, _solve_reference
from apdpro.pagerank import Graph, build_ppr_problem, make_synthetic_instance
from apdpro.problem import (
    BlockNormObjective,
    ConstrainedProblem,
    derive_constants,
    jacobian_operator_norm,
    kkt_residual,
)
from apdpro.solvers import SolverConfig, apd_baseline, apdpro, msapd, rapdpro
from helpers import cycle_edges, path_edges, random_partition, star_edges
from oracles import ppr_q_dense, segment_rho_lb_oracle

RUN_ITERS = 60


def _graph(n, edges):
    """A Graph straight from an edge list: symmetric 0/1 CSR, duplicates and self-loops dropped."""
    rows, cols = zip(*[(u, v) for u, v in edges if u != v])
    adj = sp.csr_matrix((np.ones(2 * len(rows)), (rows + cols, cols + rows)), shape=(n, n))
    adj.data[:] = 1.0
    return Graph(adj)


def _graph_edges(family, n, rng):
    if family == "path":
        return path_edges(n)
    if family == "even-cycle":
        return cycle_edges(n + n % 2)
    if family == "star":
        return star_edges(n)
    if family == "complete-bipartite":
        a = max(1, n // 3)
        return [(i, j) for i in range(a) for j in range(a, n)]
    chords = rng.integers(0, n, size=(n, 2))
    return path_edges(n) + [tuple(map(int, e)) for e in chords if e[0] != e[1]]


def _synthetic_case(n, rng, frac):
    center = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
    level = frac * float(np.linalg.norm(center)) / math.sqrt(2.0)
    problem, x_star, y_star = make_synthetic_instance(n, center, level)

    def boundary(u):  # {g <= 0} is the ball of radius sqrt(2) level around the center
        return problem.strict_point + math.sqrt(2.0) * level * u

    return problem, x_star, y_star, boundary, []


def _block_case(n, rng, frac):
    """f = sum_b w_b ||x_b|| with unequal weights, g = ||x - c||^2/2 - level^2: x* is the block soft
    threshold of c at t = 1/y*, where t solves sum_b min(||c_b||, t w_b)^2 = 2 level^2, in closed form
    on the interval between consecutive ratios ||c_b||/w_b that holds it."""
    blocks = random_partition(rng, n)
    w = rng.uniform(0.5, 2.0, size=len(blocks))
    objective = BlockNormObjective(blocks=blocks, weights=w)
    c = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
    level = frac * float(np.linalg.norm(c)) / math.sqrt(2.0)
    problem = ConstrainedProblem(
        objective=objective, constraints=lambda x: np.array([0.5 * (x - c) @ (x - c) - level**2]),
        jacobian=lambda x: (x - c).reshape(n, 1), mu=np.ones(1), L_X=1.0, r=float(w.min()), strict_point=c.copy(),
    )  # r: a nonzero block of x* has a subgradient of norm w_b
    a = objective.block_norms(c)
    ratios = np.sort(a / w)
    for k in range(len(w)):  # blocks with a_b/w_b < ratios[k] are held at a_b, the rest at t w_b
        held = a / w < ratios[k]
        t = math.sqrt((2.0 * level**2 - float(a[held] @ a[held])) / float(w[~held] @ w[~held]))
        if t <= ratios[k]:
            break
    x_star = objective.expand(np.maximum(0.0, 1.0 - t * w / a)) * c

    def boundary(u):
        return c + math.sqrt(2.0) * level * u

    return problem, x_star, np.array([1.0 / t]), boundary, []


def _origin_in_ball_case(n, rng, frac):
    """Unit l1 objective, g = (x - c)'D(x - c)/2 - L with D diagonal, D_0 = mu = 1, the rest of D in
    [2, 4], and 2L strictly between ||c||^2 and c'Dc: the origin is infeasible, so y* > 0, but lies in
    the model ball B(c, sqrt(2L)). x*_j = soft(c_j, 1/(y* D_j)), and y* solves the active constraint
    sum_j D_j min(|c_j|, 1/(y D_j))^2 = 2L, which falls as y grows."""
    d = np.concatenate(([1.0], rng.uniform(2.0, 4.0, size=n - 1)))
    c = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
    two_l = float(c @ c) + frac * float(c @ (d * c) - c @ c)
    problem = ConstrainedProblem(
        objective=BlockNormObjective(blocks=[(j, 1) for j in range(n)], weights=np.ones(n)),
        constraints=lambda x: np.array([0.5 * (x - c) @ (d * (x - c)) - 0.5 * two_l]),
        jacobian=lambda x: (d * (x - c)).reshape(n, 1), mu=np.ones(1), L_X=float(d.max()), r=1.0,
        strict_point=c.copy(),
    )
    def shift(y):  # |x*_j(y) - c_j|
        return np.minimum(np.abs(c), 1.0 / (y * d))

    y = brentq(lambda y: float(d @ shift(y) ** 2) - two_l, 1.0 / float(np.max(d * np.abs(c))),
               2.0 * math.sqrt(n / two_l) + 1.0, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    x_star = np.sign(c) * (np.abs(c) - shift(y))

    def boundary(u):
        return c + math.sqrt(two_l / float(u @ (d * u))) * u

    axis = np.eye(n)[0]  # D's least entry: {g <= 0} reaches farthest along it
    return problem, x_star, np.array([y]), boundary, [axis, -axis]


def _graph_case(family, n, rng, frac, alpha, r_rule, teleport):
    edges = _graph_edges(family, n, rng)
    graph = _graph(max(max(e) for e in edges) + 1, edges)
    n = graph.n
    q_dense = ppr_q_dense(n, edges, alpha)
    if teleport != "uniform":
        teleport = f"seed:{int(teleport[5:]) % n}"
    s = np.full(n, 1.0 / n) if teleport == "uniform" else np.eye(n)[int(teleport[5:])]
    q_lin = alpha * s / np.sqrt(graph.degrees)
    g_min = -0.5 * float(q_lin @ np.linalg.solve(q_dense, q_lin))
    problem = build_ppr_problem(graph, alpha, frac * g_min, teleport, r_rule)
    constants = derive_constants(problem)
    x_star, y_star, _, _ = _solve_reference(InstanceBundle(problem, constants, None, "", None, ""))
    x_tilde = problem.strict_point
    g_tilde = float(problem.g(x_tilde)[0])
    grad = problem.jac(x_tilde)[:, 0]

    def boundary(u):  # the root s > 0 of g(x_tilde + s u) = g_tilde + s grad'u + s^2 u'Qu/2
        a, b = float(u @ q_dense @ u), float(grad @ u)
        return x_tilde + (-b + math.sqrt(b * b - 2.0 * a * g_tilde)) / a * u

    # Q's eigenvector for lambda_min = alpha is D^(1/2) 1: {g <= 0} reaches farthest along it.
    extreme = np.sqrt(graph.degrees)
    return problem, x_star, y_star, boundary, [extreme, -extreme]


def _two_ball_case(height, swap):
    """g_i(x) = ||x - c_i||^2/2 - 1 for c = (2, 0) and (2, 1), unit l1 objective, strict point
    (2, height): x* = (1, 0) and y* = (0, 1) by hand (g_2 is active there, with gradient (-1, -1)).
    The balls' lower bounds on f* = 1 are 2 - sqrt(2) and 1: the larger is the second constraint's,
    or with ``swap`` (the constraints in the other order, y* = (1, 0)) the first's."""
    centers = np.array([[2.0, 1.0], [2.0, 0.0]] if swap else [[2.0, 0.0], [2.0, 1.0]])

    def constraints(x):
        d = x - centers
        return 0.5 * np.einsum("ij,ij->i", d, d) - 1.0

    problem = ConstrainedProblem(
        objective=BlockNormObjective(blocks=((0, 1), (1, 1)), weights=np.ones(2)),
        constraints=constraints, jacobian=lambda x: (x - centers).T, mu=np.ones(2), L_X=math.sqrt(2.0),
        r=1.0, strict_point=np.array([2.0, height]),
    )

    def boundary(u):  # the nearer of the two circles along u
        d = problem.strict_point - centers
        b = d @ u
        return problem.strict_point + float(np.min(-b + np.sqrt(b * b - (np.einsum("ij,ij->i", d, d) - 2.0)))) * u

    # The lens reaches farthest toward the circles' crossings (2 +- sqrt(7)/2, 1/2).
    crossings = [np.array([2.0 + side * math.sqrt(7.0) / 2.0, 0.5]) - problem.strict_point for side in (1, -1)]
    return problem, np.array([1.0, 0.0]), np.array([1.0, 0.0] if swap else [0.0, 1.0]), boundary, crossings


@st.composite
def certification_cases(draw):
    kind = draw(st.sampled_from(["synthetic", "blocks", "origin-in-ball", "graph", "two-ball"]))
    seed = draw(st.integers(0, 2**32 - 1))
    frac = draw(st.floats(0.05, 0.95))
    if kind in ("synthetic", "blocks", "origin-in-ball"):
        return kind, (draw(st.integers(1 if kind == "synthetic" else 2, 8)), seed, frac)
    if kind == "graph":
        family = draw(st.sampled_from(["path", "even-cycle", "star", "complete-bipartite", "chorded-path"]))
        return kind, (family, draw(st.integers(3, 60)), seed, frac, draw(st.floats(0.1, 0.9)),
                      draw(st.sampled_from(["degree", "sqrt-degree"])),
                      draw(st.sampled_from(["uniform", "seed:0", "seed:2"])))
    return kind, (draw(st.floats(0.2, 0.8)), draw(st.booleans()))


def _build(kind, args):
    if kind in ("synthetic", "blocks", "origin-in-ball"):
        n, seed, frac = args
        case = {"synthetic": _synthetic_case, "blocks": _block_case, "origin-in-ball": _origin_in_ball_case}[kind]
        return case(n, np.random.default_rng(seed), frac)
    if kind == "graph":
        family, n, seed, frac, alpha, r_rule, teleport = args
        return _graph_case(family, n, np.random.default_rng(seed), frac, alpha, r_rule, teleport)
    return _two_ball_case(*args)


def _constants_and_segment(problem):
    """derive_constants(problem), and the (lb, p) its segment search for rho_lb started from
    (None where the origin's bound is 0 and no search ran)."""
    seen, search = [], problem_module._segment_dual_bound

    def spy(prob, lb, p, *rest):
        seen.append((lb, p))
        return search(prob, lb, p, *rest)

    with mock.patch.object(problem_module, "_segment_dual_bound", spy):
        constants = derive_constants(problem)
    return constants, (seen[0] if seen else None)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=certification_cases())
def test_derived_constants_are_certified_property(case):
    kind, args = case
    problem, x_star, y_star, boundary, extreme = _build(kind, args)
    constants, segment = _constants_and_segment(problem)
    assert kkt_residual(problem, x_star, y_star).max() <= 1e-10
    center, radius = problem.strict_point, constants.ball_radius
    rng = np.random.default_rng(7)
    directions = [d / np.linalg.norm(d) for d in [*extreme, *rng.standard_normal((20, problem.n))]]

    # {G <= 0} inside the ball
    for u in directions:
        assert np.linalg.norm(boundary(u) - center) <= radius * (1.0 + 1e-12)

    # c_bar bounds the dual optimum
    y_norm = float(np.sum(np.abs(y_star)))
    assert constants.c_bar >= y_norm

    # rho_lb bounds mu'y* >= mu_lb ||y*||_1 from below, within the driver's cap mu_lb c_bar
    assert 0.0 <= constants.rho_lb <= constants.mu_lb * y_norm * (1.0 + 1e-9)
    assert constants.rho_lb <= constants.mu_lb * constants.c_bar

    # ... no lower than the origin's bound, and as good as the best point of a certified grid
    if segment is None:
        assert constants.rho_lb == 0.0
    else:
        lb, p = segment
        assert constants.rho_lb >= constants.mu_lb * lb / float(np.max(problem.g(np.zeros(problem.n)))) > 0.0
        assert constants.rho_lb >= 0.99 * segment_rho_lb_oracle(problem, lb, p)

    # L_G bounds ||J|| on the ball, its boundary included
    for u in directions:
        for scale in (1.0, rng.uniform()):
            assert jacobian_operator_norm(problem, center + scale * radius * u) <= constants.L_G * (1.0 + 1e-12)

    # r bounds the optimal subgradient's norm, for the certified PageRank rule
    if kind != "graph" or args[5] == "sqrt-degree":
        assert problem.r <= np.linalg.norm(problem.jac(x_star) @ y_star) * (1.0 + 1e-9)

    # the estimate never passes mu_lb ||y*||_1 (the cut keeps y* inside the slab)
    bound = constants.mu_lb * y_norm * (1.0 + 1e-9)
    if kind == "graph" and args[5] == "degree":
        return  # r is not certified, so neither is rho
    for run, variant in ((apdpro, "apdpro"), (rapdpro, "rapdpro"), (msapd, "msapd")):
        rhos = []
        cfg = SolverConfig(variant=variant, max_iters=RUN_ITERS, max_epochs=3)
        run(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m),
            observer=lambda sn: rhos.append(sn.rho_next))
        assert rhos and max(rhos) <= bound, (variant, max(rhos), bound)


def test_rho_lb_is_zero_where_the_origin_is_feasible():
    """f = |x|, g = (x - 1)^2/2 - 1: G(0) = -1/2, so weak duality at the origin bounds nothing."""
    problem = ConstrainedProblem(
        objective=BlockNormObjective(blocks=((0, 1),), weights=np.ones(1)),
        constraints=lambda x: np.array([0.5 * (x[0] - 1.0) ** 2 - 1.0]), jacobian=lambda x: (x - 1.0).reshape(1, 1),
        mu=np.ones(1), L_X=1.0, r=1.0, strict_point=np.ones(1),
    )
    assert derive_constants(problem).rho_lb == 0.0


# The two-ball problem's rho_lb. Its origin bound is mu_lb lb/max_i g_i(0) = 2/3: G(0) = (1, 3/2), and
# lb = f* = 1 comes from the second ball, B((2, 1), sqrt(2)), with p = x* = (1, 0) behind it. Along
# s p = (s, 0), f = s, and g_2 = ((2 - s)^2 - 1)/2 = (1 - s)(3 - s)/2 is the larger constraint, so
# (L - s)/g_2(s p) = 2/(3 - s) at L = lb = 1 rises toward p, and the search takes the cap s = 0.95. With
# L = 1 - 1e-9 the bound there is (0.05 - 1e-9)/(0.05 * 2.05/2) = (40/41)(1 - 2e-8).
_TWO_BALL_ORIGIN_RHO_LB = 2.0 / 3.0
_TWO_BALL_RHO_LB = 40.0 / 41.0 * (1.0 - 2e-8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rho_lb_is_zero_where_G_at_the_origin_is_not_finite(bad):
    """The two-ball problem's rho_lb is (40/41)(1 - 2e-8), from 0.95 p (see above); one non-finite
    g_1(0), even beside a positive g_2(0), makes it 0."""
    problem = _two_ball_case(0.5, False)[0]
    assert derive_constants(problem).rho_lb == pytest.approx(_TWO_BALL_RHO_LB, rel=1e-12)
    g = problem.constraints

    def constraints(x):
        return np.array([bad, 1.5]) if not x.any() else g(x)

    constants = derive_constants(dataclasses.replace(problem, constraints=constraints))
    assert constants.rho_lb == 0.0
    assert constants == dataclasses.replace(derive_constants(problem), rho_lb=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_G_at_the_cap_leaves_the_origin_bound(bad):
    """A non-finite g_1 at 0.95 p, which certifies the cap and through which the model is fitted, leaves
    the two-ball problem's rho_lb at its origin bound 2/3 (see above), whatever g_2 reads there."""
    problem = _two_ball_case(0.5, False)[0]
    point, g = 0.95 * np.array([1.0, 0.0]), problem.constraints

    def constraints(x):  # p is (1, 0) to rounding; the other points G is evaluated at are far from it
        return np.array([bad, g(x)[1]]) if np.allclose(x, point, rtol=0.0, atol=1e-12) else g(x)

    constants = derive_constants(dataclasses.replace(problem, constraints=constraints))
    assert constants.rho_lb == pytest.approx(_TWO_BALL_ORIGIN_RHO_LB, rel=1e-15)
    assert constants == dataclasses.replace(derive_constants(problem), rho_lb=constants.rho_lb)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_G_at_an_inner_point_leaves_the_cap_bound(bad):
    """On the synthetic instance c = (3, 1, 1/2, 1/2), level 1.2, the fit along the segment puts the best
    point inside (0, 0.95), so G is evaluated a sixth time, there, and G(p) still once. A non-finite G
    at that point leaves rho_lb at the bound that weak duality gives at the cap 0.95 p (0.61 against
    0.48 at the origin)."""
    problem = make_synthetic_instance(4, [3.0, 1.0, 0.5, 0.5], 1.2)[0]
    points, g = [], problem.constraints

    def recorded(x):
        points.append(x.copy())
        return g(x)

    constants, (lb, p) = _constants_and_segment(dataclasses.replace(problem, constraints=recorded))
    assert len(points) == 6 and sum(np.array_equal(x, p) for x in points) == 1
    inner = points[-1]
    s = float(inner[0] / p[0])
    assert 0.0 < s < 0.95 and np.allclose(inner, s * p, rtol=1e-15, atol=0.0)

    def constraints(x):
        return np.array([bad]) if np.array_equal(x, inner) else g(x)

    broken = derive_constants(dataclasses.replace(problem, constraints=constraints))
    at_cap = constants.mu_lb * (lb * (1.0 - 1e-9) - problem.f(0.95 * p)) / float(g(0.95 * p)[0])
    assert broken.rho_lb == pytest.approx(at_cap, rel=1e-12)
    assert broken.rho_lb < constants.rho_lb
    assert broken == dataclasses.replace(constants, rho_lb=broken.rho_lb)


def test_rho_lb_is_tight_on_tiny_synthetic_instances():
    """On 200 tiny synthetic instances drawn as the benchmark's synth-batch draws them (n 1..8,
    centers of magnitude 0.5..2 with random signs, levels 0.2-0.8 of ||c||/sqrt(2)), the segment's
    rho_lb is at least 0.85 mu_lb y*; weak duality at the origin alone gave 0.33-0.86."""
    rng = np.random.default_rng(2024)
    worst = math.inf
    for _ in range(200):
        problem, _, y_star, _, _ = _synthetic_case(int(rng.integers(1, 9)), rng, float(rng.uniform(0.2, 0.8)))
        constants = derive_constants(problem)
        worst = min(worst, constants.rho_lb / (constants.mu_lb * float(y_star[0])))
    assert worst >= 0.85


def test_only_msapd_reads_rho_lb(canonical):
    """apdpro, rapdpro and apd start at rho = 0 whatever rho_lb is: their results are bitwise those
    with rho_lb = 0. msapd's first record reports the rho_lb its estimate starts from."""
    two_ball = _two_ball_case(0.5, False)[0]
    for problem, constants in (canonical[:2], (two_ball, derive_constants(two_ball))):
        zeroed = dataclasses.replace(constants, rho_lb=0.0)
        assert constants.rho_lb > 0.0
        for run, variant in ((apdpro, "apdpro"), (rapdpro, "rapdpro"), (apd_baseline, "apd")):
            cfg = SolverConfig(variant=variant, max_iters=200, max_epochs=3)
            a, b = (run(problem, c, cfg, np.zeros(problem.n), np.zeros(problem.m)) for c in (constants, zeroed))
            for name in ("x", "x_bar", "y", "y_bar"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (variant, name)
            assert [repr(dataclasses.replace(r, elapsed_s=0.0)) for r in a.trace] == \
                [repr(dataclasses.replace(r, elapsed_s=0.0)) for r in b.trace], variant
            assert (a.termination, a.epoch_budgets, a.state.k, a.state.rho_est) == \
                (b.termination, b.epoch_budgets, b.state.k, b.state.rho_est), variant
            assert [(s, x.tobytes()) for s, x in a.epoch_starts] == [(s, x.tobytes()) for s, x in b.epoch_starts]
        cfg = SolverConfig(variant="msapd", max_iters=200, max_epochs=3)
        for c in (constants, zeroed):
            assert msapd(problem, c, cfg, np.zeros(problem.n), np.zeros(problem.m)).trace[0].rho == c.rho_lb
