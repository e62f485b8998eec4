"""Every derived constant the docs call certified is a bound, on generated instances.

One derandomized property covers synthetic instances (n 1..8), small
connected graphs (paths, even cycles, stars and complete bipartite graphs,
which are bipartite, and chorded paths, which mostly are not) and a generic
two-constraint problem. On each it checks, against ground truth computed
here:

- {G <= 0} lies in the ball: boundary points of {G <= 0} in closed form,
  along random directions from the center and along the directions where
  the sublevel set reaches farthest;
- c_bar >= ||y*||_1, with y* from the closed form, the exact KKT solve or
  the hand-derived optimum;
- L_G >= ||J(x)|| at points sampled inside the ball and on its boundary;
- rho_k <= mu_lb ||y*||_1 along apdpro and rapdpro runs;
- r <= ||J(x*) y*||, the norm of the optimal subgradient, for the PageRank
  rule "sqrt-degree" (the only certified one; "degree" is not).
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from apdpro.bench import InstanceBundle, reference_solution
from apdpro.pagerank import Graph, build_ppr_problem, make_synthetic_instance
from apdpro.problem import (
    BlockNormObjective,
    ConstrainedProblem,
    derive_constants,
    jacobian_operator_norm,
    kkt_residual,
)
from apdpro.solvers import SolverConfig, apdpro, rapdpro
from helpers import cycle_edges, path_edges, star_edges
from oracles import ppr_q_dense

RUN_ITERS = 60


def _graph(n, edges):
    """A Graph straight from an edge list: symmetric 0/1 CSR, duplicates and self-loops dropped."""
    rows, cols = zip(*[(u, v) for u, v in edges if u != v])
    adj = sp.csr_matrix((np.ones(2 * len(rows)), (rows + cols, cols + rows)), shape=(n, n))
    adj.data[:] = 1.0
    return Graph(n=n, adjacency=adj, degrees=np.asarray(adj.sum(axis=1)).ravel())


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


def _graph_case(family, n, rng, frac, alpha, r_rule, teleport):
    edges = _graph_edges(family, n, rng)
    graph = _graph(max(max(e) for e in edges) + 1, edges)
    n = graph.n
    q_dense = ppr_q_dense(n, edges, alpha)
    s = np.full(n, 1.0 / n) if teleport == "uniform" else np.eye(n)[int(teleport[5:]) % n]
    q_lin = alpha * s / np.sqrt(graph.degrees)
    g_min = -0.5 * float(q_lin @ np.linalg.solve(q_dense, q_lin))
    problem = build_ppr_problem(graph, alpha, frac * g_min, s, r_rule)
    constants = derive_constants(problem, [problem.strict_point])
    x_star, y_star, _ = reference_solution(InstanceBundle(problem, constants, None, "", None, ""), "long-run")
    x_tilde = problem.strict_point
    g_tilde = float(problem.g(x_tilde)[0])
    grad = problem.jac(x_tilde)[:, 0]

    def boundary(u):  # the root s > 0 of g(x_tilde + s u) = g_tilde + s grad'u + s^2 u'Qu/2
        a, b = float(u @ q_dense @ u), float(grad @ u)
        return x_tilde + (-b + math.sqrt(b * b - 2.0 * a * g_tilde)) / a * u

    # Q's eigenvector for lambda_min = alpha is D^(1/2) 1: {g <= 0} reaches farthest along it.
    extreme = np.sqrt(graph.degrees)
    return problem, x_star, y_star, boundary, [extreme, -extreme]


def _two_ball_case(height):
    """g_i(x) = ||x - c_i||^2/2 - 1 for c = (2, 0) and (2, 1), unit l1 objective, strict point
    (2, height): x* = (1, 0) and y* = (0, 1) by hand (g_2 is active there, with gradient (-1, -1))."""
    centers = np.array([[2.0, 0.0], [2.0, 1.0]])

    def constraints(x):
        d = x - centers
        return 0.5 * np.einsum("ij,ij->i", d, d) - 1.0

    problem = ConstrainedProblem(
        n=2, objective=BlockNormObjective(blocks=((0, 1), (1, 1)), weights=np.ones(2)), m=2,
        constraints=constraints, jacobian=lambda x: (x - centers).T, mu=np.ones(2), L_X=math.sqrt(2.0),
        r=1.0, strict_point=np.array([2.0, height]),
    )

    def boundary(u):  # the nearer of the two circles along u
        d = problem.strict_point - centers
        b = d @ u
        return problem.strict_point + float(np.min(-b + np.sqrt(b * b - (np.einsum("ij,ij->i", d, d) - 2.0)))) * u

    # The lens reaches farthest toward the circles' crossings (2 +- sqrt(7)/2, 1/2).
    crossings = [np.array([2.0 + side * math.sqrt(7.0) / 2.0, 0.5]) - problem.strict_point for side in (1, -1)]
    return problem, np.array([1.0, 0.0]), np.array([0.0, 1.0]), boundary, crossings


@st.composite
def certification_cases(draw):
    kind = draw(st.sampled_from(["synthetic", "graph", "two-ball"]))
    seed = draw(st.integers(0, 2**32 - 1))
    frac = draw(st.floats(0.05, 0.95))
    if kind == "synthetic":
        return kind, (draw(st.integers(1, 8)), seed, frac)
    if kind == "graph":
        family = draw(st.sampled_from(["path", "even-cycle", "star", "complete-bipartite", "chorded-path"]))
        return kind, (family, draw(st.integers(3, 60)), seed, frac, draw(st.floats(0.1, 0.9)),
                      draw(st.sampled_from(["degree", "sqrt-degree"])),
                      draw(st.sampled_from(["uniform", "seed:0", "seed:2"])))
    return kind, (draw(st.floats(0.2, 0.8)),)


def _build(kind, args):
    if kind == "synthetic":
        n, seed, frac = args
        return _synthetic_case(n, np.random.default_rng(seed), frac)
    if kind == "graph":
        family, n, seed, frac, alpha, r_rule, teleport = args
        return _graph_case(family, n, np.random.default_rng(seed), frac, alpha, r_rule, teleport)
    return _two_ball_case(*args)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=certification_cases())
def test_derived_constants_are_certified_property(case):
    kind, args = case
    problem, x_star, y_star, boundary, extreme = _build(kind, args)
    minimizers = [np.array([2.0, 0.0]), np.array([2.0, 1.0])] if kind == "two-ball" else [problem.strict_point]
    constants = derive_constants(problem, minimizers)
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
    for run, variant in ((apdpro, "apdpro"), (rapdpro, "rapdpro")):
        rhos = []
        cfg = SolverConfig(variant=variant, max_iters=RUN_ITERS, max_epochs=3)
        run(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m),
            observer=lambda sn: rhos.append(sn.rho_next))
        assert rhos and max(rhos) <= bound, (variant, max(rhos), bound)
