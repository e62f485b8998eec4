"""Graph loading, the quadratic-form constants, and the synthetic oracle."""

import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from apdpro.bench import _solve_reference, make_recorder
from apdpro.pagerank import Graph, _ritz_bound, build_ppr_problem, load_graph, make_synthetic_instance
from apdpro.problem import derive_constants, kkt_residual
from apdpro.solvers import SolverConfig, apd_baseline, apdpro, rapdpro
from helpers import assert_traces_close, cycle_edges, path_edges, q_times, star_edges, write_edge_list
from oracles import ppr_q_dense, synthetic_multiplier_oracle


def _dense_q(graph, alpha):
    """Q of a loaded graph, built densely by the independent oracle."""
    return ppr_q_dense(graph.n, zip(*graph.adjacency.nonzero()), alpha)


def _random_connected_graph(rng, tmp_path, n, p=0.15, tag=""):
    edges = set(path_edges(n))  # spanning path keeps every degree positive
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return load_graph(write_edge_list(tmp_path / f"rand{tag}.txt", sorted(edges)))


def _reference_load(path):
    """The set-based line loop the vectorized loader replaced.

    Returns (n, adjacency, degrees, components); raises the loader's
    ValueError for a malformed line, a declared count too small or too large
    for the edge lines to reach, or an isolated node.
    """
    declared_n, edges, max_id, lines = None, set(), -1, 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if line.startswith("#"):
                words = line[1:].split()
                if len(words) == 2 and words[0] == "nodes" and words[1].isdigit():
                    declared_n = int(words[1])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer node id in {line!r}") from None
            if u < 0 or v < 0:
                raise ValueError(f"{path}: line {lineno}: negative node id in {line!r}")
            if max(u, v) >= 2**63:
                raise ValueError(f"{path}: line {lineno}: node id out of range in {line!r}")
            max_id, lines = max(max_id, u, v), lines + 1
            if u != v:
                edges.add((min(u, v), max(u, v)))
    if declared_n is not None and declared_n > 2 * lines:
        raise ValueError(
            f"{path}: '# nodes {declared_n}' declares more nodes than {lines} edge(s) can reach; "
            "every node needs degree >= 1"
        )
    n = declared_n if declared_n is not None else max_id + 1
    if n <= 0:
        raise ValueError(f"{path}: no nodes found")
    if max_id >= n:
        raise ValueError(f"{path}: node id {max_id} exceeds declared count {n}")
    ij = np.array(sorted(edges), dtype=np.intp).reshape(-1, 2)
    rows, cols = np.concatenate([ij[:, 0], ij[:, 1]]), np.concatenate([ij[:, 1], ij[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        raise ValueError(f"{path}: isolated node(s) {isolated.tolist()[:10]}; every node needs degree >= 1")
    return n, adj, degrees, connected_components(adj, directed=False, return_labels=False)


_COMMENTS = ["", "   ", "# a comment", "% a comment", "#nodes", "# nodes x", "  \t# nodes 3 "]
_SCAN_ONLY = ["+1 0", "1\u00a00", "\uff11 0", "0\x0c1"]  # valid, but not for the vectorized parse
_MALFORMED = ["0 x", "1 2 3", "-1 2", "7", "0 1 # trailing", "1 12345678901234567890"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text: duplicates, reversed pairs, self-loops, odd spacing, comments, directives.

    Some examples add a line only the line scan accepts (a '+' sign,
    non-ASCII whitespace or digits) or one the loader must reject.
    """
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=25))
    if draw(st.integers(0, 4)):
        edges += [(i, i + 1) for i in range(n - 1)]  # spanning path: most of these load
    if edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=8))]
    indents, seps = st.sampled_from(["", " ", "\t"]), st.sampled_from([" ", "\t", "  ", " \t "])
    lines = [f"{draw(indents)}{u}{draw(seps)}{v}" for u, v in edges]
    lines += [f"# nodes {n + k}" for k in draw(st.lists(st.sampled_from([-1, 0, 0, 0, 1]), max_size=2))]
    lines += draw(st.lists(st.sampled_from(_COMMENTS), max_size=4))
    if not draw(st.integers(0, 3)):
        lines.append(draw(st.sampled_from(_SCAN_ONLY)))
    if not draw(st.integers(0, 5)):
        lines.append(draw(st.sampled_from(_MALFORMED)))
    lines = draw(st.permutations(lines))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=edge_list_texts())
def test_load_graph_matches_the_set_based_reference(tmp_path_factory, text):
    path = str(tmp_path_factory.getbasetemp() / "property.edges")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            n, adj, degrees, components = _reference_load(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_graph(path)
            assert str(got.value) == str(exc)
            return
        g = load_graph(path)
    assert g.n == n and g.components == components
    assert np.array_equal(g.degrees, degrees) and g.degrees.dtype == degrees.dtype
    for part in ("indptr", "indices", "data"):
        mine, ref = getattr(g.adjacency, part), getattr(adj, part)
        assert mine.dtype == ref.dtype and np.array_equal(mine, ref), part


def test_load_graph_basic(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "g.txt", [(0, 1), (1, 2)]))
    assert g.n == 3
    assert np.array_equal(g.degrees, [1, 2, 1])
    assert g.components == 1
    assert g.adjacency[0, 1] == 1 and g.adjacency[1, 0] == 1
    assert g.adjacency[0, 2] == 0


def test_load_graph_deduplicates_reversed_edges(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "g.txt", [(0, 1), (1, 0)]))
    assert np.array_equal(g.degrees, [1, 1])
    assert g.adjacency.nnz == 2  # one undirected edge, two stored halves


def test_load_graph_drops_self_loops_and_rejects_isolated(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n1 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"g.txt: isolated node\(s\) \[0\]"):
        load_graph(str(path))


def test_load_graph_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "g.txt"
    for line, problem in (
        ("0 x", "non-integer node id in '0 x'"),
        ("1 12345678901234567890", "node id out of range in '1 12345678901234567890'"),  # beyond int64
        ("1 9223372036854775808", "node id out of range"),  # 2^63
    ):
        path.write_text(f"0 1\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"g.txt: line 2: {problem}"):
            load_graph(str(path))


def test_load_graph_comments_blanks_and_directive(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("% comment\n# nodes 3\n\n0 1\n1 2\n", encoding="utf-8")
    assert load_graph(str(path)).n == 3


def test_load_graph_directive_cannot_orphan_nodes(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nodes 4\n0 1\n1 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="isolated"):
        load_graph(str(path))


@pytest.mark.parametrize("text, declared, edges", [
    ("# nodes 99999999999999999999\n0 1\n", "99999999999999999999", 1),  # beyond int64
    ("# nodes 3\n0 1\n", "3", 1),
    ("# nodes 1\n", "1", 0),
])
def test_load_graph_rejects_a_directive_the_edges_cannot_reach(tmp_path, text, declared, edges):
    """Each edge gives at most two nodes a degree, so N above twice the edge count fails at once."""
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"g.txt: '# nodes {declared}' declares more nodes than {edges} edge"):
        load_graph(str(path))


def test_load_graph_warns_on_disconnection(tmp_path):
    path = write_edge_list(tmp_path / "g.txt", [(0, 1), (2, 3)])
    with pytest.warns(UserWarning, match="2 connected components"):
        g = load_graph(path)
    assert g.components == 2


def test_graph_derives_n_degrees_and_components_from_its_adjacency():
    """The certificate mu = alpha needs the degrees to be the row sums, so they are not an input."""
    path3 = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    g = Graph(path3)
    assert g.n == 3 and g.components == 1
    assert np.array_equal(g.degrees, [1.0, 2.0, 1.0])
    assert Graph(sp.csr_matrix(np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]))).components == 2
    for given_field in ({"n": 4}, {"degrees": np.ones(3)}):
        with pytest.raises(TypeError):
            Graph(path3, **given_field)
    with pytest.raises(ValueError, match=r"isolated node\(s\) \[0, 3\]; every node needs degree >= 1"):
        Graph(sp.csr_matrix(np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)))
    with pytest.raises(ValueError, match=r"adjacency must be a non-empty square matrix, got shape \(3, 4\)"):
        Graph(sp.csr_matrix((3, 4)))


@pytest.mark.parametrize("kw, message", [
    (dict(alpha=1.0), "alpha must lie strictly inside (0, 1)"),
    (dict(alpha=0.0), "alpha must lie strictly inside (0, 1)"),
    (dict(s="seed:one"), "bad teleport spec 'seed:one'"),
    (dict(s="local"), "bad teleport spec 'local'; expected 'uniform' or 'seed:k'"),
    (dict(n=0), "n must be positive"),
], ids=["alpha-1", "alpha-0", "seed-not-integer", "unknown-teleport", "synthetic-n"])
def test_pagerank_inputs_are_rejected_with_their_message(tmp_path, kw, message):
    with pytest.raises(ValueError) as info:
        if "n" in kw:
            make_synthetic_instance(kw["n"], 2.0, 1.0)
        else:
            graph = load_graph(write_edge_list(tmp_path / "p2.txt", [(0, 1)]))
            build_ppr_problem(graph, **{"alpha": 0.5, "b": -0.05, **kw})
    assert str(info.value) == message


def test_two_node_path_q_matrix(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "p2.txt", [(0, 1)]))
    problem = build_ppr_problem(g, alpha=0.5, b=-0.05)
    cols = np.column_stack([q_times(problem, e)[:, 0] for e in np.eye(2)])
    assert np.allclose(cols, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-15)
    lam_min, lam_max = np.linalg.eigvalsh(ppr_q_dense(2, [(0, 1)], 0.5))[[0, -1]]
    assert problem.mu[0] == pytest.approx(lam_min, abs=1e-8) and lam_min == pytest.approx(0.5, abs=1e-15)
    assert lam_max <= problem.L_X == pytest.approx(lam_max, abs=1e-8)


def test_qmatvec_matches_dense_assembly(tmp_path):
    """The CSR Q behind the oracle against dense assembly: Q's columns J(e_i) + q_lin, and J itself
    against dense x - q_lin. Adding q_lin back to J(x) would round at the scale of q_lin, not of Qx."""
    rng = np.random.default_rng(12)
    for trial in range(6):
        n = int(rng.integers(3, 51))
        g = _random_connected_graph(rng, tmp_path, n, tag=str(trial))
        alpha = float(rng.uniform(0.1, 0.9))
        problem = build_ppr_problem(g, alpha, b=-1e-12)
        q_lin = problem.quadratic[0][:, 0]
        dense = _dense_q(g, alpha)
        cols = np.column_stack([q_times(problem, e)[:, 0] for e in np.eye(n)])
        assert np.max(np.abs(cols - dense)) <= 1e-12
        for x in rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-5, 5, size=(4, 1)):
            want = dense @ x - q_lin
            assert np.linalg.norm(problem.jac(x)[:, 0] - want) <= 1e-15 * np.linalg.norm(want)


def test_assembled_q_runs_like_the_dense_oracle_q(small_graph_bundle):
    """apdpro, rapdpro and apd on the 30-node graph, once with the CSR Q and once with
    ppr_q_dense's Q under the same constants: the same iteration counts, traces equal to rounding."""
    bundle = small_graph_bundle
    problem, constants = bundle.problem, bundle.constants
    graph = load_graph(os.path.join(bundle.cache_dir, bundle.label))
    q_mat = ppr_q_dense(graph.n, zip(*graph.adjacency.nonzero()), 0.2)  # the fixture's alpha
    q_lin, b = problem.quadratic
    dense = dataclasses.replace(
        problem,
        constraints=lambda x: np.array([0.5 * x @ (q_mat @ x) - q_lin[:, 0] @ x - b[0]]),
        jacobian=lambda x: q_mat @ x.reshape(-1, 1) - q_lin,
        quadratic=(q_lin, b),
    )
    x = problem.strict_point
    assert np.linalg.norm(dense.jac(x) - problem.jac(x)) <= 1e-15 * np.linalg.norm(q_mat @ x)
    x_ref, y_ref, _, _ = _solve_reference(bundle)  # not get_reference: no cache in the shared graph's dir
    ref = x_ref, y_ref, problem.f(x_ref)
    zeros = np.zeros(problem.n), np.zeros(problem.m)
    for variant, runner, tol, iters in (("apdpro", apdpro, 1e-6, 20000), ("rapdpro", rapdpro, 1e-6, 20000),
                                        ("apd", apd_baseline, 0.0, 500)):
        cfg = SolverConfig(variant=variant, tolerance=tol, max_iters=iters, max_epochs=60)
        csr, dense_run = (runner(p, constants, cfg, *zeros, recorder=make_recorder(p, variant, cfg, ref), f_star=ref[2])
                          for p in (problem, dense))
        assert csr.termination == dense_run.termination == ("completed" if tol == 0.0 else "tolerance"), variant
        assert csr.state.k == dense_run.state.k, variant
        assert_traces_close(csr.trace, dense_run.trace)


def test_spectral_bounds_bracket_the_true_spectrum(tmp_path):
    rng = np.random.default_rng(13)
    for trial in range(4):
        n = int(rng.integers(4, 40))
        g = _random_connected_graph(rng, tmp_path, n, tag=f"s{trial}")
        alpha = float(rng.uniform(0.2, 0.8))
        problem = build_ppr_problem(g, alpha, b=-1e-12)
        evals = np.linalg.eigvalsh(_dense_q(g, alpha))
        # The normalized adjacency always has eigenvalue 1, so min(Q) = alpha.
        assert evals[0] == pytest.approx(alpha, abs=1e-10)
        assert problem.mu[0] <= evals[0] + 1e-12
        assert problem.mu[0] == pytest.approx(evals[0], rel=1e-7)
        assert problem.L_X >= evals[-1] - 1e-12
        assert problem.L_X == pytest.approx(evals[-1], rel=1e-7)
        assert problem.L_X <= 1.0 + 1e-7


def test_bipartite_graph_attains_lambda_max_one(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "star.txt", star_edges(6)))
    assert build_ppr_problem(g, alpha=0.4, b=-1e-12).L_X == pytest.approx(1.0, abs=1e-8)
    g_odd = load_graph(write_edge_list(tmp_path / "c5.txt", cycle_edges(5)))
    assert build_ppr_problem(g_odd, alpha=0.4, b=-1e-12).L_X < 1.0 - 1e-3


def test_lambda_max_bounds_the_spectrum_of_a_generated_graph(tmp_path):
    """A path on 300 nodes plus 4n random edges: power iteration stopped below lambda_max here."""
    n, alpha = 300, 0.15
    rng = np.random.default_rng(0)
    edges = path_edges(n) + [tuple(map(int, e)) for e in rng.integers(0, n, size=(4 * n, 2))]
    g = load_graph(write_edge_list(tmp_path / "gen300.txt", edges))
    problem = build_ppr_problem(g, alpha, b=-1e-12)
    top = np.linalg.eigvalsh(_dense_q(g, alpha))[-1]
    assert top <= problem.L_X <= top * (1.0 + 1e-7)
    assert problem.mu[0] == alpha
    assert build_ppr_problem(g, alpha, b=-1e-12).L_X == problem.L_X


def test_lambda_max_bound_is_certified_past_the_lanczos_basis(tmp_path):
    """n from 21 to 400, past eigsh's 20-vector basis, so Lanczos restarts before it stops at
    relative residual 1e-6. Every third graph is bipartite (lambda_max(Q) = 1, the cap).
    L_X bounds lambda_max and overshoots it by under 2e-6 relative."""
    rng = np.random.default_rng(20)
    for trial in range(15):
        n = int(rng.integers(21, 401))
        pairs = rng.integers(0, n, size=(int(rng.integers(1, 5)) * n, 2))
        if trial % 3 == 0:
            pairs = pairs[pairs.sum(axis=1) % 2 == 1]  # even-odd edges only: bipartite, like the path
        edges = path_edges(n) + [tuple(map(int, e)) for e in pairs]
        g = load_graph(write_edge_list(tmp_path / f"big{trial}.txt", edges))
        alpha = float(rng.uniform(0.05, 0.9))
        top = scipy.linalg.eigh(_dense_q(g, alpha), eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
        l_x = build_ppr_problem(g, alpha, b=-1e-12).L_X
        assert top - 1e-12 <= l_x <= min(1.0, top * (1.0 + 2e-6)) + 64 * np.finfo(float).eps, (trial, n)


def test_spectral_bounds_of_diagonal_operators():
    for diag in ([0.7], [0.3, 2.0], [2.0, 0.25, 1.5, 0.5, 1.0]):
        d = np.array(diag)
        lam_max = _ritz_bound(lambda x, d=d: d * x, d.size)
        assert lam_max >= d.max() and lam_max == pytest.approx(d.max(), rel=1e-12)


def test_rayleigh_quotients_respect_the_bounds(tmp_path):
    rng = np.random.default_rng(14)
    g = _random_connected_graph(rng, tmp_path, 25, tag="r")
    problem = build_ppr_problem(g, alpha=0.3, b=-1e-12)
    for _ in range(100):
        x = rng.normal(size=25)
        quot = float(x @ q_times(problem, x)[:, 0]) / float(x @ x)
        assert problem.mu[0] - 1e-12 <= quot <= problem.L_X + 1e-12


def test_identity_quadratic_spectral_bounds():
    lam_max = _ritz_bound(lambda x: x, 4)
    # upward rounding keeps it a certified bound on 1
    assert lam_max == pytest.approx(1.0, abs=2e-8)
    assert 1.0 <= lam_max


def test_gradient_matches_finite_differences(tmp_path):
    rng = np.random.default_rng(15)
    g = _random_connected_graph(rng, tmp_path, 12, tag="fd")
    probe = build_ppr_problem(g, alpha=0.45, b=-1e-12)
    v_min = probe.g(probe.strict_point)[0] + (-1e-12)
    problem = build_ppr_problem(g, alpha=0.45, b=0.5 * v_min)
    h = 1e-6
    for _ in range(20):
        x = rng.normal(scale=0.5, size=12)
        grad = problem.jac(x)[:, 0]
        fd = np.empty(12)
        for i in range(12):
            e = np.zeros(12)
            e[i] = h
            fd[i] = (problem.g(x + e)[0] - problem.g(x - e)[0]) / (2.0 * h)
        assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_objective_weights_are_sqrt_degrees(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "star5.txt", star_edges(5)))
    problem = build_ppr_problem(g, alpha=0.5, b=-1e-12)
    assert np.allclose(problem.objective.weights, [2.0, 1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(problem.objective.blocks, [(i, 1) for i in range(5)])


def test_r_rule_choices(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "c5r.txt", cycle_edges(5)))  # all degrees 2
    assert build_ppr_problem(g, 0.5, -1e-12, r_rule="degree").r == 2.0
    by_sqrt = build_ppr_problem(g, 0.5, -1e-12, r_rule="sqrt-degree").r
    assert by_sqrt == pytest.approx(np.sqrt(2.0), abs=1e-15)
    with pytest.raises(ValueError):
        build_ppr_problem(g, 0.5, -1e-12, r_rule="nope")


def test_teleport_modes(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "p3.txt", path_edges(3)))

    def teleport(s):  # s back from the linear term alpha D^{-1/2} s, alpha = 0.5
        return build_ppr_problem(g, 0.5, -1e-12, s=s).quadratic[0][:, 0] * np.sqrt(g.degrees) / 0.5

    assert teleport("uniform") == pytest.approx(np.ones(3) / 3, abs=1e-15)
    assert teleport("seed:1") == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    with pytest.raises(ValueError):
        build_ppr_problem(g, 0.5, -1e-12, s="seed:7")
    with pytest.raises(ValueError, match="^teleport spec must be 'uniform' or 'seed:k', got a ndarray$"):
        build_ppr_problem(g, 0.5, -1e-12, s=np.array([0.5, 0.25, 0.25]))


def test_unattainable_level_is_rejected(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "p2b.txt", [(0, 1)]))
    with pytest.raises(ValueError, match="unattainable"):
        build_ppr_problem(g, alpha=0.5, b=-10.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, build", [
    ("b", lambda graph, v: build_ppr_problem(graph, alpha=0.5, b=v)),
    ("level", lambda graph, v: make_synthetic_instance(2, 3.0, v)),
    ("center", lambda graph, v: make_synthetic_instance(2, v, 1.0)),
    ("center", lambda graph, v: make_synthetic_instance(2, [3.0, v], 1.0)),
], ids=["b", "level", "center", "center-entry"])
def test_a_non_finite_instance_parameter_is_named(tmp_path, name, build, value):
    """Rejected up front by name, not as a failed structure or feasibility check downstream."""
    graph = load_graph(write_edge_list(tmp_path / "p2.txt", [(0, 1)]))
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(graph, value)


def test_strict_point_is_strictly_feasible(tmp_path):
    g = load_graph(write_edge_list(tmp_path / "p4.txt", path_edges(4)))
    problem = build_ppr_problem(g, alpha=0.5, b=-0.02)
    x_tilde = problem.strict_point
    assert problem.g(x_tilde)[0] < 0.0
    # the unconstrained minimizer of g: grad g = Q x - q_lin vanishes to CG's tolerance
    assert np.linalg.norm(problem.jac(x_tilde)) <= 1e-11 * np.linalg.norm(problem.quadratic[0])


def test_synthetic_canonical_reference():
    """The closed-form root is exact here: y* = 1/sqrt(2) and x* = 2 - sqrt(2), to rounding."""
    problem, x_star, y_star = make_synthetic_instance(1, 2.0, 1.0)
    assert x_star[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=2 * math.ulp(1.0))
    assert y_star[0] == pytest.approx(math.sqrt(0.5), abs=math.ulp(1.0))
    constants = derive_constants(problem)
    assert constants.L_G == pytest.approx(1.2 * np.sqrt(2.0), abs=1e-15)  # the ball's radius: J(2) = 0, L_X = 1


def test_synthetic_scaled_instance_satisfies_kkt():
    problem, x_star, y_star = make_synthetic_instance(1, 20.0, 10.0)
    assert kkt_residual(problem, x_star, y_star).max() <= 1e-10


def test_synthetic_random_instances_satisfy_kkt():
    rng = np.random.default_rng(16)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        center = rng.normal(scale=2.0, size=n)
        level_cap = np.sqrt(0.5 * center @ center)
        if level_cap < 0.2:
            center[0] += 3.0
            level_cap = np.sqrt(0.5 * center @ center)
        level = float(rng.uniform(0.1, 0.95)) * float(level_cap)
        problem, x_star, y_star = make_synthetic_instance(n, center, level)
        res = kkt_residual(problem, x_star, y_star)
        assert res.complementarity <= 1e-12
        assert res.stationarity <= 1e-10
        assert res.primal_violation <= 1e-10


@st.composite
def synthetic_centers_and_levels(draw):
    """Centers with ties, zeros and both signs (entries from a pool of a few magnitudes and 0),
    and levels across (0, ||c||/sqrt(2)), the range where g(0) > 0."""
    n = draw(st.integers(1, 64))
    pool = draw(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4)) + [0.0]
    magnitudes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    center = np.array(magnitudes) * np.array(signs)
    assume(np.any(center))
    return center, draw(st.floats(1e-3, 1.0 - 1e-9)) * math.sqrt(0.5 * center @ center)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=synthetic_centers_and_levels())
def test_synthetic_multiplier_matches_the_bisection_oracle(case):
    center, level = case
    problem, x_star, y_star = make_synthetic_instance(center.size, center, level)
    want = synthetic_multiplier_oracle(center, level)
    assert abs(y_star[0] - want) <= 1e-12 * want
    assert kkt_residual(problem, x_star, y_star).max() <= 1e-10


def test_synthetic_rejects_feasible_origin():
    with pytest.raises(ValueError, match="origin"):
        make_synthetic_instance(1, 0.0, 1.0)  # g(0) = -1
