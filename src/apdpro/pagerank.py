"""Sparse personalized-PageRank instances.

Builds the constrained form: minimize ||D^{1/2} x||_1 subject to
(1/2) x^T Q x - alpha <s, D^{-1/2} x> <= b with
Q = D^{-1/2}(D - (1-alpha)/2 (D + A)) D^{-1/2}, assembled once as a sparse
matrix. Also provides the synthetic known-solution generator used
as an oracle by the tests and the benchmark reference modes.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .linalg import NumericalError, cg_solve
from .linalg import power_iteration  # noqa: F401  (unused here; perfbench/tracing.py wraps this name)
from .problem import BlockNormObjective, ConstrainedProblem, _vec

__all__ = [
    "Graph",
    "load_graph",
    "build_ppr_problem",
    "make_synthetic_instance",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: symmetric 0/1 CSR adjacency (promised, not checked), no self-loops.

    ``n``, ``degrees`` (row sums, all >= 1) and ``components`` derive from the adjacency. Loaders
    warn on more than one component but do not reject (Q stays positive definite for alpha > 0).
    """

    adjacency: sp.csr_matrix
    n: int = field(init=False)
    degrees: np.ndarray = field(init=False)
    components: int = field(init=False)

    def __post_init__(self):
        adj = self.adjacency
        if adj.shape[0] != adj.shape[1] or adj.shape[0] == 0:
            raise ValueError(f"adjacency must be a non-empty square matrix, got shape {adj.shape}")
        degrees = np.asarray(adj.sum(axis=1)).ravel()
        isolated = np.flatnonzero(degrees == 0)
        if isolated.size:
            raise ValueError(f"isolated node(s) {isolated.tolist()[:10]}; every node needs degree >= 1")
        ncomp = int(connected_components(adj, directed=False, return_labels=False))
        for name, value in (("n", adj.shape[0]), ("degrees", degrees), ("components", ncomp)):
            object.__setattr__(self, name, value)


_NODES_DIRECTIVE = re.compile(r"^#\s*nodes\s+(\d+)\s*$")
_COMMENT_LINE = re.compile(r"^[ \t]*[#%].*$", re.MULTILINE)
_MAX_ID_DIGITS = 18  # every id of at most 18 digits fits in int64
_MAX_ID = np.iinfo(np.int64).max


def _parse_fast(text: str):
    """Vectorized parse of a well-formed edge list: (ids, declared_n), or None.

    ``ids`` holds u0, v0, u1, v1, ... Accepts only ASCII digits, spaces, tabs
    and newlines outside comment lines, exactly two ids on every nonblank
    line, and ids short enough for int64. Anything else returns None, and
    the line scan decides.
    """
    declared_n = None
    if "#" in text or "%" in text:
        for m in _COMMENT_LINE.finditer(text):
            d = _NODES_DIRECTIVE.match(m.group().strip())
            if d:
                declared_n = int(d.group(1))
        text = _COMMENT_LINE.sub("", text)
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    newline = raw == ord("\n")
    if not np.all(digit | newline | (raw == ord(" ")) | (raw == ord("\t"))):
        return None
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    last = digit.copy()
    last[:-1] &= ~digit[1:]
    starts = np.flatnonzero(first)
    if starts.size and np.max(np.flatnonzero(last) - starts) >= _MAX_ID_DIGITS:
        return None
    per_line = np.bincount(np.cumsum(newline)[starts])
    if np.any((per_line != 0) & (per_line != 2)):
        return None
    ids = np.fromstring(text, dtype=np.int64, sep=" ") if starts.size else np.empty(0, np.int64)
    if ids.size != starts.size:
        return None
    return ids, declared_n


def _parse_lines(path, text: str):
    """Line-by-line parse with the reference semantics: (ids, declared_n).

    Raises ValueError naming the first malformed line.
    """
    declared_n = None
    ids: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _NODES_DIRECTIVE.match(line)
            if m:
                declared_n = int(m.group(1))
            continue
        if line.startswith("%"):
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
        if u > _MAX_ID or v > _MAX_ID:
            raise ValueError(f"{path}: line {lineno}: node id out of range in {line!r}")
        ids += (u, v)
    return np.array(ids, dtype=np.int64), declared_n


def load_graph(path) -> Graph:
    """Read an undirected graph from a whitespace edge list.

    One edge per line "u v" with 0-based integer ids; '%' and '#' lines are
    comments except for the optional "# nodes N" directive; blank lines are
    skipped. Edges are symmetrized and deduplicated, self-loops dropped.

    The file is read once and parsed with numpy; only input the vectorized
    parse does not accept (a malformed line, a sign, an unusual whitespace
    character) goes through a line-by-line scan, which reports the first
    malformed line.

    Parameters
    ----------
    path : str or os.PathLike

    Returns
    -------
    Graph

    Raises
    ------
    ValueError
        On malformed lines (reported with their line number), ids outside a
        declared node count, a declared count the edges cannot reach, or
        isolated nodes (D^{-1/2} must exist).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    parsed = _parse_fast(text)
    ids, declared_n = parsed if parsed is not None else _parse_lines(path, text)
    if declared_n is not None and declared_n > ids.size:  # each edge touches at most two nodes
        raise ValueError(
            f"{path}: '# nodes {declared_n}' declares more nodes than {ids.size // 2} edge(s) can reach; "
            "every node needs degree >= 1"
        )
    max_id = int(ids.max()) if ids.size else -1
    n = declared_n if declared_n is not None else max_id + 1
    if n <= 0:
        raise ValueError(f"{path}: no nodes found")
    if max_id >= n:
        raise ValueError(f"{path}: node id {max_id} exceeds declared count {n}")
    u, v = ids[0::2], ids[1::2]
    keep = u != v  # self-loops
    rows = np.concatenate([u[keep], v[keep]])
    cols = np.concatenate([v[keep], u[keep]])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    adj.data[:] = 1.0  # repeated edges were summed into one entry
    try:
        graph = Graph(adj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if graph.components > 1:
        warnings.warn(f"graph has {graph.components} connected components", stacklevel=2)
    return graph


_ROUNDING = 64.0 * np.finfo(float).eps  # relative allowance for rounding in a Ritz bound
# eigsh's relative-residual stop. The bound adds the residual back, so it stays
# certified and exceeds lambda_max by under 1e-6 relative: too little to move an
# iteration count (at 1e-5 one did). Each further decade costs ARPACK a restart
# cycle, about 20 Q mat-vecs on a 5k-node graph.
_RITZ_TOL = 1e-6


def _ritz_bound(qmatvec, n: int) -> float:
    """An upper bound on the largest eigenvalue of a symmetric operator, by Lanczos.

    ``eigsh`` ("LA", k = 1) runs from a fixed seeded start, so the result is
    the same on every call, and stops at relative residual ``_RITZ_TOL``
    (1e-6). For the returned Ritz pair (theta, v), some eigenvalue lies
    within ||Qv - theta v|| / ||v|| of theta; that eigenvalue is the largest
    once Lanczos has converged to the top of the spectrum, so theta moved up
    by that residual (plus a few units of rounding in theta and the
    residual) bounds it. The stopping tolerance sets only the slack, under
    1e-6 relative.
    """
    if n == 1:  # ARPACK needs n >= 2; a 1-by-1 operator is its own eigenvalue
        return float(qmatvec(np.ones(1))[0])
    op = LinearOperator((n, n), matvec=qmatvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w, vecs = eigsh(op, k=1, which="LA", v0=v0, tol=_RITZ_TOL)
    except ArpackNoConvergence:
        raise NumericalError(f"Lanczos (LA) did not converge on the {n}-by-{n} operator") from None
    theta, v = float(w[0]), vecs[:, 0]
    resid = float(np.linalg.norm(qmatvec(v) - theta * v) / np.linalg.norm(v))
    return theta + (resid + _ROUNDING * max(1.0, abs(theta)))


def _resolve_teleport(s, n: int) -> np.ndarray:
    if not isinstance(s, str):  # first: an array would compare with "uniform" entry by entry
        raise ValueError(f"teleport spec must be 'uniform' or 'seed:k', got a {type(s).__name__}")
    if s == "uniform":
        return np.full(n, 1.0 / n)
    if not s.startswith("seed:"):
        raise ValueError(f"bad teleport spec {s!r}; expected 'uniform' or 'seed:k'")
    try:
        k = int(s[5:])
    except ValueError:
        raise ValueError(f"bad teleport spec {s!r}") from None
    if not 0 <= k < n:
        raise ValueError(f"teleport seed {k} out of range for {n} nodes")
    return np.eye(1, n, k)[0]


def build_ppr_problem(
    graph: Graph, alpha: float, b: float, s: str = "uniform", r_rule: str = "sqrt-degree"
) -> ConstrainedProblem:
    """Assemble the personalized-PageRank instance for a graph.

    Parameters
    ----------
    graph : Graph
    alpha : float
        Teleport probability, in (0, 1).
    b : float
        Constraint level; must leave the unconstrained minimum of g strictly
        negative or the instance is rejected.
    s : str
        Teleport distribution: "uniform" or "seed:k" (all mass on node k);
        anything else, a vector included, raises ValueError.
    r_rule : str
        Subgradient floor r: "sqrt-degree" (min_i sqrt(d_i), the default)
        or "degree" (min_i d_i). Only "sqrt-degree" is certified: the
        weights are sqrt(d_i), so when x* != 0 the optimal subgradient has
        norm at least min_i sqrt(d_i), and no more can be proved in general.
        "degree" exceeds that floor on every graph whose degrees are all at
        least 2 and is not a certified bound: the Improve bounds h1 and h2,
        and with them rho, may then overstate mu ||y*||_1.

    Returns
    -------
    ConstrainedProblem
        mu = [alpha], L_X the certified bound on lambda_max(Q), and the
        strict point x_tilde below.

    Notes
    -----
    Q is assembled once as the CSR matrix (1 - h) I - h D^{-1/2} A D^{-1/2},
    h = (1 - alpha)/2, with sorted indices, and q_lin = alpha D^{-1/2} s, so
    g(x) = (1/2) x'Qx - q_lin'x - b and grad g = Qx - q_lin.

    mu = lambda_min(Q) = alpha in closed form: D^{1/2} 1 is an eigenvector of
    D^{-1/2} A D^{-1/2} for its largest eigenvalue 1 (Fountoulakis et al.,
    "A variational perspective on local graph clustering", Math. Prog.
    2019), as ``graph.degrees`` are the adjacency's row sums.
    The same fact gives lambda_max(Q) <= 1. L_X = lambda_max is the Lanczos
    Ritz value of Q moved up by its residual norm and capped at 1, a
    certified upper bound once Lanczos has found the top of the spectrum; no
    power iteration runs. Lanczos stops at relative residual 1e-6, so L_X
    may exceed lambda_max by up to about 1e-6 relative (at most 9.98e-7
    measured). L_X is used only in the step sizes and the Improve bounds,
    where that slack moves no iteration count, and the last four decades of
    residual would cost about 100 Q mat-vecs on a 5k-node graph. Together mu
    and L_X bracket x'Qx / ||x||^2 for every x.

    The strict point is the unconstrained minimizer of g (CG on
    Q x = alpha D^{-1/2} s, tol 1e-12), which maximizes the feasibility
    margin; ``derive_constants`` forms its model ball there.

    The problem carries ``quadratic`` = (q_lin, b), so the solvers derive G
    from J and make one Q mat-vec per iteration, and the exact reference
    applies Q as J(v) + q_lin. ``qmatvec``, the CSR product itself, serves
    only Lanczos and the strict point's CG here.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if not math.isfinite(b):  # a nan b would fail the quadratic-structure check as if the library were wrong
        raise ValueError(f"b must be finite, got {b!r}")
    if r_rule not in ("degree", "sqrt-degree"):
        raise ValueError("r_rule must be 'degree' or 'sqrt-degree'")
    n = graph.n
    s_vec = _resolve_teleport(s, n)
    dinv_sqrt = 1.0 / np.sqrt(graph.degrees)
    half = (1.0 - alpha) / 2.0
    dinv = sp.diags(dinv_sqrt, format="csr")
    q_mat = ((1.0 - half) * sp.identity(n, format="csr") - half * (dinv @ graph.adjacency @ dinv)).tocsr()
    q_mat.sort_indices()

    def qmatvec(x):
        return q_mat @ x

    q_lin = alpha * dinv_sqrt * s_vec
    lam_min = alpha  # exact, and lambda_max(Q) <= 1: see Notes
    lam_max = min(1.0, _ritz_bound(qmatvec, n))
    x_tilde = cg_solve(qmatvec, q_lin, tol=1e-12)
    weights = np.sqrt(graph.degrees)
    objective = BlockNormObjective(blocks=np.stack([np.arange(n), np.ones(n, np.intp)], axis=1), weights=weights)
    r = float(graph.degrees.min()) if r_rule == "degree" else float(weights.min())

    def constraints(x):
        return np.array([0.5 * (x @ qmatvec(x)) - q_lin @ x - b])

    def jacobian(x):
        out = q_mat @ x
        out -= q_lin
        return out.reshape(n, 1)

    g_tilde = float(constraints(x_tilde)[0])
    if g_tilde >= 0.0:
        raise ValueError(
            f"target level b={b:.6g} unattainable: the constraint's unconstrained "
            f"minimum is {g_tilde + b:.6g}, need b strictly above it"
        )

    return ConstrainedProblem(
        objective=objective,
        constraints=constraints,
        jacobian=jacobian,
        mu=np.array([lam_min]),
        L_X=lam_max,
        r=r,
        strict_point=x_tilde,
        quadratic=(q_lin, b),
    )


def make_synthetic_instance(n: int, center, level: float):
    """Known-solution instance: unit l1 objective, g(x) = ||x - c||^2/2 - level^2.

    The origin must be infeasible (g(0) > 0), which pins the optimum to the
    constraint boundary and makes the one-parameter KKT system exact:
    x*(y) = soft_threshold(c, 1/y). With t = 1/y and a = sort(|c|),
    g(x*(y)) + level^2 = (1/2) sum_i min(a_i, t)^2 =: phi(t) is
    (1/2)(S_k + (n - k) t^2) on [a_{k-1}, a_k], S_k = sum_{i<k} a_i^2, so
    y* is exact: k is the first index with phi(a_k) >= level^2 (k < n as
    g(0) > 0), and t = sqrt((2 level^2 - S_k)/(n - k)).

    Parameters
    ----------
    n : int
    center : float or array_like
        Constraint center c; a scalar is broadcast to all coordinates.
    level : float
        Sets the feasible-set size; g(c) = -level^2.

    Returns
    -------
    (ConstrainedProblem, x_star, y_star)
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (math.isfinite(level) and level > 0):
        raise ValueError(f"level must be positive and finite, got {level!r}")
    c = np.full(n, float(center)) if np.ndim(center) == 0 else _vec(center, n, "center")
    if not np.isfinite(c).all():
        raise ValueError("center must be finite, got a nan or inf entry")
    g0 = 0.5 * float(c @ c) - level**2
    if g0 <= 0.0:
        raise ValueError(
            f"instance must make the origin infeasible: g(0) = {g0:.6g} <= 0"
        )

    def constraints(x):
        d = x - c
        return np.array([0.5 * (d @ d) - level**2])

    def jacobian(x):
        return (x - c).reshape(n, 1)

    objective = BlockNormObjective(blocks=np.stack([np.arange(n), np.ones(n, np.intp)], axis=1), weights=np.ones(n))
    problem = ConstrainedProblem(
        objective=objective,
        constraints=constraints,
        jacobian=jacobian,
        mu=np.array([1.0]),
        L_X=1.0,
        r=1.0,
        strict_point=c.copy(),
    )

    a_sq = np.sort(np.abs(c)) ** 2
    # S_k as cumsum's sequential sums: then phi(a_{k-1}) < level^2 keeps 2 level^2 - S_k > 0.
    s_k = np.concatenate(([0.0], np.cumsum(a_sq[:-1])))
    rest = n - np.arange(n)  # n - k
    # min(..., n - 1): phi(a_{n-1}) is g(0) + level^2 up to the rounding of the sums.
    k = min(int(np.searchsorted(0.5 * (s_k + rest * a_sq), level**2)), n - 1)
    y_star = 1.0 / math.sqrt((2.0 * level**2 - s_k[k]) / rest[k])
    x_star = np.sign(c) * np.maximum(np.abs(c) - 1.0 / y_star, 0.0)
    return problem, x_star, np.array([y_star])
