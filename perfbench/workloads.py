"""Seeded inputs of the three benchmark workloads.

Every workload is a fixed list of instances derived from ``--seed`` alone, so
one seed always gives the same inputs, iteration counts and traces. Why each
workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PPR_NODES = 5000
PPR_GRAPHS = 2  # graphs per round: iteration counts vary ~10% between graphs
PPR_ALPHA = 0.15
PPR_TOL = 1e-6
PPR_APD_ITERS = 500

SYNTH_N = 10_000
SYNTH_INSTANCES = 8
SYNTH_TOL = 1e-9
SYNTH_APD_ITERS = 200

BATCH_INSTANCES = 17  # the canonical instance, then every n in 1..8 twice
BATCH_MAX_N = 8
BATCH_TOL = 1e-9
BATCH_APD_ITERS = 200

MAX_ITERS = 100_000
MAX_EPOCHS = 60


@dataclass(frozen=True)
class Solve:
    """One solver run: tolerance > 0 stops at max(rel_gap, feas) <= tolerance,
    tolerance = 0 runs exactly ``max_iters`` iterations."""

    variant: str
    tolerance: float
    max_iters: int = MAX_ITERS
    max_epochs: int = MAX_EPOCHS


@dataclass
class Instance:
    """What the benchmark hands the library: an edge list or generator args."""

    label: str
    reference_mode: str
    solves: tuple
    edges: np.ndarray | None = None
    spec: dict = field(default_factory=dict)


def _ppr_graph(seed: int) -> tuple[np.ndarray, float]:
    """A path on PPR_NODES nodes plus 4n uniform random edges, and b.

    b is half the constraint's unconstrained minimum -q'Q^{-1}q/2, computed
    here with scipy so the library's own solve stays inside the timed setup.
    """
    n = PPR_NODES
    rng = np.random.default_rng(seed)
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    edges = np.concatenate([path, rng.integers(0, n, size=(4 * n, 2))])
    adj = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()
    adj = ((adj + adj.T) > 0).astype(float)
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    dinv = 1.0 / np.sqrt(np.asarray(adj.sum(axis=1)).ravel())
    half = (1.0 - PPR_ALPHA) / 2.0
    eye = sp.identity(n, format="csr")
    q = eye - half * (eye + sp.diags(dinv) @ adj @ sp.diags(dinv))
    q_lin = PPR_ALPHA * dinv / n
    x, info = spla.cg(q, q_lin, rtol=1e-12, atol=0.0, maxiter=10 * n)
    if info != 0:
        raise RuntimeError(f"input generation: CG for b did not converge (info {info})")
    g_min = 0.5 * float(x @ (q @ x)) - float(q_lin @ x)
    return edges, 0.5 * g_min


def ppr_5k(seed: int) -> list[Instance]:
    solves = (Solve("apdpro", PPR_TOL), Solve("rapdpro", PPR_TOL), Solve("apd", 0.0, PPR_APD_ITERS))
    out = []
    for j in range(PPR_GRAPHS):
        edges, b = _ppr_graph(PPR_GRAPHS * seed + j)
        spec = {"kind": "graph", "alpha": PPR_ALPHA, "b": b, "s": "uniform", "r_rule": "degree"}
        out.append(Instance(f"graph{j}", "long-run", solves, edges=edges, spec=spec))
    return out


def _stratified(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of ``count`` equal slices of [lo, hi].

    Iteration counts depend on where the level sits; drawing one level per
    slice keeps a seed's mix close to every other seed's.
    """
    return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count


def synth_10k(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    solves = (Solve("apdpro", SYNTH_TOL), Solve("rapdpro", SYNTH_TOL), Solve("apd", 0.0, SYNTH_APD_ITERS))
    out = []
    for j, u in enumerate(_stratified(rng, SYNTH_INSTANCES, 0.3, 0.7)):
        center = rng.standard_normal(SYNTH_N)
        level = float(u) * float(np.linalg.norm(center)) / np.sqrt(2.0)
        spec = {"kind": "synthetic", "n": SYNTH_N, "center": center, "level": level}
        out.append(Instance(f"synth{j}", "oracle", solves, spec=spec))
    return out


def synth_batch(seed: int) -> list[Instance]:
    """The canonical 1-D instance, then tiny random ones, n cycling through 1..8.

    Centers have entries of magnitude 0.5..2 with random signs; the level
    keeps the origin infeasible (g(0) > 0), so every optimum is on the
    constraint boundary.
    """
    rng = np.random.default_rng(seed)
    solves = (
        Solve("apdpro", BATCH_TOL),
        Solve("rapdpro", BATCH_TOL),
        Solve("msapd", BATCH_TOL),
        Solve("apd", 0.0, BATCH_APD_ITERS),
    )
    out = [Instance("canonical", "oracle", solves, spec={"kind": "synthetic", "n": 1, "center": 2.0, "level": 1.0})]
    levels = _stratified(rng, BATCH_INSTANCES - 1, 0.2, 0.8)
    rng.shuffle(levels)
    for j in range(1, BATCH_INSTANCES):
        n = 1 + (j - 1) % BATCH_MAX_N
        center = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        level = float(levels[j - 1]) * float(np.linalg.norm(center)) / np.sqrt(2.0)
        spec = {"kind": "synthetic", "n": n, "center": center, "level": level}
        out.append(Instance(f"tiny{j}", "oracle", solves, spec=spec))
    return out


WORKLOADS = {"ppr-5k": ppr_5k, "synth-10k": synth_10k, "synth-batch": synth_batch}
