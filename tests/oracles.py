"""Independent oracles the tests compare the library against.

Nothing here calls into the package's operator implementations. The prox
oracle is a dense scan (literal in 1-D) whose higher-dimensional refinement
is Douglas-Rachford splitting built from two textbook pieces written out
here: the block soft threshold and the Euclidean ball projection. The dual
projection oracle enumerates KKT active sets. The synthetic family's
multiplier is found by bisection. The PageRank KKT check builds Q as a
dense matrix from the edge list. rapdpro's rate coefficients and epoch
budgets are recomputed from an epoch's certified rho values. msapd's
rho_lb along the segment to p is the best of a plain grid of certified
points. The Lagrangian and the active-set accuracy take block norms here,
one block at a time. The trace-record oracle is the exception that proves the
recorder's shortcuts: it takes f and G from the problem's own ``f`` and
``g``, whose values the recorder must reproduce bitwise, and assembles the
rest here. Slow and simple on purpose.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def _f_value(x, blocks, weights):
    total = 0.0
    for (s, ln), w in zip(blocks, weights):
        total += w * np.linalg.norm(x[s : s + ln])
    return total


def lagrangian_oracle(problem, x, y):
    """L(x, y) = f(x) + <y, G(x)>, with f summed here block by block and G from the problem's
    raw ``constraints`` callable. No sign condition on y."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    g = np.asarray(problem.constraints(x), dtype=float).reshape(-1)
    return float(_f_value(x, problem.objective.blocks, problem.objective.weights) + y @ g)


def active_set_oracle(x, x_ref, threshold, blocks):
    """Fraction of blocks whose zero status matches the reference's: (|A ^ A*| + |A^c ^ A*^c|)/B.

    ``blocks`` holds (start, length) pairs; a block counts as zero when its
    norm (``np.linalg.norm`` of its slice) falls below ``threshold`` > 0.
    """
    x, x_ref = np.asarray(x, dtype=float), np.asarray(x_ref, dtype=float)
    same = sum(
        (np.linalg.norm(x[s : s + ln]) < threshold) == (np.linalg.norm(x_ref[s : s + ln]) < threshold)
        for s, ln in blocks
    )
    return float(same / len(blocks))


def record_oracle(problem, ri, reference, threshold):
    """The trace record of ``ri`` (a RecordInputs) at its point ``ri.x``.

    ``reference`` is (x*, f*) or None; rel_gap needs f* != 0 and
    active_set_acc needs x*. f is ``problem.f`` and G is ``problem.g`` at
    ri.x (not ``ri.g``); the feasibility norm and the accuracy are formed
    here. Returns the record's fields as the tuple that
    ``dataclasses.astuple`` gives of an IterateRecord.
    """
    fv = problem.f(ri.x)
    rel = acc = None
    if reference is not None:
        x_ref, f_ref = reference
        rel = abs(fv - f_ref) / abs(f_ref) if f_ref != 0.0 else None
        acc = None if x_ref is None else active_set_oracle(ri.x, x_ref, threshold, problem.objective.blocks)
    feas = float(np.linalg.norm(np.maximum(problem.g(ri.x), 0.0)))
    return (ri.iter, ri.epoch, fv, rel, feas, ri.rho, ri.tau, ri.sigma, acc, ri.elapsed_s)


def soft_threshold_blocks(z, blocks, weights, step):
    """The prox of step*f: each block scaled by max(0, 1 - step*w/||block||), zero at or under
    the threshold. The block norm is math.hypot's, which neither underflows nor overflows."""
    out = z.copy()
    for (s, ln), w in zip(blocks, weights):
        blk = z[s : s + ln]
        nb = math.hypot(*blk)
        t = step * w
        out[s : s + ln] = 0.0 if nb <= t else blk * (1.0 - t / nb)
    return out


def prox_oracle(v, eta, blocks, weights, center, radius):
    """argmin f(x) + ||x - v||^2/(2 eta) over the ball, independently.

    1-D: literal dense scan at 1e-6 step over the ball segment. Higher
    dimensions: a coarse vectorized grid localizes the minimum, then
    Douglas-Rachford splitting between F = f + ||x-v||^2/(2 eta) (closed-form
    prox: a shifted block soft threshold) and the ball indicator (prox:
    projection) polishes it; F's strong convexity makes the split contract
    linearly. The result must beat every grid point, which cross-checks the
    two stages against each other.
    """
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    blocks = tuple(blocks)
    weights = np.asarray(weights, dtype=float)
    n = v.size

    def objective(x):
        return _f_value(x, blocks, weights) + np.dot(x - v, x - v) / (2.0 * eta)

    def project_ball(z):
        d = z - center
        nd = np.linalg.norm(d)
        return z if nd <= radius else center + d * (radius / nd)

    if n == 1:
        lo, hi = center[0] - radius, center[0] + radius
        grid = np.linspace(lo, hi, int(round(2.0 * radius / 1e-6)) + 1)
        vals = weights[0] * np.abs(grid) + (grid - v[0]) ** 2 / (2.0 * eta)
        cands = [np.array([grid[np.argmin(vals)]])]
        # candidates the grid can only approximate: 0 and the soft threshold
        for e in (0.0, np.sign(v[0]) * max(abs(v[0]) - eta * weights[0], 0.0)):
            cands.append(np.array([min(max(e, lo), hi)]))
        return min(cands, key=objective)

    # vectorized localization over the ball's bounding box
    pts_per_axis = 11 if n <= 3 else 7
    axes = [np.linspace(center[i] - radius, center[i] + radius, pts_per_axis) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    d = pts - center
    nd = np.linalg.norm(d, axis=1)
    outside = nd > radius
    pts[outside] = center + d[outside] * (radius / nd[outside])[:, None]
    fvals = np.zeros(len(pts))
    for (s, ln), w in zip(blocks, weights):
        fvals += w * np.linalg.norm(pts[:, s : s + ln], axis=1)
    fvals += np.einsum("ij,ij->i", pts - v, pts - v) / (2.0 * eta)
    grid_best_val = float(fvals.min())

    # Douglas-Rachford: prox_{tF}(z) combines the two quadratics into one
    # shifted soft threshold with effective step h = 1/(1/eta + 1/t)
    t = eta
    h = 1.0 / (1.0 / eta + 1.0 / t)

    def prox_f_quad(z):
        u = h * (v / eta + z / t)
        return soft_threshold_blocks(u, blocks, weights, h)

    z = v.copy()
    xg = project_ball(z)
    for _ in range(200000):
        xf = prox_f_quad(z)
        xg = project_ball(2.0 * xf - z)
        z = z + xg - xf
        if np.linalg.norm(xg - xf) <= 1e-14 * max(1.0, np.linalg.norm(xf)):
            break
    else:
        raise RuntimeError("Douglas-Rachford polish did not converge")
    assert objective(xg) <= grid_best_val + 1e-9, "polish lost to the localization grid"
    return xg


def project_oracle(u, lower, upper):
    """argmin ||y - u||^2 over {y >= 0, lower <= sum y <= upper} by enumeration.

    Candidates: the positive part and, for each bound and support set, the
    equality-constrained stationary point u_s - (sum(u_s) - bound)/k, kept
    when it is nonnegative; the feasible candidate of least distance wins,
    rounded to float at the end. Every float is a rational, so the
    candidates, the slab test and the distances are exact: in float64, a
    near-tie at |u| >> bound lost its sum to rounding and fell out of the
    slab. Exponential in m, fine for m <= 3.
    """
    u = [Fraction(v) for v in np.asarray(u, dtype=float).tolist()]
    lower, upper = Fraction(lower), Fraction(upper)
    m = len(u)
    cands = [[max(v, Fraction(0)) for v in u]]
    for bound in (lower, upper):
        for k in range(1, m + 1):
            for support in itertools.combinations(range(m), k):
                nu = (sum(u[i] for i in support) - bound) / k
                y = [u[i] - nu if i in support else Fraction(0) for i in range(m)]
                if min(y) >= 0:
                    cands.append(y)
    feasible = [y for y in cands if lower <= sum(y) <= upper]
    if not feasible:
        raise ValueError("enumeration produced no feasible candidate")
    best = min(feasible, key=lambda y: sum((a - b) ** 2 for a, b in zip(y, u)))
    return np.array([float(v) for v in best])


def rho_hat_oracle(rhos, tau_bar):
    """rapdpro's rate coefficients in one epoch from the certified rho_1, rho_2, ... its steps
    produced (each snapshot's rho_next): rho_hat_1 = 3 sqrt(rho_1/tau_bar), then rho_hat_{j+1} =
    sqrt(rho_hat_j^2 j^2 + 3 rho_{j+1} rho_hat_j j)/(j + 1). The sequence starts again in every
    epoch, at the epoch's step tau_bar."""
    hats = [3.0 * math.sqrt(rhos[0] / tau_bar)]
    for j, rho in enumerate(rhos[1:], 1):
        hat = hats[-1]
        hats.append(math.sqrt(hat * hat * j * j + 3.0 * rho * hat * j) / (j + 1))
    return hats


def epoch_budget_oracle(rho_hat, s, tau_bar, sigma_bar, D_X, D_Y):
    """rapdpro's budget of epoch s at rate coefficient rho_hat > 0: N_s = ceil(max(6/(rho_hat
    tau_bar), 2^(s/2) 3 sqrt(2) D_Y/(rho_hat D_X sqrt(tau_bar sigma_bar))))."""
    a = 6.0 / (rho_hat * tau_bar)
    b = 2.0 ** (s / 2) * 3.0 * math.sqrt(2.0) * D_Y / (rho_hat * D_X * math.sqrt(tau_bar * sigma_bar))
    return math.ceil(max(a, b))


def synthetic_multiplier_oracle(center, level):
    """y* of the synthetic family (g(x) = ||x - c||^2/2 - level^2, unit l1 objective) by bisection.

    x*(y) = soft_threshold(c, 1/y), and g(x*(y)) falls from g(0) > 0 toward
    g(c) < 0 as y grows; the root is bracketed by halving and doubling, then
    bisected 200 times. No early exit on |g| <= 1e-14: the bracket closes
    to adjacent floats, so y* is accurate at every level, not only where
    g's slope is near 1.
    """
    c = np.asarray(center, dtype=float)

    def phi(y):
        d = np.sign(c) * np.maximum(np.abs(c) - 1.0 / y, 0.0) - c
        return 0.5 * float(d @ d) - level**2

    lo = 1.0
    while phi(lo) <= 0.0:
        lo /= 2.0
        if lo < 1e-300:
            raise ValueError("failed to bracket the dual multiplier from below")
    hi = max(2.0 * lo, 1.0)
    while phi(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("failed to bracket the dual multiplier from above")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def segment_rho_lb_oracle(problem, lb, p):
    """The best certified mu_lb ||y*||_1 lower bound on the grid s = 0.95 j/200, j = 1..200.

    Weak duality at x = s p: f* >= lb (1 - 1e-9) gives ||y*||_1 >= (lb (1 - 1e-9) - f(x))/max_i
    g_i(x) where both are positive. f is summed here block by block and G comes from the problem's
    raw ``constraints``; a point where G is not finite certifies nothing. 0 when no point certifies.
    """
    p = np.asarray(p, dtype=float)
    low, best = lb * (1.0 - 1e-9), 0.0
    for j in range(1, 201):
        x = 0.95 * j / 200 * p
        g = np.asarray(problem.constraints(x), dtype=float).reshape(-1)
        gap = low - _f_value(x, problem.objective.blocks, problem.objective.weights)
        if np.isfinite(g).all() and g.max() > 0.0 and gap > 0.0:
            best = max(best, gap / float(g.max()))
    return float(problem.mu.min()) * best


def _adjacency(n, edges):
    """Dense 0/1 adjacency of an edge list: symmetrized, duplicates and self-loops dropped."""
    adj = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            adj[u, v] = adj[v, u] = 1.0
    return adj


def ppr_q_dense(n, edges, alpha):
    """Q = I - (1 - alpha)/2 (I + D^{-1/2} A D^{-1/2}) of the PageRank constraint, built densely
    from the edge list (symmetrized, duplicates and self-loops dropped)."""
    adj = _adjacency(n, edges)
    dinv = 1.0 / np.sqrt(adj.sum(axis=1))
    return np.eye(n) - 0.5 * (1.0 - alpha) * (np.eye(n) + dinv[:, None] * adj * dinv[None, :])


def ppr_kkt_oracle(n, edges, alpha, teleport, b, x, y):
    """(stationarity, complementarity) of the l1-regularized PageRank problem at (x, y).

    The problem is min sum_i sqrt(d_i)|x_i| s.t. g(x) = x'Qx/2 - q'x - b <= 0
    with Q = ``ppr_q_dense(n, edges, alpha)`` and q = alpha D^{-1/2} s.
    Stationarity is the Euclidean norm of each coordinate's distance from
    0 in sqrt(d_i) d|x_i| + y (Qx - q)_i; complementarity is |y g(x)|.
    """
    deg = _adjacency(n, edges).sum(axis=1)
    q_mat = ppr_q_dense(n, edges, alpha)
    dinv = 1.0 / np.sqrt(deg)
    q = alpha * dinv * np.asarray(teleport, dtype=float)
    x = np.asarray(x, dtype=float)
    y = float(np.asarray(y).reshape(-1)[0])
    w = np.sqrt(deg)
    v = y * (q_mat @ x - q)
    dist = np.where(x != 0.0, np.abs(w * np.sign(x) + v), np.maximum(0.0, np.abs(v) - w))
    g = 0.5 * x @ q_mat @ x - q @ x - b
    return float(np.linalg.norm(dist)), float(abs(y * g))
