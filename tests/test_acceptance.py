"""Acceptance checks, one test per numbered criterion.

Each test prints a single verdict line; the detailed tolerances live in the
assertions themselves.
"""

import contextlib
import os
import pathlib
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from apdpro.bench import (
    ExperimentConfig,
    InstanceSpec,
    build_instance,
    get_reference,
    make_recorder,
    run_experiment,
)
from apdpro.pagerank import build_ppr_problem, load_graph
from apdpro.problem import BlockNormObjective
from apdpro.prox import project_dual_set, prox_f_over_ball
from apdpro.solvers import SolverConfig, apd_baseline, apdpro, msapd, rapdpro
from helpers import q_times, star_edges, write_edge_list
from oracles import lagrangian_oracle, ppr_q_dense, project_oracle, prox_oracle


@contextlib.contextmanager
def _verdict(num: int, info: dict):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    print(f"criterion {num}: PASS ({info.get('detail', 'ok')})")


@pytest.fixture(scope="module")
def apdpro_2000(canonical):
    problem, constants, _, _ = canonical
    snaps = []
    cfg = SolverConfig(variant="apdpro", max_iters=2000)
    result = apdpro(problem, constants, cfg, np.zeros(problem.n),
                    np.zeros(problem.m), observer=snaps.append)
    return snaps, result


def test_criterion_1_prox_matches_dense_scan_oracle():
    info = {}
    with _verdict(1, info):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 6))
            weights = np.where(rng.random(n) < 0.15, 0.0, rng.uniform(0.05, 2.0, n))
            obj = BlockNormObjective(weights)
            center = rng.normal(scale=1.0, size=n)
            radius = float(rng.uniform(0.3, 1.5))
            v = center + rng.normal(scale=radius, size=n)
            eta = float(10.0 ** rng.uniform(-2.5, 1.0))
            got = prox_f_over_ball(v, eta, obj, (center, radius))
            want = prox_oracle(v, eta, weights, center, radius)
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.monotonic() - start
        assert worst <= 1e-5
        assert elapsed < 10.0
        info["detail"] = f"200 instances, worst dev {worst:.2e}, {elapsed:.1f}s"


def test_criterion_2_dual_projection_matches_enumeration():
    info = {}
    with _verdict(2, info):
        rng = np.random.default_rng(102)
        start = time.monotonic()
        worst = 0.0
        for _ in range(500):
            m = int(rng.integers(1, 4))
            u = rng.normal(scale=2.0, size=m)
            upper = float(rng.uniform(0.5, 4.0))
            lower = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.9 * upper))
            got = project_dual_set(u, lower, upper)
            want = project_oracle(u, lower, upper)
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.monotonic() - start
        assert worst <= 1e-8
        assert elapsed < 5.0
        info["detail"] = f"500 projections, worst dev {worst:.2e}, {elapsed:.1f}s"


def test_criterion_3_step_size_invariants(canonical, apdpro_2000):
    info = {}
    with _verdict(3, info):
        problem, constants, _, _ = canonical
        snaps, _ = apdpro_2000
        assert len(snaps) == 2000
        tau0, sigma0 = snaps[0].tau, snaps[0].sigma
        product = tau0 * sigma0
        L_XY, L_G2 = constants.L_XY, constants.L_G ** 2
        rho1, rho_hat1 = snaps[0].rho_next, snaps[0].rho_hat_next
        floor = min(rho1, rho_hat1)
        for s in snaps:
            assert abs(s.tau * s.sigma - product) <= 1e-12 * product
            t_next = s.sigma_next / sigma0
            assert t_next * (1.0 / s.tau_next - s.rho_next) <= s.t / s.tau + 1e-9
            assert t_next / s.sigma_next <= s.t / s.sigma + 1e-9
            assert L_XY + L_G2 * s.sigma <= 1.0 / s.tau + 1e-9
            j = s.k + 1
            assert 1.0 / s.tau_next ** 2 >= s.rho_hat_next ** 2 * j ** 2 / 9.0 \
                + 1.0 / tau0 ** 2 - 1e-9
            assert s.sigma_next <= sigma0 * (j + 1) + 1e-9
            assert s.rho_hat_next >= floor - 1e-9
        info["detail"] = "2000 iterations, product drift <= 1e-12 rel, Eq.(5) and Lemma 3 at 1e-9"


def test_criterion_4_cut_validity(canonical, apdpro_2000):
    info = {}
    with _verdict(4, info):
        _, constants, _, y_star = canonical
        snaps, _ = apdpro_2000
        bound = constants.mu_lb * float(np.sum(np.abs(y_star)))
        rhos = [s.rho for s in snaps] + [snaps[-1].rho_next]
        for prev, cur in zip(rhos, rhos[1:]):
            assert cur >= prev
        assert max(rhos) <= bound
        info["detail"] = f"rho nondecreasing, max {max(rhos):.4f} <= mu*||y*||_1 = {bound:.4f}"


def test_criterion_5_gap_bound(canonical, apdpro_2000):
    info = {}
    with _verdict(5, info):
        problem, _, x_star, y_star = canonical
        snaps, _ = apdpro_2000
        tau0, sigma0 = snaps[0].tau, snaps[0].sigma
        delta = float((x_star @ x_star) / (2 * tau0) + (y_star @ y_star) / (2 * sigma0))
        y_acc = np.zeros(problem.m)
        margins = {}
        for s in snaps:
            y_acc = y_acc + s.t * s.y
            K = s.k + 1
            if K in (10, 100, 1000):
                y_bar = y_acc / s.T_next
                err = float((x_star - s.x_next) @ (x_star - s.x_next))
                lhs = (s.t / s.tau / (2.0 * s.T_next)) * err \
                    + lagrangian_oracle(problem, s.x_bar_next, y_star) \
                    - lagrangian_oracle(problem, x_star, y_bar)
                rhs = delta / s.T_next
                assert lhs <= rhs + 1e-8
                margins[K] = rhs - lhs
        assert set(margins) == {10, 100, 1000}
        info["detail"] = "bound holds at K=10/100/1000, min margin " \
            f"{min(margins.values()):.2e}"


def test_criterion_6_rate_separation(canonical):
    info = {}
    with _verdict(6, info):
        problem, constants, x_star, y_star = canonical
        start = time.monotonic()
        # apdpro's squared error reaches rounding (1e-31, against x*^2 = 0.34) by k = 100: fit
        # where it is above that floor
        ks = np.arange(10, 101)
        design = np.vstack([np.log(ks), np.ones(ks.size)]).T

        snaps = []
        apdpro(problem, constants, SolverConfig(variant="apdpro", max_iters=1000),
               np.zeros(1), np.zeros(1), observer=snaps.append)
        errs = {s.k + 1: float((s.x_next - x_star) @ (s.x_next - x_star)) for s in snaps}
        e = np.array([max(errs[k], 1e-300) for k in ks])
        slope_pro = float(np.linalg.lstsq(design, np.log(e), rcond=None)[0][0])

        cbar = constants.c_bar
        lo = problem.strict_point[0] - constants.ball_radius
        hi = problem.strict_point[0] + constants.ball_radius

        def supinf_gap(x_bar, y_bar):
            xb, yb = float(x_bar[0]), float(y_bar[0])
            sup = abs(xb) + cbar * max(float(problem.g(np.array([xb]))[0]), 0.0)
            inner = lambda t: abs(t) + yb * float(problem.g(np.array([t]))[0])
            best = minimize_scalar(inner, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12}).fun
            best = min(best, inner(0.0), inner(lo), inner(hi))
            return sup - best

        snaps = []
        apd_baseline(problem, constants, SolverConfig(variant="apd", max_iters=1000),
                     np.zeros(1), np.zeros(1), observer=snaps.append)
        y_acc = np.zeros(1)
        gaps = {}
        for s in snaps:
            y_acc = y_acc + s.t * s.y
            gaps[s.k + 1] = max(supinf_gap(s.x_bar_next, y_acc / s.T_next), 1e-300)
        g = np.array([gaps[k] for k in ks])
        slope_apd = float(np.linalg.lstsq(design, np.log(g), rcond=None)[0][0])

        elapsed = time.monotonic() - start
        # With c_bar within 1e-3 of y*, the baseline's gap falls at slope about -2.1 here, and at -3.8
        # should it run apdpro's rule; apdpro's error falls at about -25. The factor sits between.
        assert slope_pro <= -1.5
        assert slope_pro <= 8.0 * slope_apd
        assert elapsed < 60.0
        info["detail"] = f"last-iterate slope {slope_pro:.2f} <= -1.5 and <= 8 x " \
            f"baseline gap slope {slope_apd:.2f}, {elapsed:.1f}s"


def test_criterion_7_epoch_contraction(canonical):
    info = {}
    with _verdict(7, info):
        problem, constants, x_star, _ = canonical
        cfg = SolverConfig(variant="rapdpro", max_iters=2000, max_epochs=10)
        res = rapdpro(problem, constants, cfg, np.zeros(1), np.zeros(1))
        assert res.epochs >= 5
        checked = 0
        for s, x_start in res.epoch_starts:
            err = float((x_start - x_star) @ (x_start - x_star))
            if err <= 1e-8:
                break
            assert err <= constants.D_X ** 2 * 2.0 ** (-s)
            checked += 1
        assert checked >= 1
        info["detail"] = f"{res.epochs} epochs, contraction bound held at every start, " \
            f"below 1e-8 after {checked}"


def test_criterion_8_stage_contraction(canonical):
    info = {}
    with _verdict(8, info):
        problem, constants, x_star, _ = canonical
        cfg = SolverConfig(variant="msapd", max_epochs=6)
        res = msapd(problem, constants, cfg, np.zeros(1), np.zeros(1))
        assert res.epochs >= 6
        stage_ends = [x for _, x in res.epoch_starts[1:]] + [res.x_bar]
        assert len(stage_ends) >= 6
        for s, x_end in enumerate(stage_ends):
            err = float((x_end - x_star) @ (x_end - x_star))
            assert err <= 2.0 * constants.D_X ** 2 * 2.0 ** (-s)
        info["detail"] = f"stage-end ergodic error within 2x of D_X^2 2^-s over " \
            f"{len(stage_ends)} stages"


def test_criterion_9_active_set_identification(tmp_path):
    info = {}
    with _verdict(9, info):
        start = time.monotonic()
        path = write_edge_list(tmp_path / "star20.txt", star_edges(20))
        graph = load_graph(path)
        probe = build_ppr_problem(graph, alpha=0.4, b=-1e-12, s="seed:1")
        v_min = float(probe.g(probe.strict_point)[0]) - 1e-12
        spec = InstanceSpec(kind="graph", path=path, alpha=0.4, b=0.95 * v_min, s="seed:1")
        bundle = build_instance(spec)
        reference = get_reference(bundle, ExperimentConfig(spec, SolverConfig(), reference_mode="long-run"))

        def first_reach(variant, runner, cfg):
            recorder = make_recorder(bundle.problem, variant, cfg, reference,
                                     threshold=1e-6)
            res = runner(bundle.problem, bundle.constants, cfg,
                         np.zeros(bundle.problem.n), np.zeros(bundle.problem.m),
                         recorder=recorder)
            accs = np.array([r.active_set_acc for r in res.trace])
            hits = np.nonzero(accs >= 1.0)[0]
            if hits.size == 0:
                return None, None
            return res.trace[hits[0]].iter, bool(np.all(accs[hits[0]:] >= 1.0))

        fast, fast_stays = first_reach(
            "rapdpro", rapdpro, SolverConfig(variant="rapdpro", max_iters=6000, max_epochs=8))
        slow, _ = first_reach(
            "apd", apd_baseline, SolverConfig(variant="apd", max_iters=40000))
        elapsed = time.monotonic() - start
        assert fast is not None and fast_stays
        assert slow is None or slow > fast
        assert elapsed < 120.0
        slow_txt = "never within 40000" if slow is None else f"iteration {slow}"
        info["detail"] = f"restarted solver identifies at iteration {fast} and holds; " \
            f"baseline at {slow_txt}; {elapsed:.1f}s"


def test_criterion_10_ppr_constants(tmp_path):
    info = {}
    with _verdict(10, info):
        path = write_edge_list(tmp_path / "p2.txt", [(0, 1)])
        problem = build_ppr_problem(load_graph(path), alpha=0.5, b=-0.05)
        cols = np.column_stack([q_times(problem, e)[:, 0] for e in np.eye(2)])
        assert np.allclose(cols, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-15)
        lam_min, lam_max = np.linalg.eigvalsh(ppr_q_dense(2, [(0, 1)], 0.5))[[0, -1]]
        assert lam_min == pytest.approx(0.5, abs=1e-15) and lam_max == pytest.approx(1.0, abs=1e-15)
        assert problem.mu[0] == pytest.approx(lam_min, abs=1e-8)
        assert lam_max <= problem.L_X == pytest.approx(lam_max, abs=1e-8)
        rng = np.random.default_rng(110)
        h = 1e-6
        for _ in range(20):
            x = rng.normal(scale=0.5, size=2)
            grad = problem.jac(x)[:, 0]
            fd = np.array([
                (problem.g(x + h * e)[0] - problem.g(x - h * e)[0]) / (2 * h)
                for e in np.eye(2)
            ])
            assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))
        info["detail"] = "Q exact, mu and L_X within 1e-8 of the dense spectrum, gradients within 1e-6"


def test_criterion_11_determinism(tmp_path):
    info = {}
    with _verdict(11, info):
        def run(name):
            out = str(tmp_path / name)
            run_experiment(ExperimentConfig(
                instance=InstanceSpec(kind="synthetic", n=1, center=2.0, level=1.0),
                solver=SolverConfig(variant="apdpro", max_iters=500),
                reference_mode="oracle",
                output_path=out,
            ))
            rows = pathlib.Path(out).read_text(encoding="utf-8").splitlines()
            return [r.rsplit(",", 1)[0] for r in rows]

        first, second = run("a.csv"), run("b.csv")
        assert len(first) == 501
        assert first == second
        info["detail"] = "two 500-iteration traces identical modulo elapsed_s"
