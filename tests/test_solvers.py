"""Solver loops: step-size engine, budgets, invariants, variant semantics."""

import dataclasses
import math

import numpy as np
import pytest

from apdpro.bench import InstanceSpec, build_instance, make_recorder
from apdpro.linalg import NumericalError
from apdpro.pagerank import build_ppr_problem, load_graph
from apdpro.solvers import (
    VARIANTS,
    SolverConfig,
    apd_baseline,
    apdpro,
    default_step_sizes,
    msapd,
    rapdpro,
    resolve_metric_iterate,
    stepsize_update,
    _epoch_budget,
    _stage_budget,
)
from helpers import path_edges, write_edge_list

SQRT2 = math.sqrt(2.0)


def _run(canonical, variant, runner, observer=None, recorder=None, f_star=None, **kw):
    problem, constants, _, _ = canonical
    cfg = SolverConfig(variant=variant, **kw)
    return runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m),
                  observer=observer, recorder=recorder, f_star=f_star)


# -- step-size engine ---------------------------------------------------------

def test_stepsize_update_values():
    assert stepsize_update(1.0, 1.0, 1.0, 3.0) == (0.5, 2.0, 2.0)
    assert stepsize_update(0.5, 2.0, 1.0, 6.0) == (0.25, 4.0, 4.0)


def test_stepsize_update_zero_rho_is_exact_identity():
    tau, sigma = 0.1234567890123, 3.14159
    out = stepsize_update(tau, sigma, 1.0, 0.0)
    assert out == (tau, sigma, sigma / 1.0)


def test_stepsize_update_preserves_product():
    rng = np.random.default_rng(1)
    for _ in range(200):
        tau, sigma, sigma0 = rng.uniform(0.01, 3.0, size=3)
        rho = float(rng.uniform(0.0, 5.0))
        tau2, sigma2, t2 = stepsize_update(tau, sigma, sigma0, rho)
        assert tau2 <= tau
        assert tau2 * sigma2 == pytest.approx(tau * sigma, rel=1e-14)
        assert t2 == pytest.approx(sigma2 / sigma0, rel=1e-15)


def test_epoch_budget_value():
    # rho_hat = 3, the seed 3*sqrt(rho/tau0) for rho = tau0 = 1.
    assert _epoch_budget(3.0, 0, 1.0, 1.0, 1.0, 1.0) == 2  # max(6/3, sqrt(2)) rounded up
    assert _epoch_budget(3.0, 2, 1.0, 1.0, 1.0, 1.0) == 3  # max(2, 2*sqrt(2)) rounded up
    assert _epoch_budget(0.0, 0, 1.0, 1.0, 1.0, 1.0) == math.inf


def test_stage_budget_value():
    assert _stage_budget(1.0, 0, 1.0, 1.0, 1.0, 1.0) == 4  # max(4, 2)
    assert _stage_budget(0.0, 0, 1.0, 1.0, 1.0, 1.0) == math.inf


def test_default_step_sizes(canonical):
    problem, constants, _, _ = canonical
    # L_G = 2*sqrt(2) squares to 8 only up to one ulp, hence approx, not ==.
    tau0, sigma0 = default_step_sizes(problem, constants)
    assert tau0 == pytest.approx(0.25, rel=1e-14)
    assert sigma0 == pytest.approx(0.25, rel=1e-14)
    tau0, sigma0 = default_step_sizes(problem, constants, sigma0=0.5)
    assert sigma0 == 0.5
    assert tau0 == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_metric_iterate_convention():
    assert resolve_metric_iterate("apdpro") == "last"
    assert resolve_metric_iterate("rapdpro") == "last"
    assert resolve_metric_iterate("msapd") == "ergodic"
    assert resolve_metric_iterate("apd") == "ergodic"
    assert resolve_metric_iterate("apd_restart") == "ergodic"
    assert resolve_metric_iterate("apd", "last") == "last"


def test_config_validation():
    for bad in (
        dict(variant="nope"),
        dict(nu0=0.0),
        dict(delta=1.0),
        dict(rho0=-1.0),
        dict(max_iters=-1),
        dict(record_every=0),
        dict(metric_iterate="weird"),
        dict(tolerance_metric="weird"),
        dict(forced_schedule=0),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


@pytest.mark.parametrize("runner, accepted", [
    (apdpro, {"apdpro"}),
    (rapdpro, {"rapdpro"}),
    (msapd, {"msapd"}),
    (apd_baseline, {"apd", "apd_restart"}),
])
def test_entry_points_reject_another_solvers_variant(canonical, runner, accepted):
    # Another variant's name would silently switch the metric iterate and the stop rule.
    for variant in set(VARIANTS) - accepted:
        with pytest.raises(ValueError, match="config.variant"):
            _run(canonical, variant, runner, max_iters=5, max_epochs=1)
    for variant in accepted:
        _run(canonical, variant, runner, max_iters=5, max_epochs=1)


def test_infeasible_step_sizes_rejected(canonical):
    # 1/0.3 < L_XY + L_G^2 sigma0 = 4 on the canonical instance.
    with pytest.raises(ValueError, match="infeasible"):
        _run(canonical, "apdpro", apdpro, tau0=0.3, max_iters=1)


# -- the adaptive run and its invariants ---------------------------------------

def test_apdpro_converges_on_canonical(canonical):
    _, _, x_star, _ = canonical
    res = _run(canonical, "apdpro", apdpro, max_iters=2000)
    assert res.termination == "completed"
    assert abs(res.x[0] - x_star[0]) <= 1e-4
    assert len(res.trace) == 2000


def test_apdpro_epoch_start_is_the_projected_start(canonical):
    problem, constants, _, _ = canonical
    res = _run(canonical, "apdpro", apdpro, max_iters=100)
    [(s, x_start)] = res.epoch_starts
    assert s == 0 and x_start[0] == 0.0 and res.x[0] > 0.5  # x0, not the last iterate
    res = apdpro(problem, constants, SolverConfig(max_iters=100), np.array([100.0]), np.zeros(1))
    [(s, x_start)] = res.epoch_starts
    assert s == 0
    assert x_start[0] == pytest.approx(constants.ball_center[0] + constants.ball_radius, rel=1e-15)


def test_zero_iterations_is_a_no_op(canonical):
    res = _run(canonical, "apdpro", apdpro, max_iters=0)
    assert np.array_equal(res.x, [0.0])
    assert np.array_equal(res.y, [0.0])
    assert res.trace == []
    assert res.termination == "completed"


def test_apdpro_step_and_cut_invariants(canonical):
    problem, constants, x_star, y_star = canonical
    snaps = []
    res = _run(canonical, "apdpro", apdpro, observer=snaps.append, max_iters=300)
    tau0, sigma0 = 0.25, 0.25
    lxy, lg2 = constants.L_XY, problem.L_G**2
    rho1 = snaps[0].rho_next
    rhohat1 = snaps[0].rho_hat_next
    assert rho1 > 0.0  # Improve runs from the very first iteration
    for s in snaps:
        # product preservation and the step-feasibility inequality
        assert s.tau * s.sigma == pytest.approx(tau0 * sigma0, rel=1e-12)
        assert lxy + lg2 * s.sigma <= 1.0 / s.tau + 1e-9
        # the two averaging-weight conditions behind the convergence bound
        t_next = s.sigma_next / sigma0
        assert t_next * (1.0 / s.tau_next - s.rho_next) <= s.t / s.tau + 1e-9
        assert t_next / s.sigma_next <= s.t / s.sigma + 1e-9
        # step decay tied to the rate coefficient, and the linear sigma cap
        j = s.k + 1
        assert 1.0 / s.tau_next**2 >= s.rho_hat_next**2 * j * j / 9.0 + 1.0 / tau0**2 - 1e-9
        assert s.sigma <= sigma0 * (s.k + 1) * (1.0 + 1e-12)
        assert s.rho_hat_next >= min(rho1, rhohat1) - 1e-12
        # monotone certified bound, below the dual cut cap and mu * ||y*||_1
        assert s.rho_next >= s.rho
        assert s.rho_next <= constants.mu_lb * constants.c_bar
        assert s.rho_next <= constants.mu_lb * abs(y_star[0]) + 1e-12
        # iterates stay in their sets
        assert np.linalg.norm(s.x_next - constants.ball_center) <= constants.ball_radius + 1e-10
        assert np.all(s.y_next >= 0.0)
        assert s.y_next.sum() <= constants.c_bar + 1e-12
        lower = min(s.rho, constants.mu_lb * constants.c_bar) / constants.mu_lb
        assert s.y_next.sum() >= lower - 1e-12
    assert res.state.rho_est.rho == snaps[-1].rho_next


def test_dual_bound_soundness_under_hypotheses(canonical):
    problem, constants, x_star, y_star = canonical
    y_norm = abs(y_star[0])
    snaps = []
    _run(canonical, "apdpro", apdpro, observer=snaps.append, max_iters=400)
    checked = 0
    for s in snaps:
        if np.linalg.norm(s.x - x_star) ** 2 <= 2.0 * s.beta:
            assert s.h1_val <= y_norm + 1e-12
            checked += 1
        if s.beta_bar is not None and not math.isinf(s.beta_bar):
            if y_norm * np.linalg.norm(s.x_bar - x_star) ** 2 <= 2.0 * s.beta_bar:
                assert s.h2_val <= y_norm + 1e-12
                checked += 1
    assert checked > 100  # the hypotheses do hold along the run


def test_ergodic_dual_average_uses_old_iterates(canonical):
    snaps = []
    res = _run(canonical, "apdpro", apdpro, observer=snaps.append, max_iters=50)
    total_t = sum(s.t for s in snaps)
    ybar = sum(s.t * s.y for s in snaps) / total_t
    assert np.allclose(res.y_bar, ybar, atol=1e-14)
    xbar = sum(s.t * s.x_next for s in snaps) / total_t
    assert np.allclose(res.x_bar, xbar, atol=1e-12)


def test_trace_reports_the_steps_used(canonical):
    snaps = []
    res = _run(canonical, "apdpro", apdpro, observer=snaps.append, max_iters=40)
    for rec, s in zip(res.trace, snaps):
        assert rec.iter == s.k + 1
        assert rec.tau == s.tau
        assert rec.sigma == s.sigma
        assert rec.rho == s.rho


def test_out_of_set_starts_are_projected(canonical):
    problem, constants, _, _ = canonical
    snaps = []
    cfg = SolverConfig(variant="apdpro", max_iters=1)
    apdpro(problem, constants, cfg, np.array([100.0]), np.array([50.0]), observer=snaps.append)
    assert np.linalg.norm(snaps[0].x - constants.ball_center) <= constants.ball_radius + 1e-12
    assert snaps[0].y.sum() <= constants.c_bar + 1e-12


def test_determinism_bitwise(canonical):
    r1 = _run(canonical, "apdpro", apdpro, max_iters=200)
    r2 = _run(canonical, "apdpro", apdpro, max_iters=200)
    assert np.array_equal(r1.x, r2.x)
    assert [t.objective for t in r1.trace] == [t.objective for t in r2.trace]
    assert [t.tau for t in r1.trace] == [t.tau for t in r2.trace]


def test_tolerance_stop_on_gap(canonical):
    problem, _, x_star, _ = canonical
    res = _run(canonical, "apdpro", apdpro, max_iters=5000, tolerance=1e-6,
               f_star=problem.f(x_star))
    assert res.termination == "tolerance"
    assert len(res.trace) < 5000


def test_tolerance_stop_on_kkt(canonical):
    res = _run(canonical, "apdpro", apdpro, max_iters=5000, tolerance=1e-8,
               tolerance_metric="kkt")
    assert res.termination == "tolerance"


def test_record_every_thins_the_trace(canonical):
    res = _run(canonical, "apdpro", apdpro, max_iters=200, record_every=10)
    assert len(res.trace) == 20
    assert [r.iter for r in res.trace] == list(range(10, 201, 10))


# -- baseline and restart variants ---------------------------------------------

def test_disabled_estimator_is_the_baseline_bitwise(canonical):
    pro = _run(canonical, "apdpro", apdpro, max_iters=300, disable_estimator=True, rho0=0.0)
    base = _run(canonical, "apd", apd_baseline, max_iters=300)
    assert np.array_equal(pro.x, base.x)
    assert np.array_equal(pro.x_bar, base.x_bar)
    assert np.array_equal(pro.y, base.y)
    assert np.array_equal(pro.y_bar, base.y_bar)


def test_baseline_keeps_steps_constant_and_weights_uniform(canonical):
    snaps = []
    _run(canonical, "apd", apd_baseline, observer=snaps.append, max_iters=100)
    tau0, sigma0 = snaps[0].tau, snaps[0].sigma
    assert tau0 == pytest.approx(0.25, rel=1e-14)
    assert all(s.tau == tau0 and s.sigma == sigma0 and s.t == 1.0 for s in snaps)
    assert all(s.rho == 0.0 and s.rho_next == 0.0 for s in snaps)


def test_infinite_restart_period_is_plain_apd(canonical):
    plain = _run(canonical, "apd", apd_baseline, max_iters=200)
    restarted = _run(canonical, "apd_restart", apd_baseline, max_iters=200,
                     restart_period=math.inf)
    assert np.array_equal(plain.x, restarted.x)
    assert np.array_equal(plain.x_bar, restarted.x_bar)
    assert np.array_equal(plain.y_bar, restarted.y_bar)


def test_restart_segments_recentre_the_averages(canonical):
    res = _run(canonical, "apd_restart", apd_baseline, max_iters=200, restart_period=50)
    assert res.epochs == 4
    assert [s for s, _ in res.epoch_starts] == [0, 1, 2, 3]
    assert len(res.trace) == 200


# -- restarted adaptive scheme ---------------------------------------------------

def test_rapdpro_epoch_zero_uses_the_conservative_steps(canonical):
    problem, constants, _, _ = canonical
    snaps = []
    _run(canonical, "rapdpro", rapdpro, observer=snaps.append, max_iters=5, max_epochs=0)
    # sigma_bar = delta*L_XY/L_G^2 = 0.125; tau_bar = (1-nu0)/(L_XY + L_G^2 sigma_bar/delta)
    sigma_bar = 0.5 * constants.L_XY / problem.L_G**2
    assert snaps[0].sigma == sigma_bar
    assert snaps[0].sigma == pytest.approx(0.125, rel=1e-14)
    assert snaps[0].tau == pytest.approx(0.1875, rel=1e-14)


def test_rapdpro_rejects_oversized_tau(canonical):
    with pytest.raises(ValueError, match="tau0 too large"):
        _run(canonical, "rapdpro", rapdpro, tau0=0.5, max_iters=10, max_epochs=0)


def test_rapdpro_epoch_contraction(canonical):
    _, constants, x_star, _ = canonical
    res = _run(canonical, "rapdpro", rapdpro, max_iters=2000, max_epochs=10)
    assert res.termination == "completed"
    assert res.epochs == 11
    assert len(res.epoch_budgets) == 11
    assert all(math.isfinite(b) for b in res.epoch_budgets)
    for s, xs in res.epoch_starts:
        err = float(np.linalg.norm(xs - x_star) ** 2)
        if err <= 1e-8:
            break
        assert err <= constants.D_X**2 * 2.0 ** (-s)
    assert len(res.trace) == sum(1 for _ in res.trace)  # records in order, one per iteration
    assert [r.iter for r in res.trace] == list(range(1, len(res.trace) + 1))


def test_rapdpro_budget_exhaustion_is_reported(canonical):
    # Epoch budgets on the canonical instance exceed 50 from the start.
    res = _run(canonical, "rapdpro", rapdpro, max_iters=50, max_epochs=30)
    assert res.termination == "budget"
    assert res.epochs < 31


# -- multi-stage scheme ----------------------------------------------------------

def test_msapd_stage_step_sizes(canonical):
    problem, constants, _, _ = canonical
    snaps = []
    _run(canonical, "msapd", msapd, observer=snaps.append, max_iters=4000, max_epochs=2)
    lg2 = problem.L_G**2
    sigma_tilde = constants.L_XY / lg2
    for s in (0, 1, 2):
        first = next(sn for sn in snaps if sn.epoch == s)
        sigma_s = sigma_tilde * 2.0 ** (0.5 * s)
        assert first.sigma == sigma_s
        assert first.sigma == pytest.approx(0.25 * 2.0 ** (0.5 * s), rel=1e-14)
        assert first.tau == pytest.approx(1.0 / (constants.L_XY + lg2 * sigma_s), rel=1e-15)
        # constant within the stage
        last = [sn for sn in snaps if sn.epoch == s][-1]
        assert last.sigma == first.sigma and last.tau == first.tau


def test_msapd_stage_contraction(canonical):
    _, constants, x_star, _ = canonical
    res = _run(canonical, "msapd", msapd, max_iters=4000, max_epochs=6)
    assert res.termination == "completed"
    assert res.epochs == 7
    for s, xs in res.epoch_starts:
        err = float(np.linalg.norm(xs - x_star) ** 2)
        if err <= 1e-8:
            break
        assert err <= constants.D_X**2 * 2.0 ** (-s)


def test_msapd_forced_schedule_budgets(canonical):
    res = _run(canonical, "msapd", msapd, max_iters=4000, max_epochs=3, forced_schedule=10)
    assert res.epoch_budgets == [10, 15, 20, 29]  # ceil(10 * sqrt(2)^s)
    assert len(res.trace) == 74
    snaps = []
    _run(canonical, "msapd", msapd, observer=snaps.append, max_iters=4000,
         max_epochs=1, forced_schedule=5)
    tau0, sigma_tilde = snaps[0].tau, snaps[0].sigma
    stage1 = next(sn for sn in snaps if sn.epoch == 1)
    assert stage1.tau == pytest.approx(tau0 / SQRT2, rel=1e-15)
    assert stage1.sigma == pytest.approx(sigma_tilde * SQRT2, rel=1e-15)


# -- oracle reuse ----------------------------------------------------------------

def _counted(problem, calls, nan_after=None):
    """The problem with its constraint oracle counting calls into ``calls``."""
    g, jac = problem.constraints, problem.jacobian

    def constraints(x):
        calls["g"] += 1
        if nan_after is not None and calls["g"] > nan_after:
            return np.full(problem.m, np.nan)
        return g(x)

    def jacobian(x):
        calls["jac"] += 1
        return jac(x)

    return dataclasses.replace(problem, constraints=constraints, jacobian=jacobian)


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    """A generated 30-node graph instance: a path plus random chords."""
    rng = np.random.default_rng(5)
    edges = path_edges(30) + [tuple(map(int, e)) for e in rng.integers(0, 30, size=(60, 2)) if e[0] != e[1]]
    path = write_edge_list(tmp_path_factory.mktemp("graph") / "g30.txt", edges)
    probe = build_ppr_problem(load_graph(path), alpha=0.2, b=-1e-12)
    b = 0.5 * (probe.problem.g(probe.x_tilde)[0] - 1e-12)
    bundle = build_instance(InstanceSpec(kind="graph", path=path, alpha=0.2, b=b))
    return bundle.problem, bundle.constants


def _calls_per_iteration(problem, constants, variant, runner, use_bench_recorder, **kw):
    """Oracle calls between consecutive iterations of one epoch (observer to observer)."""
    calls = {"g": 0, "jac": 0}
    counted = _counted(problem, calls)
    cfg = SolverConfig(variant=variant, **kw)
    recorder = make_recorder(counted, variant, cfg, None) if use_bench_recorder else None
    marks = []
    runner(counted, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), recorder=recorder,
           observer=lambda sn: marks.append((sn.epoch, calls["g"] + calls["jac"])))
    return [b - a for (ea, a), (eb, b) in zip(marks, marks[1:]) if ea == eb]


@pytest.mark.parametrize("instance", ["canonical", "small_graph"])
@pytest.mark.parametrize("use_bench_recorder", [False, True])
@pytest.mark.parametrize("stop", ["none", "kkt"])
def test_oracle_calls_per_iteration(instance, use_bench_recorder, stop, request):
    """G and J once at x_{k+1}, J once at x_bar_k (h2), and nothing more at the last iterate.

    The ergodic-metric variants also evaluate G at x_bar_{k+1} for the record
    (and G and J there for a KKT stop); no cached value exists at that point.
    """
    problem, constants = request.getfixturevalue(instance)[:2]
    # A KKT target the runs never reach, so the stop test runs on every iteration.
    kw = dict(max_iters=60, max_epochs=3, tolerance=1e-300 if stop == "kkt" else 0.0, tolerance_metric="kkt")
    for variant, runner in (("apdpro", apdpro), ("rapdpro", rapdpro)):
        per_iter = _calls_per_iteration(problem, constants, variant, runner, use_bench_recorder, **kw)
        assert len(per_iter) > 20 and max(per_iter) <= 3, variant
    if stop == "none":
        per_iter = _calls_per_iteration(problem, constants, "msapd", msapd, use_bench_recorder, **kw)
        assert len(per_iter) > 20 and max(per_iter) <= 4
        per_iter = _calls_per_iteration(problem, constants, "apd", apd_baseline, use_bench_recorder, **kw)
        assert len(per_iter) == 59 and set(per_iter) == {3}


def test_non_finite_constraint_value_raises(canonical):
    problem, constants, _, _ = canonical
    counted = _counted(problem, {"g": 0, "jac": 0}, nan_after=4)
    # One call at loop entry (x_prev = x_0 reuses it), then one per iteration: the fifth is G(x_4).
    with pytest.raises(NumericalError, match=r"constraint value G\(x_\{k\+1\}\) at iteration 4"):
        apdpro(counted, constants, SolverConfig(max_iters=50), np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("instance", ["canonical", "small_graph"])
def test_restart_segments_reuse_the_oracle(instance, request):
    """A restart starts its segment at the last iterate, whose G and J are already known.

    Plain apd calls the oracle 3 times per iteration (G and J at x_{k+1}, G
    at x_bar_{k+1} for the ergodic record) plus G and J once at x_0; the
    nine restarts of apd_restart add nothing to that.
    """
    problem, constants = request.getfixturevalue(instance)[:2]
    totals = {}
    for variant in ("apd", "apd_restart"):
        calls = {"g": 0, "jac": 0}
        cfg = SolverConfig(variant=variant, max_iters=100, restart_period=10)
        res = apd_baseline(_counted(problem, calls), constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
        assert len(res.trace) == 100
        totals[variant] = calls["g"] + calls["jac"]
    assert totals["apd_restart"] == totals["apd"] <= 303


@pytest.mark.parametrize("field, what", [("constraints", r"constraint value G\(x\)"), ("jacobian", r"Jacobian J\(x\)")])
def test_non_finite_oracle_at_entry_raises(canonical, field, what):
    problem, constants, _, _ = canonical
    x0 = np.zeros(problem.n)
    evaluate = getattr(problem, field)

    def nan_at_x0(x):
        out = np.asarray(evaluate(x), dtype=float)
        return np.full_like(out, np.nan) if np.array_equal(x, x0) else out

    broken = dataclasses.replace(problem, **{field: nan_at_x0})
    with pytest.raises(NumericalError, match=rf"non-finite {what} at entry \(iteration 0\)"):
        apdpro(broken, constants, SolverConfig(max_iters=5), x0, np.zeros(1))
