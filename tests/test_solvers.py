"""Solver loops: step-size engine, budgets, invariants, variant semantics."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apdpro import solvers
from apdpro.bench import make_recorder
from apdpro.linalg import NumericalError
from apdpro.pagerank import make_synthetic_instance
from apdpro.problem import BlockNormObjective, ConstrainedProblem, derive_constants
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
    _all_finite,
    _epoch_budget,
    _stage_budget,
)


def _run(canonical, variant, runner, observer=None, recorder=None, f_star=None, **kw):
    problem, constants, _, _ = canonical
    cfg = SolverConfig(variant=variant, **kw)
    return runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m),
                  observer=observer, recorder=recorder, f_star=f_star)


ENTRY_POINTS = (("apdpro", apdpro), ("rapdpro", rapdpro), ("msapd", msapd), ("apd", apd_baseline))


# -- step-size engine ---------------------------------------------------------

def test_stepsize_update_values():
    assert stepsize_update(1.0, 1.0, 3.0) == (0.5, 2.0)
    assert stepsize_update(0.5, 2.0, 6.0) == (0.25, 4.0)


def test_stepsize_update_zero_rho_is_exact_identity():
    tau, sigma = 0.1234567890123, 3.14159
    assert stepsize_update(tau, sigma, 0.0) == (tau, sigma)


_STEP = st.floats(min_value=1e-12, max_value=1e12)


@settings(max_examples=300, deadline=None)
@given(tau=_STEP, sigma=_STEP, rho=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e12)))
def test_stepsize_update_preserves_product(tau, sigma, rho):
    """Floats in, floats out (the loop's scalars stay Python floats), tau*sigma kept to 1e-15."""
    tau2, sigma2 = stepsize_update(tau, sigma, rho)
    assert type(tau2) is float and type(sigma2) is float
    assert tau2 <= tau
    exact = Fraction(tau) * Fraction(sigma)
    assert abs(Fraction(tau2) * Fraction(sigma2) - exact) <= Fraction(1e-15) * exact


def test_epoch_budget_value():
    # rho_hat = 3, the seed 3*sqrt(rho/tau0) for rho = tau0 = 1.
    assert _epoch_budget(3.0, 0, 1.0, 1.0, 1.0, 1.0) == 2  # max(6/3, sqrt(2)) rounded up
    assert _epoch_budget(3.0, 2, 1.0, 1.0, 1.0, 1.0) == 3  # max(2, 2*sqrt(2)) rounded up
    assert _epoch_budget(0.0, 0, 1.0, 1.0, 1.0, 1.0) == math.inf


def test_stage_budget_value():
    assert _stage_budget(1.0, 0, 1.0, 1.0, 1.0, 1.0) == 4  # max(4, 2)
    assert _stage_budget(0.0, 0, 1.0, 1.0, 1.0, 1.0) == math.inf


def test_default_step_sizes(canonical):
    _, constants, _, _ = canonical
    # L_XY = c_bar = 1 + sqrt(2)/2 and L_G^2 = 2.42 (up to rounding, hence approx, not ==);
    # the balancing sigma0 makes tau0 = 1/(2 L_XY).
    l_xy = 1.0 + math.sqrt(2.0) / 2.0
    tau0, sigma0 = default_step_sizes(constants)
    assert tau0 == pytest.approx(1.0 / (2.0 * l_xy), rel=1e-14)
    assert sigma0 == pytest.approx(l_xy / 2.42, rel=1e-14)
    tau0, sigma0 = default_step_sizes(constants, sigma0=0.5)
    assert sigma0 == 0.5
    assert tau0 == pytest.approx(1.0 / (l_xy + 1.21), rel=1e-14)


def test_metric_iterate_convention():
    assert resolve_metric_iterate("apdpro") == "last"
    assert resolve_metric_iterate("rapdpro") == "last"
    assert resolve_metric_iterate("msapd") == "ergodic"
    assert resolve_metric_iterate("apd") == "ergodic"
    assert resolve_metric_iterate("apd_restart") == "ergodic"


def test_config_validation():
    for bad in (
        dict(variant="nope"),
        dict(max_iters=-1),
        dict(max_epochs=-1),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # Checked when the config is built, so a bad value never reaches the loop.
    for name, values in (
        ("tolerance", (-1.0, math.nan, math.inf)),
        ("restart_period", (0.5, 0.0, -1.0, math.nan)),
    ):
        for value in values:
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
    SolverConfig(tolerance=0.0, restart_period=1)
    SolverConfig(restart_period=math.inf)


def test_fractional_budgets_are_rejected_when_the_config_is_built():
    """A budget of 2.5 once left 0.5 iterations that int() ran as empty segments forever,
    and max_iters = inf overflowed; a fractional period quietly ran as its floor."""
    for name, value in (("max_iters", 2.5), ("max_iters", math.inf), ("max_iters", math.nan),
                        ("max_iters", True), ("max_epochs", 1.5), ("max_epochs", 2.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            SolverConfig(variant="apd", **{name: value})
    for value in (2.5, 1.0000001):
        with pytest.raises(ValueError, match="^restart_period must be an integer >= 1 or inf"):
            SolverConfig(variant="apd_restart", restart_period=value)
    for period in (1, 2.0, np.int64(3), math.inf):  # the INI reads the period as a float
        SolverConfig(variant="apd_restart", max_iters=np.int64(7), max_epochs=np.int32(2), restart_period=period)


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
    # x0 = 0 lies outside the ball [2 - 1.1 sqrt(2), 2 + 1.1 sqrt(2)]: the start is its projection,
    # not the last iterate
    assert s == 0 and x_start[0] == pytest.approx(2.0 - 1.1 * math.sqrt(2.0), rel=1e-15) and res.x[0] > 0.5
    res = apdpro(problem, constants, SolverConfig(max_iters=100), np.array([100.0]), np.zeros(1))
    [(s, x_start)] = res.epoch_starts
    assert s == 0
    assert x_start[0] == pytest.approx(problem.strict_point[0] + constants.ball_radius, rel=1e-15)


def test_zero_iterations_is_a_no_op(canonical):
    problem, constants, _, _ = canonical
    res = _run(canonical, "apdpro", apdpro, max_iters=0)
    assert np.array_equal(res.x, problem.strict_point - constants.ball_radius)  # x0 = 0, projected on the ball
    assert np.array_equal(res.y, [0.0])
    assert res.trace == []
    assert res.termination == "completed"


def test_apdpro_step_and_cut_invariants(canonical):
    problem, constants, x_star, y_star = canonical
    snaps = []
    res = _run(canonical, "apdpro", apdpro, observer=snaps.append, max_iters=300)
    tau0, sigma0 = default_step_sizes(constants)
    lxy, lg2 = constants.L_XY, constants.L_G**2
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
        assert np.linalg.norm(s.x_next - problem.strict_point) <= constants.ball_radius + 1e-10
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


@pytest.mark.parametrize("variant, runner", ENTRY_POINTS)
def test_trace_step_sizes_and_rho_are_python_floats(canonical, small_graph, variant, runner):
    """A numpy scalar among the loop's scalars would slow every iteration without changing a value."""
    configs = (
        SolverConfig(variant=variant, max_iters=40, max_epochs=2),
        # a numpy scalar given for the config's tolerance is stored as a float
        SolverConfig(variant=variant, max_iters=40, max_epochs=2, tolerance=np.float64(0.0)),
    )
    assert type(configs[1].tolerance) is float
    for problem, constants in (canonical[:2], small_graph):
        for cfg in configs:
            res = runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
            assert res.trace
            for rec in res.trace:
                assert (type(rec.rho), type(rec.tau), type(rec.sigma)) == (float, float, float)


def test_out_of_set_starts_are_projected(canonical):
    problem, constants, _, _ = canonical
    snaps = []
    cfg = SolverConfig(variant="apdpro", max_iters=1)
    apdpro(problem, constants, cfg, np.array([100.0]), np.array([50.0]), observer=snaps.append)
    assert np.linalg.norm(snaps[0].x - problem.strict_point) <= constants.ball_radius + 1e-12
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
    res = _run(canonical, "apdpro", apdpro, max_iters=5000, tolerance=1e-8)
    assert res.termination == "tolerance"


# -- baseline and restart variants ---------------------------------------------

def test_baseline_keeps_steps_constant_and_weights_uniform(canonical):
    snaps = []
    _run(canonical, "apd", apd_baseline, observer=snaps.append, max_iters=100)
    tau0, sigma0 = snaps[0].tau, snaps[0].sigma
    assert tau0 == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)), rel=1e-14)  # 1/(2 L_XY)
    assert all(s.tau == tau0 and s.sigma == sigma0 and s.t == 1.0 for s in snaps)
    assert all(s.rho == 0.0 and s.rho_next == 0.0 for s in snaps)


def test_infinite_restart_period_is_plain_apd(canonical):
    plain = _run(canonical, "apd", apd_baseline, max_iters=200)
    restarted = _run(canonical, "apd_restart", apd_baseline, max_iters=200,
                     restart_period=math.inf)
    assert np.array_equal(plain.x, restarted.x)
    assert np.array_equal(plain.x_bar, restarted.x_bar)
    assert np.array_equal(plain.y_bar, restarted.y_bar)


@pytest.mark.parametrize("variant, runner", [*ENTRY_POINTS, ("apd_restart", apd_baseline)])
def test_one_start_and_one_budget_per_epoch(canonical, variant, runner):
    """Every epoch, stage or restart segment leaves one start and one budget; rapdpro's and
    msapd's budget is the N_s their rule set last, the other variants have none."""
    res = _run(canonical, variant, runner, max_iters=200, max_epochs=3, restart_period=50)
    assert res.epochs == len(res.epoch_starts) == len(res.epoch_budgets), variant
    assert [s for s, _ in res.epoch_starts] == list(range(res.epochs))
    if variant in ("rapdpro", "msapd"):
        assert res.epochs >= 2 and all(math.isfinite(b) for b in res.epoch_budgets), variant
    else:
        assert res.epoch_budgets == [math.inf] * (4 if variant == "apd_restart" else 1), variant


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
    # sigma_bar = delta*L_XY/L_G^2; tau_bar = (1-nu0)/(L_XY + L_G^2 sigma_bar/delta) = 0.75/(2 L_XY),
    # with L_XY = 1 + sqrt(2)/2 and L_G^2 = 2.42
    l_xy = 1.0 + math.sqrt(2.0) / 2.0
    sigma_bar = 0.5 * constants.L_XY / constants.L_G**2
    assert snaps[0].sigma == sigma_bar
    assert snaps[0].sigma == pytest.approx(0.5 * l_xy / 2.42, rel=1e-14)
    assert snaps[0].tau == pytest.approx(0.75 / (2.0 * l_xy), rel=1e-14)


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
    lg2 = constants.L_G**2
    sigma_tilde = constants.L_XY / lg2
    for s in (0, 1, 2):
        first = next(sn for sn in snaps if sn.epoch == s)
        sigma_s = sigma_tilde * 2.0 ** (0.5 * s)
        assert first.sigma == sigma_s
        assert first.sigma == pytest.approx((1.0 + math.sqrt(2.0) / 2.0) / 2.42 * 2.0 ** (0.5 * s), rel=1e-14)
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

    counted = dataclasses.replace(problem, constraints=constraints, jacobian=jacobian)
    calls.update(g=0, jac=0)  # forget the structure check's calls at construction
    return counted


def _generic(problem):
    """The problem without its quadratic structure: the callable-oracle path."""
    return dataclasses.replace(problem, quadratic=None)


def _calls_per_iteration(problem, constants, variant, runner, use_bench_recorder, **kw):
    """(G calls, J calls) between consecutive iterations of one epoch (observer to observer)."""
    calls = {"g": 0, "jac": 0}
    counted = _counted(problem, calls)
    cfg = SolverConfig(variant=variant, **kw)
    recorder = make_recorder(counted, variant, cfg, None) if use_bench_recorder else None
    marks = []
    runner(counted, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), recorder=recorder,
           observer=lambda sn: marks.append((sn.epoch, calls["g"], calls["jac"])))
    return [(g1 - g0, j1 - j0) for (e0, g0, j0), (e1, g1, j1) in zip(marks, marks[1:]) if e0 == e1]


# (G calls, J calls) per iteration on the generic path, without and with a KKT stop.
GENERIC_CALLS = {
    "none": {"apdpro": (1, 2), "rapdpro": (1, 2), "msapd": (2, 2), "apd": (2, 1)},
    "kkt": {"apdpro": (1, 2), "rapdpro": (1, 2), "msapd": (2, 2), "apd": (2, 2)},
}


@pytest.mark.parametrize("instance", ["canonical", "small_graph"])
@pytest.mark.parametrize("use_bench_recorder", [False, True])
@pytest.mark.parametrize("stop", ["none", "kkt"])
def test_oracle_calls_per_iteration(instance, use_bench_recorder, stop, request):
    """Generic path: G and J once at x_{k+1}, plus J at x_bar_k for h2 in the estimating variants.

    The ergodic-metric variants (msapd, apd) also evaluate G at x_bar_{k+1}
    for the record. A KKT stop reuses that G and adds J(x_bar_{k+1}), which
    msapd's h2 reuses at the next iteration. The 30-node graph runs with its
    quadratic structure dropped.
    """
    problem, constants = request.getfixturevalue(instance)[:2]
    problem = _generic(problem)
    # A KKT target the runs never reach, so the stop test runs on every iteration.
    kw = dict(max_iters=60, max_epochs=3, tolerance=1e-300 if stop == "kkt" else 0.0)
    for variant, runner in ENTRY_POINTS:
        calls = _calls_per_iteration(problem, constants, variant, runner, use_bench_recorder, **kw)
        assert len(calls) > 20 and set(calls) == {GENERIC_CALLS[stop][variant]}, variant


@pytest.mark.parametrize("use_bench_recorder", [False, True])
@pytest.mark.parametrize("stop", ["none", "kkt"])
def test_quadratic_problems_make_one_jacobian_call_per_iteration(small_graph, use_bench_recorder, stop):
    """With quadratic structure G comes from J, and J(x_bar) from the running average J_bar."""
    problem, constants = small_graph
    kw = dict(max_iters=60, max_epochs=3, tolerance=1e-300 if stop == "kkt" else 0.0)
    for variant, runner in ENTRY_POINTS:
        calls = _calls_per_iteration(problem, constants, variant, runner, use_bench_recorder, **kw)
        assert len(calls) > 20 and set(calls) == {(0, 1)}, variant


def test_non_finite_constraint_value_raises(canonical):
    problem, constants, _, _ = canonical
    counted = _counted(problem, {"g": 0, "jac": 0}, nan_after=4)
    # One call at x_0, then one per iteration: the fifth is G(x_4).
    with pytest.raises(NumericalError, match=r"constraint value G\(x_\{k\+1\}\) at iteration 4"):
        apdpro(counted, constants, SolverConfig(max_iters=50), np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("variant, runner", [("apd", apd_baseline), ("msapd", msapd)])
def test_non_finite_constraint_value_at_x_bar_raises(canonical, variant, runner):
    """G(x_0), G(x_1), then the first record's G(x_bar_1): a nan there alone, under a gap stop
    (max(rel_gap, nan) is rel_gap), would otherwise reach the trace unnoticed."""
    problem, constants, x_star, _ = canonical
    g, calls = problem.constraints, []

    def constraints(x):
        calls.append(None)
        return np.full(1, np.nan) if len(calls) == 3 else g(x)

    broken = dataclasses.replace(problem, constraints=constraints)
    cfg = SolverConfig(variant=variant, max_iters=50, tolerance=1e-6)
    with pytest.raises(NumericalError, match=r"^non-finite constraint value G\(x_bar_\{k\+1\}\) at iteration 1$"):
        runner(broken, constants, cfg, np.zeros(1), np.zeros(1), f_star=problem.f(x_star))


def _jacobian_nan_from_call(problem, first_nan, last_nan=math.inf):
    """The problem with a Jacobian that returns nan on calls ``first_nan`` to ``last_nan``.

    On a problem with quadratic structure, call 1 is the structure check at
    construction; on the others, call 1 is J(x_0).
    """
    jac, calls = problem.jacobian, []

    def jacobian(x):
        calls.append(None)
        out = jac(x)
        return np.full_like(out, np.nan) if first_nan <= len(calls) <= last_nan else out

    return dataclasses.replace(problem, jacobian=jacobian)


def test_non_finite_jacobian_raises_on_the_quadratic_path(small_graph):
    problem, constants = small_graph
    # Call 2 is J(x_0) at loop entry, then one per iteration: the seventh is J(x_5).
    broken = _jacobian_nan_from_call(problem, 7)
    with pytest.raises(NumericalError, match=r"non-finite Jacobian J\(x_\{k\+1\}\) at iteration 5"):
        apdpro(broken, constants, SolverConfig(max_iters=50), np.zeros(problem.n), np.zeros(problem.m))


@pytest.mark.parametrize("runner, variant, first_nan, iteration", [
    (apdpro, "apdpro", 5, 2),  # J(x_0), then J(x_bar_k) and J(x_{k+1}) per iteration: call 5 is J(x_2)
    (apd_baseline, "apd", 5, 4),  # J(x_0), then J(x_{k+1}) per iteration: call 5 is J(x_4)
])
def test_non_finite_jacobian_raises_on_the_generic_path(canonical, runner, variant, first_nan, iteration):
    problem, constants, _, _ = canonical
    broken = _jacobian_nan_from_call(problem, first_nan)
    match = rf"non-finite Jacobian J\(x_\{{k\+1\}}\) at iteration {iteration}$"
    with pytest.raises(NumericalError, match=match):
        runner(broken, constants, SolverConfig(variant=variant, max_iters=50), np.zeros(1), np.zeros(1))


def test_non_finite_jacobian_at_x_bar_raises(canonical):
    """A nan J(x_bar_0) alone (call 2, for h2) would be dropped by max(h1, h2) if not checked."""
    problem, constants, _, _ = canonical
    broken = _jacobian_nan_from_call(problem, 2, last_nan=2)
    with pytest.raises(NumericalError, match=r"non-finite Jacobian J\(x_bar_k\) at iteration 0$"):
        apdpro(broken, constants, SolverConfig(max_iters=200), np.zeros(1), np.zeros(1))


def test_non_finite_jacobian_at_x_bar_raises_in_the_kkt_stop(canonical):
    """apd has no h2: the J(x_bar) a KKT stop evaluates is checked where it is evaluated."""
    problem, constants, _, _ = canonical
    # J(x_0), then J(x_{k+1}) and J(x_bar_{k+1}) per iteration: call 5 is J(x_bar_2), at the point
    # the record at iteration 2 has just evaluated G at, and named as the record names it.
    broken = _jacobian_nan_from_call(problem, 5, last_nan=5)
    cfg = SolverConfig(variant="apd", max_iters=50, tolerance=1e-300)
    with pytest.raises(NumericalError, match=r"^non-finite Jacobian J\(x_bar_\{k\+1\}\) at iteration 2$"):
        apd_baseline(broken, constants, cfg, np.zeros(1), np.zeros(1))


def _two_ball_problem():
    """A generic m = 2 instance: unit l1 objective on R^2, g_i(x) = ||x - c_i||^2/2 - 1 for
    c = (2, 0) and (2, 1), strict point (2, 0.5)."""
    centers = np.array([[2.0, 0.0], [2.0, 1.0]])

    def constraints(x):
        d = x - centers
        return 0.5 * np.einsum("ij,ij->i", d, d) - 1.0

    def jacobian(x):
        return (x - centers).T

    # L_X = sqrt(2): J(x) - J(x') has the column x - x' twice.
    problem = ConstrainedProblem(
        n=2, objective=BlockNormObjective(blocks=((0, 1), (1, 1)), weights=np.ones(2)), m=2,
        constraints=constraints, jacobian=jacobian, mu=np.ones(2), L_X=math.sqrt(2.0),
        r=1.0, strict_point=np.array([2.0, 0.5]),
    )
    return problem, derive_constants(problem, list(centers))


def test_non_finite_jacobian_at_x_bar_raises_with_two_constraints():
    """For m > 1 the h2 norm is an SVD, which raised LinAlgError on a nan J before the named check."""
    problem, constants = _two_ball_problem()
    # J(x_0), then J(x_bar_k) and J(x_{k+1}) per iteration: call 6 is J(x_bar_2).
    broken = _jacobian_nan_from_call(problem, 6, last_nan=6)
    with pytest.raises(NumericalError, match=r"non-finite Jacobian J\(x_bar_k\) at iteration 2$"):
        apdpro(broken, constants, SolverConfig(max_iters=200), np.zeros(2), np.zeros(2))
    res = apdpro(problem, constants, SolverConfig(max_iters=200), np.zeros(2), np.zeros(2))
    assert res.state.k == 200


def test_non_finite_jacobian_at_an_msapd_warm_start_raises(canonical):
    problem, constants, _, _ = canonical
    cfg = SolverConfig(variant="msapd", max_iters=40, max_epochs=1)
    calls, marks = {"g": 0, "jac": 0}, []
    msapd(_counted(problem, calls), constants, cfg, np.zeros(1), np.zeros(1),
          observer=lambda sn: marks.append((sn.epoch, sn.k, calls["jac"])))
    # Stage 1's first iteration has made one J call (x_bar_0, for h2) by its observer;
    # the call before it is J at the warm start.
    k, jac_calls = next((k, j) for epoch, k, j in marks if epoch == 1)
    broken = _jacobian_nan_from_call(problem, jac_calls - 1, last_nan=jac_calls - 1)
    with pytest.raises(NumericalError, match=rf"non-finite Jacobian J\(x_bar\) at warm start \(iteration {k}\)"):
        msapd(broken, constants, cfg, np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("instance", ["canonical", "small_graph"])
def test_restart_segments_reuse_the_oracle(instance, request):
    """A restart starts its segment at the last iterate, whose G and J are already known.

    Generic path: plain apd calls the oracle 3 times per iteration (G and J
    at x_{k+1}, G at x_bar_{k+1} for the ergodic record) plus G and J once at
    x_0; the nine restarts of apd_restart add nothing to that.
    """
    problem, constants = request.getfixturevalue(instance)[:2]
    problem = _generic(problem)
    totals = {}
    for variant in ("apd", "apd_restart"):
        calls = {"g": 0, "jac": 0}
        cfg = SolverConfig(variant=variant, max_iters=100, restart_period=10)
        res = apd_baseline(_counted(problem, calls), constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
        assert len(res.trace) == 100
        totals[variant] = calls["g"] + calls["jac"]
    assert totals == {"apd": 302, "apd_restart": 302}


def test_restart_segments_reuse_the_oracle_on_quadratic_problems(small_graph):
    """One J at x_0 and one per iteration, restarts or not, and no G call."""
    problem, constants = small_graph
    for variant in ("apd", "apd_restart"):
        calls = {"g": 0, "jac": 0}
        cfg = SolverConfig(variant=variant, max_iters=100, restart_period=10)
        res = apd_baseline(_counted(problem, calls), constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
        assert len(res.trace) == 100
        assert calls == {"g": 0, "jac": 101}, variant


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot:RuntimeWarning")  # 0 * inf
@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (8, 1), (8, 2)])
def test_all_finite_is_exact_at_every_position(shape):
    """G of m = 1, 2 and J of n = 1, 8: one nan or inf anywhere fails, the largest finite values pass."""
    zeros = np.zeros(math.prod(shape))
    for big in (1e308, -1e308, 5e-324):
        assert _all_finite(np.full(shape, big), zeros)
    for order in ("C", "F"):
        for bad in (math.nan, math.inf, -math.inf):
            for pos in np.ndindex(*shape):
                a = np.full(shape, 1e308, order=order)
                a[pos] = bad
                assert not _all_finite(a, zeros), (order, bad, pos)


@pytest.mark.parametrize("field, what", [("constraints", r"constraint value G\(x\)"), ("jacobian", r"Jacobian J\(x\)")])
def test_non_finite_oracle_at_entry_raises(canonical, field, what):
    problem, constants, _, _ = canonical
    x0 = np.array([0.5])  # inside the ball, so x0 itself is the start
    evaluate = getattr(problem, field)

    def nan_at_x0(x):
        out = np.asarray(evaluate(x), dtype=float)
        return np.full_like(out, np.nan) if np.array_equal(x, x0) else out

    broken = dataclasses.replace(problem, **{field: nan_at_x0})
    with pytest.raises(NumericalError, match=rf"non-finite {what} at entry \(iteration 0\)"):
        apdpro(broken, constants, SolverConfig(max_iters=5), x0, np.zeros(1))


def test_non_finite_jacobian_at_entry_raises_on_the_quadratic_path(small_graph):
    problem, constants = small_graph
    broken = _jacobian_nan_from_call(problem, 2)  # J(x_0) at loop entry
    with pytest.raises(NumericalError, match=r"non-finite Jacobian J\(x\) at entry \(iteration 0\)"):
        apdpro(broken, constants, SolverConfig(max_iters=5), np.zeros(problem.n), np.zeros(problem.m))


@pytest.mark.parametrize("variant, runner", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("point", ["x0", "y0"])
def test_non_finite_start_point_is_rejected(variant, runner, point, bad):
    """A nan y0 would be projected to 0 and run as if it were 0; a nan x0 would be reported as
    the oracle's fault. Both are the caller's, and the error names the argument."""
    problem, _, _ = make_synthetic_instance(3, np.array([2.0, -1.0, 0.5]), 1.0)
    constants = derive_constants(problem, [problem.strict_point])
    start = {"x0": np.zeros(3), "y0": np.zeros(1)}
    start[point][-1] = bad
    with pytest.raises(ValueError, match=rf"^{point} must be finite"):
        runner(problem, constants, SolverConfig(variant=variant, max_iters=5), start["x0"], start["y0"])


@pytest.mark.parametrize("variant, runner", ENTRY_POINTS)
# the generic path with m = 1 and m = 2, and the quadratic path
@pytest.mark.parametrize("instance", ["canonical", "two_ball", "small_graph"])
@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("layer, text, first_call", [
    pytest.param("prox_f_over_ball", r"x_\{k\+1\} from the prox", 1, id="prox"),
    # call 1 projects y0, at the start
    pytest.param("project_dual_set", r"y_\{k\+1\} from the dual projection", 2, id="projection"),
])
def test_a_non_finite_step_names_its_layer(monkeypatch, request, variant, runner, instance, k, layer, text,
                                           first_call):
    """A nan from the prox or the dual projection in step k is not reported as the oracle's at x_{k+1}."""
    problem, constants = _two_ball_problem() if instance == "two_ball" else request.getfixturevalue(instance)[:2]
    original, calls = getattr(solvers, layer), []

    def nan_in_step_k(*args):
        calls.append(None)
        out = original(*args)
        return np.full_like(out, np.nan) if len(calls) == first_call + k else out

    monkeypatch.setattr(solvers, layer, nan_in_step_k)
    with pytest.raises(NumericalError, match=rf"^non-finite {text} at iteration {k + 1}$"):
        runner(problem, constants, SolverConfig(variant=variant, max_iters=50), np.zeros(problem.n),
               np.zeros(problem.m))


# The oracle's cells of the fault matrix: (site, which call at the site after step k returns nan, the
# point named, instances, entry points). The quadratic path makes no constraints call, and only the
# ergodic variants evaluate G at x_bar_{k+1}, after G(x_{k+1}).
_ORACLE_FAULTS = (
    ("jacobian", 1, r"Jacobian J\(x_\{k\+1\}\)", ("canonical", "two_ball", "small_graph"), ENTRY_POINTS),
    ("constraints", 1, r"constraint value G\(x_\{k\+1\}\)", ("canonical", "two_ball"), ENTRY_POINTS),
    ("constraints", 2, r"constraint value G\(x_bar_\{k\+1\}\)", ("canonical", "two_ball"),
     (("msapd", msapd), ("apd", apd_baseline))),
)


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("site, nth, text, instance, variant, runner", [
    pytest.param(site, nth, text, instance, variant, runner, id=f"{site}-{'x_bar' if nth == 2 else 'x'}-{instance}-{variant}")
    for site, nth, text, instances, entries in _ORACLE_FAULTS
    for instance in instances
    for variant, runner in entries
])
def test_a_non_finite_oracle_value_names_its_point(request, k, site, nth, text, instance, variant, runner):
    """An observer arms the oracle at step k; its ``nth`` call at ``site`` after that returns nan."""
    problem, constants = _two_ball_problem() if instance == "two_ball" else request.getfixturevalue(instance)[:2]
    evaluate, left = getattr(problem, site), []  # left: calls to go at the site, once armed

    def oracle(x):
        out = np.asarray(evaluate(x), dtype=float)
        if left:
            left[0] -= 1
            if left[0] == 0:
                return np.full_like(out, np.nan)
        return out

    def arm(sn):
        if sn.k == k:
            left.append(nth)

    broken = dataclasses.replace(problem, **{site: oracle})
    cfg = SolverConfig(variant=variant, max_iters=50)
    with pytest.raises(NumericalError, match=rf"^non-finite {text} at iteration {k + 1}$"):
        runner(broken, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), observer=arm)


# -- quadratic structure ---------------------------------------------------------

def _assert_jac_bar_is_the_jacobian_at_x_bar(problem, res):
    jac = problem.jac(res.x_bar)
    assert np.max(np.abs(res.state.jac_bar - jac)) <= 1e-12 * np.max(np.abs(jac))


def test_running_jacobian_average_is_the_jacobian_at_x_bar(small_graph):
    problem, constants = small_graph
    res = apdpro(problem, constants, SolverConfig(max_iters=200), np.zeros(problem.n), np.zeros(problem.m))
    assert len(res.trace) == 200
    _assert_jac_bar_is_the_jacobian_at_x_bar(problem, res)


@pytest.mark.parametrize("variant", ["rapdpro", "apd", "apd_restart"])
def test_running_jacobian_average_survives_epochs_and_restart_segments(small_graph, variant):
    """J_bar is updated in place; each epoch or restart segment starts it afresh. With the two
    tests around this one, every variant is covered."""
    problem, constants = small_graph
    runner = rapdpro if variant == "rapdpro" else apd_baseline
    # rapdpro's first epoch budget here is 7775 iterations
    cfg = SolverConfig(variant=variant, max_iters=10000 if variant == "rapdpro" else 400, max_epochs=2,
                       restart_period=40)
    res = runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
    assert res.epochs >= (1 if variant == "apd" else 2), res.epochs
    _assert_jac_bar_is_the_jacobian_at_x_bar(problem, res)


def test_running_jacobian_average_survives_msapd_warm_starts(small_graph):
    problem, constants = small_graph
    cfg = SolverConfig(variant="msapd", max_iters=400, max_epochs=3)
    res = msapd(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
    assert res.epochs >= 3  # two warm starts inside the run
    _assert_jac_bar_is_the_jacobian_at_x_bar(problem, res)
