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
from apdpro.estimator import h1, h2
from apdpro.linalg import NumericalError
from apdpro.pagerank import make_synthetic_instance
from apdpro.problem import BlockNormObjective, ConstrainedProblem, derive_constants, jacobian_operator_norm
from helpers import CANONICAL_C_BAR, unequal_weights_problem
from oracles import epoch_budget_oracle, rho_hat_oracle
from apdpro.solvers import (
    VARIANTS,
    SolverConfig,
    apd_baseline,
    apdpro,
    default_step_sizes,
    msapd,
    rapdpro,
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
    # L_XY = c_bar (helpers.CANONICAL_C_BAR) and L_G^2 = 2.88 (up to rounding, hence approx, not ==);
    # the balancing sigma0 makes tau0 = 1/(2 L_XY).
    l_xy = CANONICAL_C_BAR
    tau0, sigma0 = default_step_sizes(constants)
    assert tau0 == pytest.approx(1.0 / (2.0 * l_xy), rel=1e-13)
    assert sigma0 == pytest.approx(l_xy / 2.88, rel=1e-13)
    tau0, sigma0 = default_step_sizes(constants, sigma0=0.5)
    assert sigma0 == 0.5
    assert tau0 == pytest.approx(1.0 / (l_xy + 1.44), rel=1e-13)


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
    # x0 = 0 lies outside the ball [2 - 1.2 sqrt(2), 2 + 1.2 sqrt(2)]: the start is its projection,
    # not the last iterate
    assert s == 0 and x_start[0] == pytest.approx(2.0 - 1.2 * math.sqrt(2.0), rel=1e-15) and res.x[0] > 0.5
    res = apdpro(problem, constants, SolverConfig(max_iters=100), np.array([100.0]), np.zeros(1))
    [(s, x_start)] = res.epoch_starts
    assert s == 0
    assert x_start[0] == pytest.approx(problem.strict_point[0] + constants.ball_radius, rel=1e-15)


def test_zero_iterations_is_a_no_op(canonical):
    problem, constants, _, _ = canonical
    res = _run(canonical, "apdpro", apdpro, max_iters=0)
    assert np.array_equal(res.x, problem.strict_point - constants.ball_radius)  # x0 = 0, projected on the ball
    assert np.array_equal(res.y, [0.0]) and np.array_equal(res.y_bar, [0.0])
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


@pytest.mark.parametrize("variant, runner", [("apdpro", apdpro), ("rapdpro", rapdpro)])
@pytest.mark.parametrize("instance", ["canonical", "blocks", "synthetic3"])
def test_the_dual_cut_binds_from_the_strict_point(canonical, variant, runner, instance):
    """||y_{k+1}||_1 >= rho_k/mu_lb at every step. From zeros the cut's lower edge never binds; from
    the strict point it binds at step 1, where ||y_2||_1 = rho_1/mu_lb to rounding."""
    if instance == "canonical":
        problem = canonical[0]
    elif instance == "blocks":  # the id predates weighted l1: helpers.unequal_weights_problem
        problem = unequal_weights_problem()
    else:
        problem = make_synthetic_instance(3, np.array([2.0, -1.0, 0.5]), 1.0)[0]
    constants = derive_constants(problem)
    snaps = []
    runner(problem, constants, SolverConfig(variant=variant, max_iters=50), problem.strict_point.copy(),
           np.zeros(problem.m), observer=snaps.append)
    binding = 0
    for s in snaps:
        lower = s.rho / constants.mu_lb
        assert s.y_next.sum() >= lower * (1.0 - 1e-12)
        binding += s.rho > 0.0 and s.y_next.sum() <= lower * (1.0 + 1e-12)
    assert binding >= 1


def test_dual_bound_soundness_under_hypotheses(canonical):
    """Where their hypotheses hold, h1 and h2 are below ||y*||_1: the run's value where it evaluated
    the bound, else the bound of ||J|| evaluated afresh at the snapshot's point."""
    problem, constants, x_star, y_star = canonical
    y_norm = abs(y_star[0])
    snaps = []
    _run(canonical, "apdpro", apdpro, observer=snaps.append, max_iters=400)
    checked = 0
    for s in snaps:
        if np.linalg.norm(s.x - x_star) ** 2 <= 2.0 * s.beta:
            h1v = s.h1_val
            if h1v is None:
                h1v = h1(jacobian_operator_norm(problem, s.x), s.beta, problem.r, problem.L_X)
            assert h1v <= y_norm + 1e-12
            checked += 1
        if s.beta_bar is not None and not math.isinf(s.beta_bar):
            if y_norm * np.linalg.norm(s.x_bar - x_star) ** 2 <= 2.0 * s.beta_bar:
                h2v = s.h2_val
                if h2v is None:
                    h2v = h2(jacobian_operator_norm(problem, s.x_bar), s.beta_bar, problem.r, problem.L_X,
                             constants.mu_lb)
                assert h2v <= y_norm + 1e-12
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


@pytest.mark.parametrize("variant, runner, kw, n_segments", [
    ("apdpro", apdpro, {}, 1),
    ("rapdpro", rapdpro, {"max_epochs": 3}, 4),
    ("msapd", msapd, {"max_epochs": 3}, 4),
    ("apd", apd_baseline, {}, 1),
    ("apd_restart", apd_baseline, {"restart_period": 7}, 15),
])
def test_dual_average_is_formed_once_per_segment(canonical, variant, runner, kw, n_segments):
    """y_bar is sum t_k y_k / T over the last segment, bitwise, and msapd's next stage starts at it;
    the state keeps only what carries over from one segment to the next."""
    snaps = []
    res = _run(canonical, variant, runner, observer=snaps.append, max_iters=100, **kw)
    segments = [[s for s in snaps if s.epoch == e] for e in sorted({s.epoch for s in snaps})]
    assert len(segments) == len(res.epoch_starts) == n_segments
    ybars = []
    for seg in segments:
        acc, total = np.zeros(1), 0.0  # the loop's order of operations
        for s in seg:
            acc += s.t * s.y
            total += s.t
        ybars.append(acc / total)
    assert np.array_equal(res.y_bar, ybars[-1]) and res.y_bar is not res.state.y_bar
    assert res.state.y is not res.state.y_bar
    if variant == "msapd":
        assert all(np.array_equal(seg[0].y, ybar) for ybar, seg in zip(ybars, segments[1:]))
    fields = [f.name for f in dataclasses.fields(res.state)]
    assert fields == ["x", "y", "x_bar", "y_bar", "rho_est", "k", "jac_bar"]


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
    assert tau0 == pytest.approx(1.0 / (2.0 * CANONICAL_C_BAR), rel=1e-13)  # 1/(2 L_XY)
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
    # sigma_bar = delta*L_XY/L_G^2; tau_bar = (1-nu0)/(L_XY + L_G^2 sigma_bar/delta) = (1-nu0)/(2 L_XY),
    # with L_XY = c_bar and L_G^2 = 2.88
    nu0, delta = solvers._NU0, solvers._DELTA
    assert 0.0 < nu0 < 1.0
    assert 0.0 < delta < 1.0
    l_xy = CANONICAL_C_BAR
    sigma_bar = delta * constants.L_XY / constants.L_G**2
    assert snaps[0].sigma == sigma_bar
    assert snaps[0].sigma == pytest.approx(delta * l_xy / 2.88, rel=1e-13)
    assert snaps[0].tau == pytest.approx((1.0 - nu0) / (2.0 * l_xy), rel=1e-13)
    # the step condition the pair meets: tau_bar (L_XY + L_G^2 sigma_bar/delta) = 1 - nu0
    condition = snaps[0].tau * (constants.L_XY + constants.L_G**2 * snaps[0].sigma / delta)
    assert condition == pytest.approx(1.0 - nu0, rel=1e-13)


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


@st.composite
def _batch_instances(draw):
    """Synthetic instances drawn as the synth-batch workload draws them: n in 1..8, center entries of
    magnitude 0.5..2 with random signs, level u ||c||/sqrt(2) with u in [0.2, 0.8]."""
    n = draw(st.integers(1, 8))
    magnitudes = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    center = np.array(signs) * np.array(magnitudes)
    level = draw(st.floats(0.2, 0.8)) * float(np.linalg.norm(center)) / math.sqrt(2.0)
    return make_synthetic_instance(n, center, level)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(instance=_batch_instances())
def test_rapdpro_epoch_contraction_property(instance):
    """||x^s - x*||^2 <= D_X^2 2^-s at every epoch start of 12 epochs, until the error is below 1e-20."""
    problem, x_star, _ = instance
    constants = derive_constants(problem)
    cfg = SolverConfig(variant="rapdpro", max_iters=100_000, max_epochs=11)
    res = rapdpro(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), recorder=lambda ri: None)
    assert res.termination == "completed" and res.epochs == 12
    for s, xs in res.epoch_starts:
        err = float(np.linalg.norm(xs - x_star) ** 2)
        if err < 1e-20:
            break
        assert err <= constants.D_X**2 * 2.0 ** (-s), (s, err)


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
        assert first.sigma == pytest.approx(CANONICAL_C_BAR / 2.88 * 2.0 ** (0.5 * s), rel=1e-13)
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


# -- Delta_XY per variant ---------------------------------------------------------

def test_each_variant_forms_delta_xy_by_its_own_listing(canonical):
    """Delta_XY, seen through beta and beta_bar: D_X^2/(2 tau_0) + D_Y^2/(2 sigma_0) for apdpro
    and each msapd stage, D_X^2/tau_bar + D_Y^2/(2 sigma_bar) (primal term not halved) for each
    rapdpro epoch; the steps are the ones the observer sees at the segment's first step."""
    _, constants, _, _ = canonical
    dx2, dy2 = constants.D_X**2, constants.D_Y**2

    def assert_close(got, want):
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    snaps = []
    _run(canonical, "apdpro", apdpro, observer=snaps.append, max_iters=3)
    tau0, sigma0 = snaps[0].tau, snaps[0].sigma
    assert_close(snaps[0].beta, tau0 * (dx2 / (2.0 * tau0) + dy2 / (2.0 * sigma0)))

    snaps = []
    res = _run(canonical, "rapdpro", rapdpro, observer=snaps.append, max_iters=2000, max_epochs=2)
    assert res.epochs == 3
    for s in range(3):
        first = next(sn for sn in snaps if sn.epoch == s)
        tau_bar, sigma_bar = first.tau, first.sigma
        assert_close(first.beta, tau_bar * (dx2 / tau_bar + dy2 / (2.0 * sigma_bar)))

    snaps = []
    res = _run(canonical, "msapd", msapd, observer=snaps.append, max_iters=4000, max_epochs=2)
    assert res.epochs == 3
    for s in range(3):
        first, second = [sn for sn in snaps if sn.epoch == s][:2]  # beta_bar = Delta_XY/k at k = 1
        assert_close(second.beta_bar, dx2 / (2.0 * first.tau) + dy2 / (2.0 * first.sigma))


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
    """(G calls, J calls, whether the later step evaluated h2) between consecutive iterations of one
    epoch (observer to observer)."""
    calls = {"g": 0, "jac": 0}
    counted = _counted(problem, calls)
    cfg = SolverConfig(variant=variant, **kw)
    recorder = make_recorder(counted, variant, cfg, None) if use_bench_recorder else None
    marks = []
    runner(counted, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), recorder=recorder,
           observer=lambda sn: marks.append((sn.epoch, calls["g"], calls["jac"], sn.h2_val is not None)))
    return [(g1 - g0, j1 - j0, h2v) for (e0, g0, j0, _), (e1, g1, j1, h2v) in zip(marks, marks[1:]) if e0 == e1]


# (G calls, J calls) per iteration on the generic path, without and with a KKT stop, at a step that
# does not evaluate h2.
GENERIC_CALLS = {
    "none": {"apdpro": (1, 1), "rapdpro": (1, 1), "msapd": (2, 1), "apd": (2, 1)},
    "kkt": {"apdpro": (1, 1), "rapdpro": (1, 1), "msapd": (2, 2), "apd": (2, 2)},
}


@pytest.mark.parametrize("instance", ["canonical", "small_graph"])
@pytest.mark.parametrize("use_bench_recorder", [False, True])
@pytest.mark.parametrize("stop", ["none", "kkt"])
def test_oracle_calls_per_iteration(instance, use_bench_recorder, stop, request):
    """Generic path: G and J once at x_{k+1}, plus J at x_bar_k at a step whose h2 is evaluated.

    The ergodic-metric variants (msapd, apd) also evaluate G at x_bar_{k+1}
    for the record. A KKT stop reuses that G and adds J(x_bar_{k+1}), which
    msapd's h2 reuses at the next iteration. The 30-node graph runs with its
    quadratic structure dropped. h2 is evaluated only where its value at
    gradient norm 0 can lift rho; on the canonical instance apdpro and
    rapdpro take both kinds of step.
    """
    problem, constants = request.getfixturevalue(instance)[:2]
    problem = _generic(problem)
    # A KKT target the runs never reach, so the stop test runs on every iteration.
    kw = dict(max_iters=60, max_epochs=3, tolerance=1e-300 if stop == "kkt" else 0.0)
    for variant, runner in ENTRY_POINTS:
        calls = _calls_per_iteration(problem, constants, variant, runner, use_bench_recorder, **kw)
        g, j = GENERIC_CALLS[stop][variant]
        held = stop == "kkt" and variant == "msapd"  # the KKT stop has evaluated J(x_bar) already
        assert len(calls) > 20, variant
        assert all((gc, jc) == (g, j + (h2v and not held)) for gc, jc, h2v in calls), variant
        if instance == "canonical" and variant in ("apdpro", "rapdpro"):
            assert {h2v for _, _, h2v in calls} == {False, True}, variant


@pytest.mark.parametrize("use_bench_recorder", [False, True])
@pytest.mark.parametrize("stop", ["none", "kkt"])
def test_quadratic_problems_make_one_jacobian_call_per_iteration(small_graph, use_bench_recorder, stop):
    """With quadratic structure G comes from J, and J(x_bar) from the running average J_bar."""
    problem, constants = small_graph
    kw = dict(max_iters=60, max_epochs=3, tolerance=1e-300 if stop == "kkt" else 0.0)
    for variant, runner in ENTRY_POINTS:
        calls = _calls_per_iteration(problem, constants, variant, runner, use_bench_recorder, **kw)
        assert len(calls) > 20 and {(g, j) for g, j, _ in calls} == {(0, 1)}, variant


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
    # J(x_0), then J(x_{k+1}) per iteration, and J(x_bar_k) where h2 is evaluated, from k = 4 on: after
    # J(x_4) (call 5) and J(x_bar_4) (call 6), call 7 is J(x_5)
    (apdpro, "apdpro", 7, 5),
    (apd_baseline, "apd", 5, 4),  # J(x_0), then J(x_{k+1}) per iteration: call 5 is J(x_4)
])
def test_non_finite_jacobian_raises_on_the_generic_path(canonical, runner, variant, first_nan, iteration):
    problem, constants, _, _ = canonical
    broken = _jacobian_nan_from_call(problem, first_nan)
    match = rf"non-finite Jacobian J\(x_\{{k\+1\}}\) at iteration {iteration}$"
    with pytest.raises(NumericalError, match=match):
        runner(broken, constants, SolverConfig(variant=variant, max_iters=50), np.zeros(1), np.zeros(1))


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
        objective=BlockNormObjective(np.ones(2)),
        constraints=constraints, jacobian=jacobian, mu=np.ones(2), L_X=math.sqrt(2.0),
        r=1.0, strict_point=np.array([2.0, 0.5]),
    )
    return problem, derive_constants(problem)


def _instance(request, instance):
    """(problem, constants) of a fixture, of the m = 2 generic problem, of the n = 6 problem under
    unequal weights with a zero ("blocks", its id from before weighted l1), of the 30-node graph
    without its quadratic structure, or of the canonical instance with a narrower feasible set
    (level 0.5)."""
    if instance == "two_ball":
        return _two_ball_problem()
    if instance == "blocks":
        problem = unequal_weights_problem()
        return problem, derive_constants(problem)
    if instance == "narrow":
        problem = make_synthetic_instance(1, 2.0, 0.5)[0]
        return problem, derive_constants(problem)
    problem, constants = request.getfixturevalue(instance.removesuffix("_generic"))[:2]
    return (_generic(problem) if instance.endswith("_generic") else problem), constants


def test_non_finite_jacobian_at_an_msapd_warm_start_raises(canonical):
    problem, constants, _, _ = canonical
    cfg = SolverConfig(variant="msapd", max_iters=40, max_epochs=1)
    calls, marks = {"g": 0, "jac": 0}, []
    msapd(_counted(problem, calls), constants, cfg, np.zeros(1), np.zeros(1),
          observer=lambda sn: marks.append((sn.epoch, sn.k, calls["jac"])))
    # Stage 1 starts with x_bar's J held, so by its first observer its first iteration has made
    # no J call: the last one is J(x_bar) at the warm start, named as the point of the last step.
    k, jac_calls = next((k, j) for epoch, k, j in marks if epoch == 1)
    broken = _jacobian_nan_from_call(problem, jac_calls, last_nan=jac_calls)
    with pytest.raises(NumericalError, match=rf"^non-finite Jacobian J\(x_bar_\{{k\+1\}}\) at iteration {k}$"):
        msapd(broken, constants, cfg, np.zeros(1), np.zeros(1))


_H2_INSTANCES = ("canonical", "two_ball", "small_graph_generic", "small_graph", "narrow")
# msapd starts rho at rho_lb, above every h2 cap its stages reach on these instances: the skip is total.
_H2_NEVER_EVALUATED = {("msapd", instance) for instance in _H2_INSTANCES}
# The h2 tests' cases: each instance under apdpro, rapdpro and msapd, and msapd once more on canonical and
# narrow from rho_lb = 0 ("<instance>_rho_lb_0"), where it evaluates h2.
_H2_CASES = [
    *[(instance, variant, runner) for instance in _H2_INSTANCES for variant, runner in ENTRY_POINTS[:3]],
    ("canonical_rho_lb_0", "msapd", msapd),
    ("narrow_rho_lb_0", "msapd", msapd),
]


def _iters_for_two_epochs(problem, constants, variant):
    """max_iters of 2000, or for rapdpro room for its first epoch to run to its budget and a second
    to start: the iterations a one-epoch run takes, which end at the first step j >= N_0. On
    small_graph, with r = sqrt(min degree), that is 2376 (epoch_budgets[0] = 2375)."""
    if variant != "rapdpro":
        return 2000
    first = rapdpro(problem, constants, SolverConfig(variant="rapdpro", max_iters=10**6),
                    np.zeros(problem.n), np.zeros(problem.m))
    assert first.termination == "completed" and first.state.k >= first.epoch_budgets[0]
    return max(2000, first.state.k)


def _h2_instance(request, instance):
    """``_instance``'s (problem, constants); a name ending in ``_rho_lb_0`` sets rho_lb = 0."""
    if instance.endswith("_rho_lb_0"):
        problem, constants = _instance(request, instance.removesuffix("_rho_lb_0"))
        return problem, dataclasses.replace(constants, rho_lb=0.0)
    return _instance(request, instance)


@pytest.mark.parametrize("instance, variant, runner", _H2_CASES)
def test_h2_reads_the_jacobian_at_x_bar(request, instance, variant, runner):
    """Every h2 the run evaluates is h2 of ||J(x_bar_k)|| with J evaluated afresh at the snapshot's
    x_bar_k, across epochs and stages: bitwise on the generic path, to rounding where J(x_bar) is
    the running average J_bar. Every run evaluates it but for the pairs in _H2_NEVER_EVALUATED."""
    problem, constants = _h2_instance(request, instance)
    snaps = []
    cfg = SolverConfig(variant=variant, max_iters=_iters_for_two_epochs(problem, constants, variant), max_epochs=1)
    runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), observer=snaps.append)
    assert len({sn.epoch for sn in snaps}) == (1 if variant == "apdpro" else 2)
    rel = 0.0 if problem.quadratic is None else 1e-10
    evaluated = [sn for sn in snaps if sn.h2_val is not None]
    for sn in evaluated:
        expected = h2(jacobian_operator_norm(problem, sn.x_bar), sn.beta_bar, problem.r, problem.L_X,
                      constants.mu_lb)
        assert abs(sn.h2_val - expected) <= rel * expected, (sn.epoch, sn.k, sn.h2_val, expected)
    assert evaluated or (variant, instance) in _H2_NEVER_EVALUATED


@pytest.mark.parametrize("instance, variant, runner", _H2_CASES)
def test_skipping_a_bound_never_changes_rho(request, instance, variant, runner):
    """rho_{k+1} is max(rho_k, min(mu_lb max(h1, h2), rho_cap)) bitwise, as if both bounds were
    evaluated at every step. h1 is recomputed from J evaluated afresh at the snapshot's x_k; h2 is
    the run's value where it evaluated h2 (test_h2_reads_the_jacobian_at_x_bar checks that value),
    else recomputed from J evaluated afresh at x_bar_k. Every run skips h2 (at least at a segment's
    first step, where beta_bar = inf) and, but for the pairs in _H2_NEVER_EVALUATED, evaluates it."""
    problem, constants = _h2_instance(request, instance)
    snaps = []
    cfg = SolverConfig(variant=variant, max_iters=2000, max_epochs=8 if variant == "msapd" else 1)
    runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), observer=snaps.append)
    mu_lb, rho_cap = constants.mu_lb, constants.mu_lb * constants.c_bar * (1.0 - 1e-12)
    for sn in snaps:
        h1v = h1(jacobian_operator_norm(problem, sn.x), sn.beta, problem.r, problem.L_X)
        assert sn.h1_val in (None, h1v), (sn.epoch, sn.k)
        h2v = sn.h2_val
        if h2v is None:
            h2v = h2(jacobian_operator_norm(problem, sn.x_bar), sn.beta_bar, problem.r, problem.L_X, mu_lb)
        assert sn.rho_next == max(sn.rho, min(mu_lb * max(h1v, h2v), rho_cap)), (sn.epoch, sn.k)
    evaluated = sum(sn.h2_val is not None for sn in snaps)
    assert evaluated < len(snaps)
    assert evaluated > 0 or (variant, instance) in _H2_NEVER_EVALUATED


@pytest.mark.parametrize("variant, runner", [*ENTRY_POINTS, ("apd_restart", apd_baseline)])
@pytest.mark.parametrize("instance", ["canonical", "two_ball", "blocks", "small_graph"])
def test_the_loop_hands_its_kernels_the_values_they_assume(request, instance, variant, runner):
    """The loop's kernels (h1, h2, stepsize_update, the prox and the dual projection) check no
    argument; the driver's values meet their preconditions at every step: tau, sigma > 0,
    beta > 0, beta_bar > 0 or inf, and 0 <= rho <= rho_next <= mu_lb c_bar, so the dual cut is
    never empty. rapdpro seeds rho_hat afresh at each epoch's first step."""
    problem, constants = _instance(request, instance)
    snaps = []
    max_iters = _iters_for_two_epochs(problem, constants, variant)
    cfg = SolverConfig(variant=variant, max_iters=max_iters, max_epochs=3, restart_period=40)
    runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), observer=snaps.append)
    assert snaps
    cap = constants.mu_lb * constants.c_bar
    for sn in snaps:
        where = (sn.epoch, sn.k)
        assert sn.tau > 0.0 and sn.sigma > 0.0 and sn.tau_next > 0.0 and sn.sigma_next > 0.0, where
        assert sn.beta is None or sn.beta > 0.0, where
        assert sn.beta_bar is None or sn.beta_bar > 0.0, where  # inf included
        assert 0.0 <= sn.rho <= sn.rho_next <= cap, where
    if variant == "rapdpro":
        firsts = [sn for i, sn in enumerate(snaps) if i == 0 or sn.epoch != snaps[i - 1].epoch]
        assert len(firsts) > 1
        for sn in firsts:
            assert sn.rho_hat_next == 3.0 * math.sqrt(sn.rho_next / sn.tau), sn.epoch


@pytest.mark.parametrize("instance", ["canonical", "two_ball", "blocks", "small_graph"])
def test_rapdpro_epochs_run_their_budget(request, instance):
    """In each epoch before the last, rho_hat_next is the oracle's sequence, seeded at the epoch's
    first step from its certified rho values, and the epoch ends after the first step j at
    which j >= N_s, N_s recomputed by the oracle from that step's rho_hat_next, tau_bar,
    sigma_bar, D_X and D_Y. epoch_budgets[s] is the N_s of the last step, so the epoch runs
    exactly epoch_budgets[s] iterations unless N_s fell below j at that step j (the canonical
    instance's epoch 0: 25 iterations, last N_0 = 24)."""
    problem, constants = _instance(request, instance)
    snaps = []
    cfg = SolverConfig(variant="rapdpro", max_iters=100_000, max_epochs=6)
    res = rapdpro(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), observer=snaps.append)
    assert res.termination == "completed" and res.epochs == 7
    exact = 0
    for s in range(res.epochs - 1):
        epoch = [sn for sn in snaps if sn.epoch == s]
        tau_bar, sigma_bar = epoch[0].tau, epoch[0].sigma
        hats = rho_hat_oracle([sn.rho_next for sn in epoch], tau_bar)
        for sn, hat in zip(epoch, hats):
            assert sn.rho_hat_next == pytest.approx(hat, rel=1e-12), (s, sn.k)
        budgets = [epoch_budget_oracle(sn.rho_hat_next, s, tau_bar, sigma_bar, constants.D_X, constants.D_Y)
                   for sn in epoch]
        ends = next(j for j, n_j in enumerate(budgets, 1) if j >= n_j)
        assert len(epoch) == ends, (s, len(epoch), ends)
        assert res.epoch_budgets[s] == budgets[-1], (s, res.epoch_budgets[s], budgets[-1])
        exact += len(epoch) == res.epoch_budgets[s]
    assert exact >= res.epochs - 2


@pytest.mark.parametrize("instance", ["canonical", "two_ball"])
def test_segment_and_warm_starts_make_no_call_at_x_bar(request, instance):
    """Generic path: a segment starts with x_bar's G and J seeded from x's, so its first step calls
    nothing at x_bar (nor would its h2, which is never evaluated there, where beta_bar = inf), and
    msapd's warm start takes G(x_bar) from the last ergodic record.

    Up to a segment's first observer, the calls since the previous observer are G and J at x_0
    for the first segment; for the others, those of the last step (G and J at x_{k+1}), and in
    msapd G(x_bar) for the record and J(x_bar) at the warm start, the new stage's J at x.
    Evaluating J(x_bar_0) at each segment start cost one J call per epoch or stage more, and G
    at each warm start one G call more. After msapd's last stage nothing reads J(x_bar), and it
    is not evaluated. Every other J(x_bar) call is one evaluated h2's.
    """
    problem, constants = _instance(request, instance)
    boundary = {"apdpro": (1, 1), "rapdpro": (1, 1), "msapd": (2, 2)}
    for variant, runner in ENTRY_POINTS[:3]:
        calls, marks = {"g": 0, "jac": 0}, [(-1, 0, 0, False)]  # the run's start as a segment of its own
        cfg = SolverConfig(variant=variant, max_iters=400, max_epochs=3)
        res = runner(_counted(problem, calls), constants, cfg, np.zeros(problem.n), np.zeros(problem.m),
                     observer=lambda sn: marks.append((sn.epoch, calls["g"], calls["jac"], sn.h2_val is not None)))
        k, epochs = res.state.k, res.epochs
        assert epochs == (1 if variant == "apdpro" else 4) and len(marks) == k + 1, variant
        firsts = [i for i in range(1, len(marks)) if marks[i][0] != marks[i - 1][0]]
        starts = [(marks[i][1] - marks[i - 1][1], marks[i][2] - marks[i - 1][2]) for i in firsts]
        assert starts == [(1, 1)] + [boundary[variant]] * (epochs - 1), variant
        # One J(x_bar_k) per evaluated h2, none at a segment's first step, where h2 is never evaluated.
        h2_calls = sum(evaluated for *_, evaluated in marks)
        assert not any(marks[i][3] for i in firsts), variant
        if variant == "msapd":  # per stage after the first, one J(x_bar) at its warm start
            assert res.termination == "completed"
            assert (calls["g"], calls["jac"]) == (1 + 2 * k, 1 + k + (epochs - 1) + h2_calls)
        else:
            assert h2_calls > 0 and (calls["g"], calls["jac"]) == (1 + k, 1 + k + h2_calls), variant


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
    constants = derive_constants(problem)
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
    problem, constants = _instance(request, instance)
    original, calls = getattr(solvers, layer), []

    def nan_in_step_k(*args):
        calls.append(None)
        out = original(*args)
        return np.full_like(out, np.nan) if len(calls) == first_call + k else out

    monkeypatch.setattr(solvers, layer, nan_in_step_k)
    with pytest.raises(NumericalError, match=rf"^non-finite {text} at iteration {k + 1}$"):
        runner(problem, constants, SolverConfig(variant=variant, max_iters=50), np.zeros(problem.n),
               np.zeros(problem.m))


# The oracle's cells of the fault matrix: (site, which call at the site after the armed step returns
# nan, the point named, instances, entry points, the armed step). The quadratic path makes no
# constraints call, and only the ergodic variants evaluate G at x_bar_{k+1}, after G(x_{k+1}). On the
# generic path J(x_bar_{k+1}) follows J(x_{k+1}) where it is read: in the adaptive variants by the next
# step's h2, where it is evaluated ("h2": the step before the k-th such step is armed), and where
# max(h1, h2) would drop a nan h2 if J were not checked; in msapd, whose h2 is seldom evaluated, by a
# KKT stop at x_bar ("kkt": step k is armed, in a run with a KKT target it never reaches).
_ORACLE_FAULTS = (
    ("jacobian", 1, r"Jacobian J\(x_\{k\+1\}\)", ("canonical", "two_ball", "small_graph"), ENTRY_POINTS, "step"),
    ("jacobian", 2, r"Jacobian J\(x_bar_\{k\+1\}\)", ("canonical", "two_ball"),
     (("apdpro", apdpro), ("rapdpro", rapdpro)), "h2"),
    ("jacobian", 2, r"Jacobian J\(x_bar_\{k\+1\}\)", ("canonical", "two_ball"), (("msapd", msapd),), "kkt"),
    ("constraints", 1, r"constraint value G\(x_\{k\+1\}\)", ("canonical", "two_ball"), ENTRY_POINTS, "step"),
    ("constraints", 2, r"constraint value G\(x_bar_\{k\+1\}\)", ("canonical", "two_ball"),
     (("msapd", msapd), ("apd", apd_baseline)), "step"),
)


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("site, nth, text, instance, variant, runner, armed", [
    pytest.param(site, nth, text, instance, variant, runner, armed,
                 id=f"{site}-{'x_bar' if nth == 2 else 'x'}-{instance}-{variant}")
    for site, nth, text, instances, entries, armed in _ORACLE_FAULTS
    for instance in instances
    for variant, runner in entries
])
def test_a_non_finite_oracle_value_names_its_point(request, k, site, nth, text, instance, variant, runner, armed):
    """An observer arms the oracle at step k (see _ORACLE_FAULTS); its ``nth`` call at ``site`` after
    that returns nan."""
    problem, constants = _instance(request, instance)
    cfg = SolverConfig(variant=variant, max_iters=50, tolerance=1e-300 if armed == "kkt" else 0.0)
    if armed == "h2":  # the steps that evaluate h2, from a run with the oracle intact
        snaps = []
        runner(problem, constants, cfg, np.zeros(problem.n), np.zeros(problem.m), observer=snaps.append)
        k = [sn.k for sn in snaps if sn.h2_val is not None][k] - 1
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
