"""Primal-dual solver loops sharing one state machine and step-size engine.

Variants
--------
``apdpro``
    Adaptive loop: dual-cut projection, prox step, ergodic averaging, the
    Improve bound, and the step-size recursion tau' = tau/sqrt(1 + rho*tau).
``rapdpro``
    Restarted epochs of the adaptive loop; each inner step refreshes the
    epoch budget from the rate coefficient rho_hat.
``msapd``
    Multi-stage scheme whose stages run constant-step inner loops with plain
    dual projection and uniform averaging, warm-starting each stage from the
    previous ergodic pair.
``apd`` / ``apd_restart``
    The non-adaptive baseline: apdpro's single-run path with the Improve
    step off and rho fixed at 0 (so the cut is the whole dual set and the
    step sizes never move), optionally re-centering the averages every
    ``restart_period`` iterations.

Inside the shared loop the variants differ by two rules only: the Improve
rule (off, "alg1" for the adaptive runs, "alg3" for msapd's stages) and the
budget rule (none, "epoch" for rapdpro, "stage" for msapd). The dual cut and
the step-size recursion are on unless the Improve rule is "alg3".

The two restart conventions intentionally differ on the primal Delta term:
the single-run loop uses Delta_XY = D_X^2/(2 tau_0) + D_Y^2/(2 sigma_0)
while the restarted listing uses D_X^2/tau_0^s + D_Y^2/(2 sigma_0^s); each
loop follows its own listing verbatim.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimator import RhoEstimate, h1, h2
from .linalg import NumericalError
from .problem import (
    ConstrainedProblem,
    ProblemConstants,
    _operator_norm,
    _vec,
    jacobian_operator_norm,
    kkt_residual,
)
from .prox import DualSlab, project_dual_set, prox_f_over_ball

__all__ = [
    "SolverState",
    "SolverConfig",
    "RunResult",
    "IterateRecord",
    "RecordInputs",
    "IterSnapshot",
    "stepsize_update",
    "default_step_sizes",
    "active_set_accuracy",
    "compute_metrics",
    "resolve_metric_iterate",
    "apdpro",
    "rapdpro",
    "msapd",
    "apd_baseline",
    "VARIANTS",
]

VARIANTS = ("apdpro", "rapdpro", "msapd", "apd", "apd_restart")


@dataclass
class SolverState:
    """Mutable per-run state; field names follow the algorithm listings."""

    x_prev: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_bar: np.ndarray
    T: float
    t: float
    tau: float
    sigma: float
    sigma_prev: float
    rho_est: RhoEstimate
    k: int = 0
    s: int = 0


@dataclass
class SolverConfig:
    """Knobs shared by all variants; unused fields are ignored per variant.

    ``sigma0`` doubles as sigma_bar (rapdpro) and sigma_tilde (msapd). Unset
    step sizes fall back to the balancing rule sigma0 = L_XY/L_G^2,
    tau0 = 1/(L_XY + L_G^2 sigma0) (and its per-variant analogues).
    ``tolerance`` = 0 disables early stopping; when positive the stop test
    uses max(relative objective gap, feasibility violation) against a
    supplied reference objective value, else the max KKT residual.
    ``forced_schedule`` switches msapd to a fixed sub-iteration schedule
    (stage budgets N0*sqrt(2)^s with tau/sqrt(2), sigma*sqrt(2) per stage).
    """

    variant: str = "apdpro"
    tau0: float | None = None
    sigma0: float | None = None
    rho0: float = 0.0
    max_iters: int = 1000
    max_epochs: int = 0
    nu0: float = 0.25
    delta: float = 0.5
    restart_period: float = math.inf
    tolerance: float = 0.0
    tolerance_metric: str = "auto"  # auto | gap | kkt
    record_every: int = 1
    metric_iterate: str = "auto"  # auto | last | ergodic
    disable_estimator: bool = False
    forced_schedule: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not 0.0 < self.nu0 < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("nu0 and delta must lie in (0, 1)")
        if self.rho0 < 0:
            raise ValueError("rho0 must be nonnegative")
        if self.max_iters < 0 or self.max_epochs < 0:
            raise ValueError("iteration budgets must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.metric_iterate not in ("auto", "last", "ergodic"):
            raise ValueError("metric_iterate must be auto, last, or ergodic")
        if self.tolerance_metric not in ("auto", "gap", "kkt"):
            raise ValueError("tolerance_metric must be auto, gap, or kkt")
        if self.forced_schedule is not None and self.forced_schedule < 1:
            raise ValueError("forced_schedule must be a positive stage budget")


@dataclass
class IterateRecord:
    """One trace row; rel_gap and active_set_acc stay None without a reference."""

    iter: int
    epoch: int
    objective: float
    rel_gap: float | None
    feas_violation: float
    rho: float
    tau: float
    sigma: float
    active_set_acc: float | None
    elapsed_s: float


@dataclass
class RecordInputs:
    """What the engine hands to a recorder after each iteration.

    ``g_last`` is G(x_last), already evaluated by the engine; recorders use
    it instead of calling the constraint oracle again. None means unknown
    (recorders then evaluate G themselves).
    """

    iter: int
    epoch: int
    x_last: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    rho: float
    tau: float
    sigma: float
    elapsed_s: float
    g_last: np.ndarray | None = None


def active_set_accuracy(x, x_ref, threshold: float = 1e-8, objective=None) -> float:
    """Fraction of blocks whose zero/nonzero status matches the reference.

    Both vectors are truncated blockwise first: a block counts as zero when
    its norm falls below ``threshold``. With no objective given, blocks are
    single coordinates. The value is (|A ^ A*| + |A^c ^ A*^c|)/B over the B
    blocks.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if objective is None:
        a = np.abs(np.asarray(x, dtype=float)) < threshold
        b = np.abs(np.asarray(x_ref, dtype=float)) < threshold
    else:
        a = objective.block_norms(x) < threshold
        b = objective.block_norms(x_ref) < threshold
    if a.shape != b.shape:
        raise ValueError("x and x_ref disagree on block structure")
    return float(np.mean(a == b))


def compute_metrics(
    problem: ConstrainedProblem,
    ri: RecordInputs,
    metric: str = "last",
    reference=None,
    threshold: float = 1e-8,
) -> IterateRecord:
    """Assemble one IterateRecord at the metric iterate (last or ergodic).

    ``reference`` is (x*, f*) or None. Without it rel_gap and active_set_acc
    stay None and serialize as empty CSV fields; with x* = None only
    active_set_acc does. At the last iterate, ``ri.g_last`` (when set) stands
    in for G(x_last).
    """
    if metric == "ergodic":
        xm, gm = ri.x_bar, None
    else:
        xm, gm = ri.x_last, ri.g_last
    if gm is None:
        gm = problem.g(xm)
    fv = problem.f(xm)
    feas = float(np.linalg.norm(np.maximum(gm, 0.0)))
    rel = acc = None
    if reference is not None:
        x_ref, f_ref = reference
        if f_ref != 0.0:
            rel = abs(fv - f_ref) / abs(f_ref)
        if x_ref is not None:
            acc = active_set_accuracy(xm, x_ref, threshold, problem.objective)
    return IterateRecord(
        iter=ri.iter,
        epoch=ri.epoch,
        objective=fv,
        rel_gap=rel,
        feas_violation=feas,
        rho=ri.rho,
        tau=ri.tau,
        sigma=ri.sigma,
        active_set_acc=acc,
        elapsed_s=ri.elapsed_s,
    )


@dataclass
class IterSnapshot:
    """Full per-iteration view for tests and diagnostics (observer callback).

    Arrays are copies; attach an observer only on small instances.
    """

    k: int
    epoch: int
    x: np.ndarray
    x_bar: np.ndarray
    x_next: np.ndarray
    x_bar_next: np.ndarray
    y: np.ndarray
    y_next: np.ndarray
    tau: float
    sigma: float
    sigma_prev: float
    t: float
    T_next: float
    rho: float
    rho_next: float
    rho_hat_next: float
    tau_next: float
    sigma_next: float
    beta: float | None
    beta_bar: float | None
    h1_val: float | None
    h2_val: float | None


@dataclass
class RunResult:
    """Final iterates plus the per-iteration trace.

    ``epoch_budgets`` holds the last N_s value of each executed epoch
    (math.inf while never set); ``epoch_starts`` the (s, iterate) pairs at
    each epoch/stage start, for contraction diagnostics.
    """

    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    y_bar: np.ndarray
    trace: list
    termination: str
    epochs: int
    epoch_budgets: list
    state: SolverState
    epoch_starts: list = field(default_factory=list)


def stepsize_update(tau: float, sigma: float, sigma0: float, rho_next: float):
    """Advance (tau, sigma) one step: tau' = tau/sqrt(1 + rho_next*tau).

    Returns (tau', sigma', t') with sigma' = sigma*tau/tau' and
    t' = sigma'/sigma0. rho_next = 0 returns the inputs unchanged (exact
    identity, so constant-step baselines never accumulate rounding drift);
    the product tau*sigma is preserved.
    """
    if tau <= 0 or sigma <= 0 or sigma0 <= 0:
        raise ValueError("step sizes must be positive")
    if rho_next < 0:
        raise ValueError("rho_next must be nonnegative")
    if rho_next == 0.0:
        return tau, sigma, sigma / sigma0
    tau_new = tau / math.sqrt(1.0 + rho_next * tau)
    sigma_new = sigma * (tau / tau_new)
    return tau_new, sigma_new, sigma_new / sigma0


def _epoch_budget(rho_hat: float, s: int, tau0_s: float, sigma0_s: float, D_X: float, D_Y: float):
    """rapdpro's epoch budget N_s = ceil(max{6/(rho_hat tau0), sqrt(2)^s * 3 sqrt(2) D_Y/
    (rho_hat D_X sqrt(tau0 sigma0))}); math.inf while rho_hat = 0."""
    if rho_hat <= 0.0:
        return math.inf
    a = 6.0 / (rho_hat * tau0_s)
    b = 2.0 ** (0.5 * s) * 3.0 * math.sqrt(2.0) * D_Y / (rho_hat * D_X * math.sqrt(tau0_s * sigma0_s))
    return math.ceil(max(a, b))


def _stage_budget(rho: float, s: int, tau0_s: float, sigma0_s: float, D_X: float, D_Y: float):
    if rho <= 0.0:
        return math.inf
    a = 4.0 / (rho * tau0_s)
    b = D_Y**2 / (rho * sigma0_s * D_X**2) * 2.0 ** (s + 1)
    return math.ceil(max(a, b))


def default_step_sizes(problem: ConstrainedProblem, constants: ProblemConstants, sigma0: float | None = None):
    """Balancing rule sigma0 = L_XY/L_G^2 (so L_XY = L_G^2 sigma0), tau0 = 1/(2 L_XY).

    With ``sigma0`` given, only tau0 is derived (largest feasible value
    1/(L_XY + L_G^2 sigma0)).
    """
    l_xy, l_g = constants.L_XY, problem.L_G
    if sigma0 is None:
        sigma0 = l_xy / l_g**2 if l_xy > 0 else 1.0 / l_g**2
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    tau0 = 1.0 / (l_xy + l_g**2 * sigma0)
    return tau0, sigma0


def resolve_metric_iterate(variant: str, override: str = "auto") -> str:
    """Which iterate carries the metrics: last for the adaptive runs, ergodic else."""
    if override != "auto":
        return override
    return "last" if variant in ("apdpro", "rapdpro") else "ergodic"


def _check_step_feasibility(tau0, sigma0, problem, constants):
    bound = constants.L_XY + problem.L_G**2 * sigma0
    if 1.0 / tau0 < bound * (1.0 - 1e-9):
        raise ValueError(
            f"step sizes infeasible: need 1/tau0 >= L_XY + L_G^2*sigma0 = {bound:.6g}, "
            f"got {1.0 / tau0:.6g}"
        )


def _init_state(problem, constants, x0, y0, tau0, sigma0, rho0) -> SolverState:
    x0 = np.array(_vec(x0, problem.n, "x0"), dtype=float)
    y0 = np.array(_vec(y0, problem.m, "y0"), dtype=float)
    # Confine the start to X and Y so the convergence theory's hypotheses hold.
    d = x0 - constants.ball_center
    nd = float(np.linalg.norm(d))
    if nd > constants.ball_radius:
        x0 = constants.ball_center + d * (constants.ball_radius / nd)
    y0 = project_dual_set(y0, DualSlab(lower=0.0, upper=constants.c_bar, m=problem.m))
    return SolverState(
        x_prev=x0.copy(),
        x=x0,
        y=y0,
        x_bar=x0.copy(),
        T=0.0,
        t=1.0,
        tau=tau0,
        sigma=sigma0,
        sigma_prev=sigma0,
        rho_est=RhoEstimate(rho=rho0),
    )


class _Driver:
    """Owns the shared loop, the trace, and the dual running average."""

    def __init__(self, problem, constants, config, recorder, observer, f_star):
        self.prob = problem
        self.c = constants
        self.cfg = config
        self.observer = observer
        self.trace: list[IterateRecord] = []
        self.total_k = 0
        self.t0 = time.perf_counter()
        self.ybar_acc = np.zeros(problem.m)
        self.metric = resolve_metric_iterate(config.variant, config.metric_iterate)
        if recorder is None:
            reference = None if f_star is None else (None, f_star)
            recorder = functools.partial(compute_metrics, problem, metric=self.metric, reference=reference)
        self.recorder = recorder
        self.rho_cap = constants.mu_lb * constants.c_bar * (1.0 - 1e-12)
        # The oracle at the current iterate, kept across segments: G(_at) in
        # _gx, and J(_at) in _jx once something needs it (None until then).
        self._at: np.ndarray | None = None
        self._gx: np.ndarray | None = None
        self._jx: np.ndarray | None = None

    def _jac(self) -> np.ndarray:
        """J at the current iterate, evaluated on first use and then kept."""
        if self._jx is None:
            self._jx = self.prob.jac(self._at)
        return self._jx

    def _should_stop(self, rec: IterateRecord, ri: RecordInputs) -> bool:
        """Tolerance test; the KKT test at ri.x_last reuses the cached G and J there."""
        tol = self.cfg.tolerance
        if tol <= 0.0:
            return False
        mode = self.cfg.tolerance_metric
        if mode == "auto":
            mode = "gap" if rec.rel_gap is not None else "kkt"
        if mode == "gap":
            if rec.rel_gap is None:
                return False
            return max(rec.rel_gap, rec.feas_violation) <= tol
        if self.metric == "ergodic":
            return kkt_residual(self.prob, ri.x_bar, ri.y).max() <= tol
        return kkt_residual(self.prob, ri.x_last, ri.y, g=ri.g_last, jac=self._jac()).max() <= tol

    def y_bar(self, st: SolverState) -> np.ndarray:
        return self.ybar_acc / st.T if st.T > 0 else st.y.copy()

    def reset_averages(self, st: SolverState) -> None:
        st.x_prev = st.x.copy()
        st.x_bar = st.x.copy()
        st.T = 0.0
        st.sigma_prev = st.sigma
        self.ybar_acc = np.zeros(self.prob.m)

    # -- the shared inner loop ---------------------------------------------

    def run_inner(
        self,
        st: SolverState,
        *,
        epoch: int,
        tau0_s: float,
        sigma0_s: float,
        delta_xy: float,
        max_inner: int,
        improve_rule: str | None,
        budget_rule: str | None,
    ) -> str:
        """Run one epoch/stage/segment; returns 'schedule', 'cap', or 'tolerance'.

        improve_rule: None (rho frozen), 'alg1' (the adaptive runs' Improve
        step) or 'alg3' (msapd's stage estimate). Except under 'alg3', the
        dual set is cut at rho/mu_lb and the steps follow stepsize_update;
        'alg3' projects onto the whole dual set with constant steps.
        budget_rule: None (max_inner only), 'epoch' (rapdpro's N_s refresh
        from rho_hat) or 'stage' (msapd's N_s rule from rho).

        G and its Jacobian are evaluated once per new iterate and shared by
        the dual extrapolation, the primal step, h1, the recorder and the KKT
        stop test; J only when one of them first needs it. The values at the
        last iterate carry over to the next segment, which starts there.
        """
        prob, c, cfg = self.prob, self.c, self.cfg
        ball = (c.ball_center, c.ball_radius)
        est = st.rho_est
        adaptive = improve_rule != "alg3"
        n_budget = math.inf
        if self._at is not st.x:  # a new start point (first segment, or a warm start)
            self._at, self._gx, self._jx = st.x, prob.g(st.x), prob.jac(st.x)
            for what, val in (("constraint value G(x)", self._gx), ("Jacobian J(x)", self._jx)):
                if not np.isfinite(val).all():
                    raise NumericalError(f"non-finite {what} at entry (iteration {self.total_k})")
        gx = self._gx
        # Every segment starts with x_prev a copy of x (fresh averages).
        gx_prev = gx if np.array_equal(st.x_prev, st.x) else prob.g(st.x_prev)
        tau_prev = st.tau  # tau_{k-1}; the k = 0 call uses tau_{-1} := tau0
        k = 0
        while k < max_inner and k < n_budget:
            tau_k, sigma_k = st.tau, st.sigma
            rho_k = est.rho
            jx = self._jac()

            # Dual extrapolation and cut projection.
            ratio = st.sigma_prev / sigma_k
            z = (1.0 + ratio) * gx - ratio * gx_prev
            lower = min(rho_k, self.rho_cap) / c.mu_lb if adaptive else 0.0
            slab = DualSlab(lower=lower, upper=c.c_bar, m=prob.m)
            y_next = project_dual_set(st.y + sigma_k * z, slab)

            # Primal prox step.
            grad = jx @ y_next
            x_next = prox_f_over_ball(st.x - tau_k * grad, tau_k, prob.objective, ball)

            # Improve (evaluated at the pre-update iterates x_k, x_bar_k).
            beta = beta_bar = h1v = h2v = None
            rho_next = rho_k
            if improve_rule is not None:
                if improve_rule == "alg1":
                    beta = sigma0_s * tau_prev * delta_xy / st.sigma_prev
                    beta_bar = delta_xy / st.T if st.T > 0 else math.inf
                else:  # "alg3"
                    beta = 0.5 * c.D_X**2
                    beta_bar = delta_xy / k if k > 0 else math.inf
                gnx = _operator_norm(jx, prob.m)
                gnxb = jacobian_operator_norm(prob, st.x_bar)
                h1v = h1(gnx, beta, prob.r, prob.L_X)
                h2v = h2(gnxb, beta_bar, prob.r, prob.L_X, c.mu_lb)
                rho_next = max(rho_k, min(c.mu_lb * max(h1v, h2v), self.rho_cap))
                est.advance(rho_next, tau0_s)

            # Ergodic averages: x_bar gains x_{k+1}, y_bar gains y_k.
            t_k = sigma_k / sigma0_s
            x_bar_next = (st.T * st.x_bar + t_k * x_next) / (st.T + t_k)
            self.ybar_acc += t_k * st.y

            # Budget refresh (before the state shift; uses the produced rho).
            if budget_rule == "epoch":
                n_budget = _epoch_budget(est.rho_hat, epoch, tau0_s, sigma0_s, c.D_X, c.D_Y)
            elif budget_rule == "stage":
                n_budget = _stage_budget(rho_next, epoch, tau0_s, sigma0_s, c.D_X, c.D_Y)

            # Step sizes for k+1.
            if adaptive:
                tau_next, sigma_next, _ = stepsize_update(tau_k, sigma_k, sigma0_s, rho_next)
            else:
                tau_next, sigma_next = tau_k, sigma_k

            if self.observer is not None:
                self.observer(
                    IterSnapshot(
                        k=self.total_k,
                        epoch=epoch,
                        x=st.x.copy(),
                        x_bar=st.x_bar.copy(),
                        x_next=x_next.copy(),
                        x_bar_next=x_bar_next.copy(),
                        y=st.y.copy(),
                        y_next=y_next.copy(),
                        tau=tau_k,
                        sigma=sigma_k,
                        sigma_prev=st.sigma_prev,
                        t=t_k,
                        T_next=st.T + t_k,
                        rho=rho_k,
                        rho_next=rho_next,
                        rho_hat_next=est.rho_hat,
                        tau_next=tau_next,
                        sigma_next=sigma_next,
                        beta=beta,
                        beta_bar=beta_bar,
                        h1_val=h1v,
                        h2_val=h2v,
                    )
                )

            # Shift the state.
            st.x_prev, st.x, st.x_bar, st.y = st.x, x_next, x_bar_next, y_next
            gx_prev, gx = gx, prob.g(x_next)
            if not np.isfinite(gx).all():
                raise NumericalError(
                    f"non-finite constraint value G(x_{{k+1}}) at iteration {self.total_k + 1}"
                )
            self._at, self._gx, self._jx = x_next, gx, None
            st.T += t_k
            st.t = t_k
            st.sigma_prev = sigma_k
            st.tau, st.sigma = tau_next, sigma_next
            tau_prev = tau_k
            st.k += 1
            self.total_k += 1
            k += 1

            if self.total_k % cfg.record_every == 0:
                ri = RecordInputs(
                    iter=self.total_k,
                    epoch=epoch,
                    x_last=st.x,
                    x_bar=st.x_bar,
                    y=st.y,
                    rho=rho_k,
                    tau=tau_k,
                    sigma=sigma_k,
                    elapsed_s=time.perf_counter() - self.t0,
                    g_last=gx,
                )
                rec = self.recorder(ri)
                if rec is not None:
                    self.trace.append(rec)
                    if self._should_stop(rec, ri):
                        return "tolerance"
        return "schedule" if k >= n_budget else "cap"


def _finish(driver: _Driver, st: SolverState, termination, epochs, budgets, starts) -> RunResult:
    return RunResult(
        x=st.x.copy(),
        x_bar=st.x_bar.copy(),
        y=st.y.copy(),
        y_bar=driver.y_bar(st),
        trace=driver.trace,
        termination=termination,
        epochs=epochs,
        epoch_budgets=budgets,
        state=st,
        epoch_starts=starts,
    )


def _require_variant(config: SolverConfig, entry: str, *accepted: str) -> None:
    """Reject a config that names another solver: its metric iterate and stop rule would not match."""
    if config.variant not in accepted:
        raise ValueError(
            f"{entry} runs variant {' or '.join(map(repr, accepted))}, "
            f"but config.variant is {config.variant!r}"
        )


def _single_run(problem, constants, config, x0, y0, recorder, observer, f_star, *, improve_rule, rho0, period):
    """The single-loop path shared by apdpro and apd: default steps, then segments of ``period``.

    Each segment after the first re-centers the averages and the
    extrapolation; the iterates and step sizes stay warm.
    """
    tau0, sigma0 = default_step_sizes(problem, constants, config.sigma0)
    if config.tau0 is not None:
        tau0 = config.tau0
    _check_step_feasibility(tau0, sigma0, problem, constants)
    st = _init_state(problem, constants, x0, y0, tau0, sigma0, rho0)
    driver = _Driver(problem, constants, config, recorder, observer, f_star)
    delta_xy = constants.D_X**2 / (2.0 * tau0) + constants.D_Y**2 / (2.0 * sigma0)
    remaining = config.max_iters
    termination = "completed"
    starts = [(0, st.x.copy())]
    while remaining > 0:
        seg = int(min(period, remaining))
        reason = driver.run_inner(
            st,
            epoch=st.s,
            tau0_s=tau0,
            sigma0_s=sigma0,
            delta_xy=delta_xy,
            max_inner=seg,
            improve_rule=improve_rule,
            budget_rule=None,
        )
        remaining -= seg
        if reason == "tolerance":
            termination = "tolerance"
            break
        if remaining > 0:
            driver.reset_averages(st)
            st.s += 1
            starts.append((st.s, st.x.copy()))
    return _finish(driver, st, termination, st.s + 1, [math.inf], starts)


def apdpro(
    problem: ConstrainedProblem,
    constants: ProblemConstants,
    config: SolverConfig,
    x0,
    y0,
    *,
    recorder: Callable | None = None,
    observer: Callable | None = None,
    f_star: float | None = None,
) -> RunResult:
    """Adaptive accelerated primal-dual run (single epoch).

    Parameters
    ----------
    problem, constants : the instance and its derived constants.
    config : SolverConfig
        ``variant`` must be "apdpro". ``max_iters`` is the iteration count
        N; ``rho0`` the initial lower bound (0 is always valid);
        ``disable_estimator`` freezes rho at rho0, which with rho0 = 0 is the
        apd baseline.
    x0, y0 : array_like
        Start iterates; points outside X (or Y) are projected in.
    recorder, observer : callables, optional
        Trace customization hooks; see RecordInputs and IterSnapshot.
    f_star : float, optional
        Reference objective for the relative-gap stop rule.

    Returns
    -------
    RunResult
    """
    _require_variant(config, "apdpro", "apdpro")
    return _single_run(
        problem, constants, config, x0, y0, recorder, observer, f_star,
        improve_rule=None if config.disable_estimator else "alg1",
        rho0=config.rho0,
        period=math.inf,
    )


def rapdpro(
    problem: ConstrainedProblem,
    constants: ProblemConstants,
    config: SolverConfig,
    x0,
    y0,
    *,
    recorder: Callable | None = None,
    observer: Callable | None = None,
    f_star: float | None = None,
) -> RunResult:
    """Restarted adaptive run: epochs s = 0..max_epochs with warm starts.

    Per epoch the step sizes reset to (tau_bar, sigma_bar) with
    tau_bar = (1 - nu0)/(L_XY + L_G^2 sigma_bar/delta), the averages and
    rho_hat reset (rho carries over), and every inner step refreshes the
    budget N_s from rho_hat (see _epoch_budget). Epochs that exhaust
    ``max_iters`` while N_s is still unmet end the run with termination
    reason "budget". The returned x is the last iterate, the convergent
    object for this scheme.
    """
    _require_variant(config, "rapdpro", "rapdpro")
    sigma_bar = config.sigma0
    if sigma_bar is None:
        l_xy = constants.L_XY
        sigma_bar = config.delta * l_xy / problem.L_G**2 if l_xy > 0 else 1.0 / problem.L_G**2
    tau_bar = config.tau0
    tau_cap = (1.0 - config.nu0) / (constants.L_XY + problem.L_G**2 * sigma_bar / config.delta)
    if tau_bar is None:
        tau_bar = tau_cap
    elif tau_bar > tau_cap * (1.0 + 1e-9):
        raise ValueError(
            f"tau0 too large for the restarted scheme: need tau0 <= {tau_cap:.6g}"
        )
    st = _init_state(problem, constants, x0, y0, tau_bar, sigma_bar, config.rho0)
    driver = _Driver(problem, constants, config, recorder, observer, f_star)
    # Restarted listing's convention (primal term not halved).
    delta_xy = constants.D_X**2 / tau_bar + constants.D_Y**2 / (2.0 * sigma_bar)
    budgets: list[float] = []
    starts: list[tuple[int, np.ndarray]] = []
    termination = "completed"
    epochs = 0
    for s in range(config.max_epochs + 1):
        st.s = s
        st.tau, st.sigma = tau_bar, sigma_bar
        driver.reset_averages(st)
        st.rho_est.reset_epoch()  # rho_hat_0^s = 1, unused: the first advance seeds
        starts.append((s, st.x.copy()))
        epochs += 1
        reason = driver.run_inner(
            st,
            epoch=s,
            tau0_s=tau_bar,
            sigma0_s=sigma_bar,
            delta_xy=delta_xy,
            max_inner=config.max_iters,
            improve_rule="alg1",
            budget_rule="epoch",
        )
        budgets.append(_epoch_budget(st.rho_est.rho_hat, s, tau_bar, sigma_bar, constants.D_X, constants.D_Y))
        if reason == "tolerance":
            termination = "tolerance"
            break
        if reason == "cap":
            termination = "budget"
            break
    return _finish(driver, st, termination, epochs, budgets, starts)


def msapd(
    problem: ConstrainedProblem,
    constants: ProblemConstants,
    config: SolverConfig,
    x0,
    y0,
    *,
    recorder: Callable | None = None,
    observer: Callable | None = None,
    f_star: float | None = None,
) -> RunResult:
    """Multi-stage constant-step scheme; stage outputs are the ergodic pairs.

    Stage s uses sigma_0^s = sigma_tilde * 2^{s/2} and tau_0^s =
    1/(L_XY + L_G^2 sigma_0^s), runs the plain-projection inner loop with
    uniform averaging and the stage budget N_s = ceil(max{4/(rho tau_0^s),
    D_Y^2 2^{s+1}/(rho sigma_0^s D_X^2)}), then warm-starts the next stage
    from (x_bar, y_bar). With ``forced_schedule`` = N0 the budgets are fixed
    at ceil(N0 sqrt(2)^s) and the steps follow tau/sqrt(2), sigma*sqrt(2).
    """
    _require_variant(config, "msapd", "msapd")
    tau_forced, sigma_tilde = default_step_sizes(problem, constants, config.sigma0)
    st = _init_state(problem, constants, x0, y0, tau_forced, sigma_tilde, config.rho0)
    driver = _Driver(problem, constants, config, recorder, observer, f_star)
    forced = config.forced_schedule is not None
    budgets: list[float] = []
    starts: list[tuple[int, np.ndarray]] = []
    termination = "completed"
    epochs = 0
    for s in range(config.max_epochs + 1):
        st.s = s
        if forced:
            sigma0_s = sigma_tilde * 2.0 ** (0.5 * s)
            tau0_s = tau_forced / 2.0 ** (0.5 * s)
            n_forced = math.ceil(config.forced_schedule * 2.0 ** (0.5 * s))
        else:
            tau0_s, sigma0_s = default_step_sizes(problem, constants, sigma_tilde * 2.0 ** (0.5 * s))
            n_forced = math.inf
        _check_step_feasibility(tau0_s, sigma0_s, problem, constants)
        st.tau, st.sigma = tau0_s, sigma0_s
        driver.reset_averages(st)
        starts.append((s, st.x.copy()))
        epochs += 1
        delta_xy = constants.D_X**2 / (2.0 * tau0_s) + constants.D_Y**2 / (2.0 * sigma0_s)
        reason = driver.run_inner(
            st,
            epoch=s,
            tau0_s=tau0_s,
            sigma0_s=sigma0_s,
            delta_xy=delta_xy,
            max_inner=min(config.max_iters, n_forced),
            improve_rule="alg3",
            budget_rule=None if forced else "stage",
        )
        if forced:
            budgets.append(n_forced)
        else:
            budgets.append(_stage_budget(st.rho_est.rho, s, tau0_s, sigma0_s, constants.D_X, constants.D_Y))
        if reason == "tolerance":
            termination = "tolerance"
            break
        if reason == "cap" and budgets[-1] == math.inf:
            termination = "budget"
            break
        # Warm start: next stage begins at the ergodic pair.
        st.y = driver.y_bar(st)
        st.x = st.x_bar.copy()
    return _finish(driver, st, termination, epochs, budgets, starts)


def apd_baseline(
    problem: ConstrainedProblem,
    constants: ProblemConstants,
    config: SolverConfig,
    x0,
    y0,
    *,
    recorder: Callable | None = None,
    observer: Callable | None = None,
    f_star: float | None = None,
) -> RunResult:
    """Non-adaptive baseline: rho stays 0, constant steps, uniform averaging.

    With ``variant`` = "apd_restart" the extrapolation and the running
    averages re-center every ``restart_period`` iterations (the iterates and
    step sizes stay warm); restart_period = inf reproduces plain apd.
    """
    _require_variant(config, "apd_baseline", "apd", "apd_restart")
    period = config.restart_period if config.variant == "apd_restart" else math.inf
    if period != math.inf and period < 1:
        raise ValueError("restart_period must be at least 1")
    return _single_run(
        problem, constants, config, x0, y0, recorder, observer, f_star,
        improve_rule=None,
        rho0=0.0,
        period=period,
    )
