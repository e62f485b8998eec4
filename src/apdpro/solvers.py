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

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimator import RhoEstimate, h1, h2
from .linalg import NumericalError
from .problem import (
    ConstrainedProblem,
    ProblemConstants,
    _norm,
    _operator_norm,
    _vec,
    jacobian_operator_norm,
    kkt_residual,
)
from .prox import project_dual_set, prox_f_over_ball

__all__ = [
    "SolverState",
    "SolverConfig",
    "RunResult",
    "IterateRecord",
    "RecordInputs",
    "IterSnapshot",
    "stepsize_update",
    "default_step_sizes",
    "resolve_metric_iterate",
    "apdpro",
    "rapdpro",
    "msapd",
    "apd_baseline",
    "VARIANTS",
]

VARIANTS = ("apdpro", "rapdpro", "msapd", "apd", "apd_restart")

# rapdpro's step-size margin nu0 and balance delta, both in (0, 1).
_NU0 = 0.25
_DELTA = 0.5


@dataclass
class SolverState:
    """Mutable per-run state; field names follow the algorithm listings.

    ``jac_bar`` is J(x_bar), kept as the same running average as x_bar on
    problems with quadratic structure (J(x) at a segment start). On the
    others it is J(x_bar) once a KKT stop test has evaluated it there, and
    None until then. The loop updates x_bar and jac_bar in place; each
    segment start gives them fresh buffers.
    """

    x: np.ndarray
    y: np.ndarray
    x_bar: np.ndarray
    T: float
    tau: float
    sigma: float
    sigma_prev: float
    rho_est: RhoEstimate
    k: int = 0
    s: int = 0
    jac_bar: np.ndarray | None = None


@dataclass
class SolverConfig:
    """The run's variant, budgets and stop rule; the step sizes come from the problem's constants.

    ``tolerance`` (finite, >= 0, stored as a Python float) = 0 disables
    early stopping; when positive the stop test uses max(relative objective
    gap, feasibility violation) against a supplied reference objective
    value, else the max KKT residual. ``max_iters`` and ``max_epochs`` are
    nonnegative integers, ``restart_period`` an integer >= 1 (an int or an
    integral float, as the INI reads it), or inf for no restart.

    One config is shared across variants by ``bench.run_comparison``, so two
    fields are read by some variants only: ``restart_period`` by apd_restart
    and ``max_epochs`` by rapdpro and msapd.
    """

    variant: str = "apdpro"
    max_iters: int = 1000
    max_epochs: int = 0
    restart_period: float = math.inf
    tolerance: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance!r}")
        self.tolerance = float(self.tolerance)
        # A fractional period would run int(period)-iteration segments.
        period = self.restart_period
        if not (period == math.inf or (period >= 1 and float(period).is_integer())):
            raise ValueError(f"restart_period must be an integer >= 1 or inf, got {period!r}")
        for name in ("max_iters", "max_epochs"):
            _check_budget(name, getattr(self, name))


def _check_budget(name: str, value) -> None:
    """Reject an iteration or epoch budget that is not a nonnegative integer, naming it.

    A fractional budget would never run out: its last fraction runs as
    int() = 0-iteration segments.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


@dataclass(slots=True)
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


@dataclass(slots=True)
class RecordInputs:
    """What the engine hands to a recorder after each iteration.

    ``x`` is the point the run reports at (``resolve_metric_iterate``):
    x_{k+1} for apdpro and rapdpro, x_bar_{k+1} for the others. ``g`` is
    G(x), already evaluated and checked finite by the engine.

    The arrays are the loop's working buffers (x_bar is updated in place),
    valid only during the recorder call; copy them to keep them.
    """

    iter: int
    epoch: int
    x: np.ndarray
    g: np.ndarray
    y: np.ndarray
    rho: float
    tau: float
    sigma: float
    elapsed_s: float


def _metrics_recorder(problem: ConstrainedProblem, reference, threshold: float = 1e-8):
    """The recorder of one run: each call returns the IterateRecord at ``ri.x``, with G = ``ri.g``.

    ``reference`` is (x*, f*) or None. rel_gap needs f* != 0 and
    active_set_acc needs x*, else they stay None (empty CSV fields). x*'s
    zero pattern (block norms under ``threshold``) is computed once, here;
    each record takes its iterate's block norms once, for f (bitwise
    problem.f) and the accuracy, the fraction of blocks whose zero status
    matches x*'s.
    """
    obj = problem.objective
    weights, blocks = obj.weights, len(obj.blocks)
    x_ref, f_ref = (None, 0.0) if reference is None else reference
    if x_ref is not None and not (math.isfinite(threshold) and threshold > 0):  # nan or inf: every block would match x*
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    ref_zero = None if x_ref is None else obj.block_norms(x_ref) < threshold

    def record(ri: RecordInputs) -> IterateRecord:
        norms = obj.block_norms(ri.x)
        fv = float(weights.dot(norms))  # dot, not matmul: bitwise, at about half the dispatch cost
        rel = abs(fv - f_ref) / abs(f_ref) if f_ref != 0.0 else None
        acc = None if x_ref is None else float(np.count_nonzero((norms < threshold) == ref_zero) / blocks)
        feas = _norm(np.maximum(ri.g, 0.0))
        return IterateRecord(ri.iter, ri.epoch, fv, rel, feas, ri.rho, ri.tau, ri.sigma, acc, ri.elapsed_s)

    return record


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

    ``epoch_starts`` holds the (s, iterate) pair at each epoch, stage or
    restart-segment start, for contraction diagnostics, and
    ``epoch_budgets`` the last N_s of each (math.inf where no budget rule
    set one: the single-run variants, or no iteration ran); ``epochs`` is
    their common length.
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


def stepsize_update(tau: float, sigma: float, rho_next: float):
    """Advance (tau, sigma) one step: tau' = tau/sqrt(1 + rho_next*tau).

    Returns (tau', sigma') with sigma' = sigma*tau/tau'. rho_next = 0
    returns the inputs unchanged (exact identity, so constant-step
    baselines never accumulate rounding drift); the product tau*sigma is
    preserved.
    """
    if tau <= 0 or sigma <= 0:
        raise ValueError("step sizes must be positive")
    if rho_next < 0:
        raise ValueError("rho_next must be nonnegative")
    if rho_next == 0.0:
        return tau, sigma
    tau_new = tau / math.sqrt(1.0 + rho_next * tau)
    return tau_new, sigma * (tau / tau_new)


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


def default_step_sizes(constants: ProblemConstants, sigma0: float | None = None):
    """Balancing rule sigma0 = L_XY/L_G^2 (so L_XY = L_G^2 sigma0), tau0 = 1/(2 L_XY).

    With ``sigma0`` given, only tau0 is derived (largest feasible value
    1/(L_XY + L_G^2 sigma0)).
    """
    l_xy, l_g = constants.L_XY, constants.L_G
    if sigma0 is None:
        sigma0 = l_xy / l_g**2 if l_xy > 0 else 1.0 / l_g**2
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    tau0 = 1.0 / (l_xy + l_g**2 * sigma0)
    return tau0, sigma0


def resolve_metric_iterate(variant: str) -> str:
    """Which iterate carries the metrics: last for the adaptive runs, ergodic else."""
    return "last" if variant in ("apdpro", "rapdpro") else "ergodic"


def _init_state(problem, constants, x0, y0, tau0, sigma0) -> SolverState:
    x0 = np.array(_vec(x0, problem.n, "x0"), dtype=float)
    y0 = np.array(_vec(y0, problem.m, "y0"), dtype=float)
    for name, z in (("x0", x0), ("y0", y0)):  # the projections below would hide a nan y0 as 0
        if not np.isfinite(z).all():
            raise ValueError(f"{name} must be finite, got a nan or inf entry")
    # Confine the start to X and Y so the convergence theory's hypotheses hold.
    center = problem.strict_point
    d = x0 - center
    nd = float(np.linalg.norm(d))
    if nd > constants.ball_radius:
        x0 = center + d * (constants.ball_radius / nd)
    y0 = project_dual_set(y0, 0.0, constants.c_bar)
    return SolverState(
        x=x0,
        y=y0,
        x_bar=x0.copy(),
        T=0.0,
        tau=tau0,
        sigma=sigma0,
        sigma_prev=sigma0,
        rho_est=RhoEstimate(),
    )


def _average_into(avg: np.ndarray, new: np.ndarray, w: float) -> None:
    """avg += w*(new - avg): the running average with weight w = t/(T + t), in place."""
    d = new - avg
    d *= w
    avg += d


def _all_finite(a: np.ndarray, zeros: np.ndarray) -> bool:
    """No nan or inf in ``a``, given ``zeros`` of a.size entries: exact, as 0*v is +-0 for
    finite v and nan for inf and nan, and the dot product cannot overflow. An inf entry
    also raises numpy's invalid flag (a RuntimeWarning under the default error state)."""
    return math.isfinite(a.ravel().dot(zeros))


# Where a non-finite G or J was found: completes "non-finite Jacobian J" or
# "non-finite constraint value G", with the iteration count st.k.
_AT_ENTRY = "(x) at entry (iteration {})"
_AT_STEP = "(x_{{k+1}}) at iteration {}"
_AT_STEP_BAR = "(x_bar_{{k+1}}) at iteration {}"
_AT_WARM_START = "(x_bar) at warm start (iteration {})"


class _Driver:
    """Owns the shared loop, the trace, the dual running average, and the oracle at st.x.

    ``gx`` and ``jx`` are always G and J at the current iterate st.x, which
    changes only through ``move``; the start point is evaluated here.
    ``starts`` gets the (s, x) pair of each segment, epoch or stage
    (``begin``) and ``budgets`` its last N_s (``run_inner``).
    """

    def __init__(self, problem, constants, config, st, recorder, observer, f_star):
        self.prob = problem
        self.c = constants
        self.cfg = config
        self.observer = observer
        self.trace: list[IterateRecord] = []
        self.starts: list[tuple[int, np.ndarray]] = []
        self.budgets: list[float] = []
        self.t0 = time.perf_counter()
        self.ybar_acc = np.zeros(problem.m)
        self.zeros_g, self.zeros_j = np.zeros(problem.m), np.zeros(problem.n * problem.m)
        self.ergodic = resolve_metric_iterate(config.variant) == "ergodic"
        if recorder is None:
            recorder = _metrics_recorder(problem, None if f_star is None else (None, f_star))
        self.recorder = recorder
        self.rho_cap = constants.mu_lb * constants.c_bar * (1.0 - 1e-12)
        self.quadratic = problem.quadratic is not None
        self.move(st, st.x, _AT_ENTRY)

    def move(self, st: SolverState, x: np.ndarray, where: str, jx: np.ndarray | None = None) -> None:
        """Make x the current iterate, with G(x) and J(x) evaluated and checked finite.

        ``jx``, when given, is J(x) already known. On a problem with quadratic
        structure G comes from J (``g_from_jac``), so no ``constraints`` call
        is made, and G is non-finite whenever J is: its check covers both.
        ``where`` names the point in the error message.
        """
        prob = self.prob
        if jx is None:
            jx = prob.jac(x)
        what = None
        if self.quadratic:
            gx = prob.g_from_jac(x, jx)
            if not _all_finite(gx, self.zeros_g):
                what = "Jacobian J"
        else:
            gx = prob.g(x)
            if not _all_finite(jx, self.zeros_j):
                what = "Jacobian J"
            elif not _all_finite(gx, self.zeros_g):
                what = "constraint value G"
        if what is not None:
            raise NumericalError(f"non-finite {what}" + where.format(st.k))
        st.x, self.gx, self.jx = x, gx, jx

    def begin(self, st: SolverState, s: int) -> None:
        """Start segment, epoch or stage s at st.x: fresh averages (J_bar = J(x)), the start recorded.

        x_bar and J_bar are copies: ``run_inner`` updates both in place.
        """
        st.s = s
        st.x_bar = st.x.copy()
        st.T = 0.0
        st.sigma_prev = st.sigma
        st.jac_bar = self.jx.copy() if self.quadratic else None
        self.ybar_acc = np.zeros(self.prob.m)
        self.starts.append((s, st.x.copy()))

    def _should_stop(self, rec: IterateRecord, ri: RecordInputs, st: SolverState) -> bool:
        """Tolerance test: the gap when the record has one, else the max KKT residual.

        The KKT test reuses G(ri.x) from ``ri`` and the J the loop holds
        there: J(x) at the last iterate, J_bar at x_bar. J(x_bar), where the
        loop does not hold it yet (the generic path), is evaluated, checked
        finite and kept in st.jac_bar for the next iteration's h2.
        """
        tol = self.cfg.tolerance
        if tol <= 0.0:
            return False
        if rec.rel_gap is not None:
            return max(rec.rel_gap, rec.feas_violation) <= tol
        jac = self.jx
        if self.ergodic:
            if st.jac_bar is None:
                st.jac_bar = self.prob.jac(st.x_bar)
                if not _all_finite(st.jac_bar, self.zeros_j):
                    raise NumericalError(f"non-finite Jacobian J{_AT_STEP_BAR.format(st.k)}")
            jac = st.jac_bar
        return kkt_residual(self.prob, ri.x, ri.y, g=ri.g, jac=jac).max() <= tol

    def y_bar(self, st: SolverState) -> np.ndarray:
        return self.ybar_acc / st.T if st.T > 0 else st.y.copy()

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
        """Run one epoch/stage/segment from ``begin``; returns 'schedule', 'cap', or 'tolerance'.

        improve_rule: None (rho frozen), 'alg1' (the adaptive runs' Improve
        step) or 'alg3' (msapd's stage estimate). Except under 'alg3', the
        dual set is cut at rho/mu_lb and (tau, sigma) follow stepsize_update;
        'alg3' projects onto the whole dual set with constant steps. The
        averaging weight t_k = sigma_k/sigma0_s is formed here in both cases.
        budget_rule: None (max_inner only), 'epoch' (rapdpro's N_s refresh
        from rho_hat) or 'stage' (msapd's N_s rule from rho). The last N_s
        goes to ``budgets``.

        G and its Jacobian are evaluated once per new iterate (``move``) and
        shared by the dual extrapolation, the primal step, h1, the recorder
        and the KKT stop test. The segment starts at the iterate the driver
        already holds, so its start costs no oracle call.

        On a problem with ``quadratic`` structure (checked when the problem
        is built) each new iterate costs one ``jacobian`` call and no
        ``constraints`` call: G comes from J (``g_from_jac``), and
        st.jac_bar = J(x_bar) is updated with x_bar's own weights. J_bar
        serves h2 and, when the run reports at x_bar, G(x_bar) for the
        record and the KKT stop there. The results differ from the generic
        path by rounding only. On the generic path G(x_bar) for such a
        record is evaluated here, once, and checked finite.

        The record step picks the reporting point, the only place that
        does: the recorder gets that point and its G in ``RecordInputs``.
        """
        prob, c = self.prob, self.c
        quadratic = self.quadratic
        ball = (prob.strict_point, c.ball_radius)
        est = st.rho_est
        adaptive = improve_rule != "alg3"
        ergodic = self.ergodic
        n_budget = math.inf
        gx_prev = self.gx  # G(x_{-1}) := G(x_0): the extrapolation restarts with the averages
        tau_prev = st.tau  # tau_{k-1}; the k = 0 call uses tau_{-1} := tau0
        stopped = False
        k = 0
        while k < max_inner and k < n_budget:
            tau_k, sigma_k = st.tau, st.sigma
            rho_k = est.rho
            gx, jx = self.gx, self.jx

            # Dual extrapolation and cut projection.
            ratio = st.sigma_prev / sigma_k
            z = (1.0 + ratio) * gx - ratio * gx_prev
            lower = min(rho_k, self.rho_cap) / c.mu_lb if adaptive else 0.0
            y_next = project_dual_set(st.y + sigma_k * z, lower, c.c_bar)

            # Primal prox step; dot, not matmul: an n-by-1 J times a length-1 y misses BLAS under @.
            v = jx.dot(y_next)
            v *= -tau_k
            v += st.x
            x_next = prox_f_over_ball(v, tau_k, prob.objective, ball)

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
                if st.jac_bar is None:  # generic path, J(x_bar_k) not held
                    gnxb = jacobian_operator_norm(prob, st.x_bar)
                else:
                    gnxb = _operator_norm(st.jac_bar, prob.m)
                if not math.isfinite(gnxb):  # max() below would drop a nan h2
                    raise NumericalError(f"non-finite Jacobian J(x_bar_k) at iteration {st.k}")
                h1v = h1(gnx, beta, prob.r, prob.L_X)
                h2v = h2(gnxb, beta_bar, prob.r, prob.L_X, c.mu_lb)
                rho_next = max(rho_k, min(c.mu_lb * max(h1v, h2v), self.rho_cap))
                est.advance(rho_next, tau0_s)

            # Ergodic averages: x_bar (and J_bar) gain x_{k+1} with weight w_k, in place at the
            # shift below; y_bar gains y_k.
            t_k = sigma_k / sigma0_s
            w_k = t_k / (st.T + t_k)
            self.ybar_acc += t_k * st.y

            # Budget refresh (before the state shift; uses the produced rho).
            if budget_rule == "epoch":
                n_budget = _epoch_budget(est.rho_hat, epoch, tau0_s, sigma0_s, c.D_X, c.D_Y)
            elif budget_rule == "stage":
                n_budget = _stage_budget(rho_next, epoch, tau0_s, sigma0_s, c.D_X, c.D_Y)

            # Step sizes for k+1.
            if adaptive:
                tau_next, sigma_next = stepsize_update(tau_k, sigma_k, rho_next)
            else:
                tau_next, sigma_next = tau_k, sigma_k

            if self.observer is not None:
                self.observer(
                    IterSnapshot(
                        k=st.k,
                        epoch=epoch,
                        x=st.x.copy(),
                        x_bar=st.x_bar.copy(),
                        x_next=x_next.copy(),
                        x_bar_next=st.x_bar + w_k * (x_next - st.x_bar),  # bitwise the update below
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
            st.k += 1
            try:
                self.move(st, x_next, _AT_STEP)
            except NumericalError as exc:  # no cost in CPython 3.11 until raised
                # Name the layer whose output went non-finite first; with both finite, the oracle failed.
                for point, value, layer in (("y", y_next, "dual projection"), ("x", x_next, "prox")):
                    if not np.isfinite(value).all():
                        what = f"{point}_{{k+1}} from the {layer}"
                        raise NumericalError(f"non-finite {what} at iteration {st.k}") from exc
                raise
            _average_into(st.x_bar, x_next, w_k)
            if quadratic:
                _average_into(st.jac_bar, self.jx, w_k)
            else:
                st.jac_bar = None
            st.y = y_next
            gx_prev = gx
            st.T += t_k
            st.sigma_prev = sigma_k
            st.tau, st.sigma = tau_next, sigma_next
            tau_prev = tau_k
            k += 1

            x_rec, g_rec = st.x, self.gx
            if ergodic:
                x_rec = st.x_bar
                if quadratic:  # from J_bar, an average of checked Jacobians
                    g_rec = prob.g_from_jac(x_rec, st.jac_bar)
                else:  # checked here: the stop test's max(rel_gap, nan) would drop a nan
                    g_rec = prob.g(x_rec)
                    if not _all_finite(g_rec, self.zeros_g):
                        raise NumericalError(f"non-finite constraint value G{_AT_STEP_BAR.format(st.k)}")
            ri = RecordInputs(st.k, epoch, x_rec, g_rec, st.y, rho_k, tau_k, sigma_k,  # positional: half the cost
                              time.perf_counter() - self.t0)
            rec = self.recorder(ri)
            if rec is not None:
                self.trace.append(rec)
                if self._should_stop(rec, ri, st):
                    stopped = True
                    break
        self.budgets.append(n_budget)
        return "tolerance" if stopped else "schedule" if k >= n_budget else "cap"


def _finish(driver: _Driver, st: SolverState, termination: str) -> RunResult:
    return RunResult(
        x=st.x.copy(),
        x_bar=st.x_bar.copy(),
        y=st.y.copy(),
        y_bar=driver.y_bar(st),
        trace=driver.trace,
        termination=termination,
        epochs=len(driver.starts),
        epoch_budgets=driver.budgets,
        state=st,
        epoch_starts=driver.starts,
    )


def _require_variant(config: SolverConfig, entry: str, *accepted: str) -> None:
    """Reject a config that names another solver: its metric iterate and stop rule would not match."""
    if config.variant not in accepted:
        raise ValueError(
            f"{entry} runs variant {' or '.join(map(repr, accepted))}, "
            f"but config.variant is {config.variant!r}"
        )


def _single_run(problem, constants, config, x0, y0, recorder, observer, f_star, *, improve_rule, period):
    """The single-loop path shared by apdpro and apd: default steps, then segments of ``period``.

    Each segment after the first re-centers the averages and the
    extrapolation; the iterates and step sizes stay warm.
    """
    tau0, sigma0 = default_step_sizes(constants)
    st = _init_state(problem, constants, x0, y0, tau0, sigma0)
    driver = _Driver(problem, constants, config, st, recorder, observer, f_star)
    delta_xy = constants.D_X**2 / (2.0 * tau0) + constants.D_Y**2 / (2.0 * sigma0)
    remaining = config.max_iters
    driver.begin(st, 0)
    while True:
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
        if reason == "tolerance" or remaining <= 0:
            return _finish(driver, st, "tolerance" if reason == "tolerance" else "completed")
        driver.begin(st, st.s + 1)


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
        N. The estimate starts at rho = 0 and always runs; ``apd_baseline``
        is this loop with it off and rho fixed at 0.
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
        improve_rule="alg1",
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

    Per epoch the step sizes reset to (tau_bar, sigma_bar), with
    sigma_bar = delta L_XY/L_G^2 (1/L_G^2 when L_XY = 0) and
    tau_bar = (1 - nu0)/(L_XY + L_G^2 sigma_bar/delta) for the fixed
    nu0 = 1/4 and delta = 1/2. The averages and rho_hat reset (rho carries
    over), and every inner step refreshes the budget N_s from rho_hat (see
    _epoch_budget). Epochs that exhaust ``max_iters`` while N_s is still
    unmet end the run with termination reason "budget". The returned x is
    the last iterate, the convergent object for this scheme.
    """
    _require_variant(config, "rapdpro", "rapdpro")
    l_xy, l_g2 = constants.L_XY, constants.L_G**2
    sigma_bar = _DELTA * l_xy / l_g2 if l_xy > 0 else 1.0 / l_g2
    tau_bar = (1.0 - _NU0) / (l_xy + l_g2 * sigma_bar / _DELTA)
    st = _init_state(problem, constants, x0, y0, tau_bar, sigma_bar)
    driver = _Driver(problem, constants, config, st, recorder, observer, f_star)
    # Restarted listing's convention (primal term not halved).
    delta_xy = constants.D_X**2 / tau_bar + constants.D_Y**2 / (2.0 * sigma_bar)
    for s in range(config.max_epochs + 1):
        st.tau, st.sigma = tau_bar, sigma_bar
        driver.begin(st, s)
        st.rho_est.reset_epoch()  # rho_hat_0^s = 1, unused: the first advance seeds
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
        if reason != "schedule":
            return _finish(driver, st, "tolerance" if reason == "tolerance" else "budget")
    return _finish(driver, st, "completed")


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
    from (x_bar, y_bar). These tau_0^s are the largest feasible steps, so no
    feasibility check runs.
    """
    _require_variant(config, "msapd", "msapd")
    tau0, sigma_tilde = default_step_sizes(constants)
    st = _init_state(problem, constants, x0, y0, tau0, sigma_tilde)
    driver = _Driver(problem, constants, config, st, recorder, observer, f_star)
    for s in range(config.max_epochs + 1):
        tau0_s, sigma0_s = default_step_sizes(constants, sigma_tilde * 2.0 ** (0.5 * s))
        st.tau, st.sigma = tau0_s, sigma0_s
        driver.begin(st, s)
        delta_xy = constants.D_X**2 / (2.0 * tau0_s) + constants.D_Y**2 / (2.0 * sigma0_s)
        reason = driver.run_inner(
            st,
            epoch=s,
            tau0_s=tau0_s,
            sigma0_s=sigma0_s,
            delta_xy=delta_xy,
            max_inner=config.max_iters,
            improve_rule="alg3",
            budget_rule="stage",
        )
        if reason == "tolerance":
            return _finish(driver, st, "tolerance")
        if reason == "cap" and driver.budgets[-1] == math.inf:
            return _finish(driver, st, "budget")
        # The next stage begins at the ergodic pair; J(x_bar) is J_bar where the loop holds it.
        st.y = driver.y_bar(st)
        driver.move(st, st.x_bar.copy(), _AT_WARM_START, st.jac_bar)
    return _finish(driver, st, "completed")


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
    return _single_run(
        problem, constants, config, x0, y0, recorder, observer, f_star,
        improve_rule=None,
        period=period,
    )
