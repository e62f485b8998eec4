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
    step off, projecting onto the whole dual set with constant steps,
    optionally re-centering the averages every ``restart_period``
    iterations.

Every entry point builds one ``_Driver``, which owns the run, and calls
``segment`` once per segment, epoch or stage with that segment's start steps
(tau_0^s, sigma_0^s) and its iteration cap; the run's ``SolverState`` keeps
only what outlives a segment. Inside the shared loop the variants differ
only by their row of ``_RULES``: the Improve rule (off, "alg1" for the
adaptive runs, "alg3" for msapd's stages), the budget rule (none, "epoch"
for rapdpro, "stage" for msapd), the iterate they report at, and the
divisor of the primal term of Delta_XY. The dual cut and the step-size
recursion run under "alg1" only; the other rules project onto the whole
dual set with constant steps.

The divisor keeps the listings' two conventions, which intentionally
differ: the single-run loop and msapd's stages use Delta_XY =
D_X^2/(2 tau_0) + D_Y^2/(2 sigma_0), while the restarted listing uses
D_X^2/tau_0^s + D_Y^2/(2 sigma_0^s); each loop follows its own listing
verbatim.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimator import RhoEstimate, h1, h2, improve_caps
from .linalg import NumericalError
from .problem import (
    ConstrainedProblem,
    ProblemConstants,
    _norm,
    _operator_norm,
    _vec,
    jacobian_operator_norm,  # noqa: F401  (unused here; perfbench/tracing.py wraps this name)
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
    "apdpro",
    "rapdpro",
    "msapd",
    "apd_baseline",
    "VARIANTS",
]

# One row per variant: (Improve rule, budget rule, reports at x_bar, divisor of D_X^2/tau_0 in
# Delta_XY). The driver reads the row of config.variant; each entry point accepts only its own.
_RULES = {
    "apdpro": ("alg1", None, False, 2.0),
    "rapdpro": ("alg1", "epoch", False, 1.0),  # the restarted listing does not halve D_X^2/tau_0
    "msapd": ("alg3", "stage", True, 2.0),
    "apd": (None, None, True, 2.0),
    "apd_restart": (None, None, True, 2.0),
}
VARIANTS = tuple(_RULES)

# rapdpro's step-size margin nu0 and balance delta, both in (0, 1). Its restart steps sigma_bar =
# delta L_XY/L_G^2 and tau_bar = (1 - nu0)/(2 L_XY) meet the step condition
# tau_bar (L_XY + L_G^2 sigma_bar/delta) = 1 - nu0 for any such pair, and _epoch_budget carries
# neither constant, so both are margins: as nu0 -> 0 and delta -> 1 the steps become apdpro's
# balancing steps. rapdpro's iterations to tolerance at seeds 0 / 4242 (/ 17 / 99):
#   (nu0, delta)   ppr-5k                  synth-10k               synth-batch
#   (0.5, 0.5)     654 / 654               843 / 852               2232 / 2175
#   (0.25, 0.5)    532 / 532 / 532 / 532   585 / 611 / 598 / 586   1463 / 1432 / 1481 / 1453
#   (0.25, 0.95)   429 / 316               416 / 400               1087 / 1062
#   (0.1, 0.95)    352 / 352               315 / 325               875 / 861
#   (0.05, 0.9)    350 / 350               324 / 322               841 / 820
#   (0.05, 0.95)   340 / 342 / 307 / 340   312 / 310 / 309 / 311   823 / 795 / 817 / 810
#   (0.02, 0.95)   336 / 336 / 336 / 336   316 / 340 / 340 / 341   776 / 765 / 771 / 768
#   (0.05, 0.98)   369 / 402               309 / 305               796 / 783
#   (0.05, 0.99)   300 / 400               303 / 302               790 / 794
# Of the 42 swept pairs (nu0 in {0.02, 0.05, 0.1, 0.15, 0.25, 0.5}, delta in {0.25, 0.5, 0.75, 0.9,
# 0.95, 0.98, 0.99}) the counts broadly fall as nu0 falls and delta rises; every solve reached its
# tolerance. Above delta = 0.95, ppr-5k's count hangs on where an epoch ends (300 at one seed, 400
# at the other). At delta = 0.95 neither of nu0 = 0.02 and 0.05 wins every workload's two-seed
# total: 0.02 takes 1.5% fewer on ppr-5k and 5% fewer on synth-batch, 5.5% more on synth-10k. The
# larger margin is kept. At (0.05, 0.95) no solve takes more iterations than at (0.25, 0.5), at any
# of the four seeds.
_NU0 = 0.05
_DELTA = 0.95


@dataclass
class SolverState:
    """What a run carries from one segment to the next; field names follow the algorithm listings.

    The steps and T restart with each segment, as locals of ``segment``.
    ``y_bar`` is the last segment's sum t_k y_k / T (y0, or y after no
    iteration). ``jac_bar`` holds J(x_bar) for ``_Driver.jac_bar``: J(x)
    at a segment start, where x_bar = x, then the same running average as
    x_bar on problems with quadratic structure. On the others it is None
    from each step until J(x_bar) is first asked for.
    """

    x: np.ndarray
    y: np.ndarray
    x_bar: np.ndarray
    y_bar: np.ndarray
    rho_est: RhoEstimate
    k: int = 0
    jac_bar: np.ndarray | None = None


@dataclass
class SolverConfig:
    """The run's variant, budgets and stop rule; the step sizes come from the problem's constants.

    ``tolerance`` (finite, >= 0, stored as a Python float) = 0 disables
    early stopping; when positive the stop test uses max(relative objective
    gap, feasibility violation) when the recorder's record has a gap, else
    the max KKT residual; a None record skips it. ``max_iters`` and
    ``max_epochs`` are nonnegative integers, ``restart_period`` an integer
    >= 1 (int or integral float, as the INI reads it) or inf (no restart).

    ``bench.run_experiment`` shares one config across the variants it runs,
    so two fields are read by some variants only: ``restart_period`` by
    apd_restart and ``max_epochs`` by rapdpro and msapd.
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
        # A fractional budget would never run out: its last fraction runs as int() = 0-iteration segments.
        for name in ("max_iters", "max_epochs"):
            value = getattr(self, name)
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

    ``x`` is the point the run reports at (its ``_RULES`` row):
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
    zero pattern (|x*_i| under ``threshold``) is computed once, here; each
    record takes its iterate's |x_i| once, for f (bitwise problem.f) and
    the accuracy, the fraction of coordinates whose zero status matches
    x*'s.
    """
    obj = problem.objective
    weights, n = obj.weights, problem.n
    x_ref, f_ref = (None, 0.0) if reference is None else reference
    if x_ref is not None and not (math.isfinite(threshold) and threshold > 0):  # nan or inf: every coordinate would match x*
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    ref_zero = None if x_ref is None else obj.block_norms(x_ref) < threshold

    def record(ri: RecordInputs) -> IterateRecord:
        norms = obj.block_norms(ri.x)
        fv = float(weights.dot(norms))  # dot, not matmul: bitwise, at about half the dispatch cost
        rel = abs(fv - f_ref) / abs(f_ref) if f_ref != 0.0 else None
        acc = None if x_ref is None else float(np.count_nonzero((norms < threshold) == ref_zero) / n)
        feas = _norm(np.maximum(ri.g, 0.0))
        return IterateRecord(ri.iter, ri.epoch, fv, rel, feas, ri.rho, ri.tau, ri.sigma, acc, ri.elapsed_s)

    return record


@dataclass
class IterSnapshot:
    """Full per-iteration view for tests and diagnostics (observer callback).

    Arrays are copies; attach an observer only on small instances.
    ``h1_val`` and ``h2_val`` are None where the step did not evaluate that
    bound: without an Improve rule, or where its cap could not lift rho.
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
    epoch_budgets: list
    state: SolverState
    epoch_starts: list

    @property
    def epochs(self) -> int:
        return len(self.epoch_starts)


def stepsize_update(tau: float, sigma: float, rho_next: float):
    """Advance (tau, sigma) one step: tau' = tau/sqrt(1 + rho_next*tau).

    Returns (tau', sigma') with sigma' = sigma*tau/tau', so the product
    tau*sigma is preserved. Only the adaptive runs (``apdpro``, ``rapdpro``)
    call it; the other variants keep constant steps. Precondition: tau,
    sigma > 0 and rho_next >= 0, as the driver's are: its steps start from
    positive constants (``derive_constants``) and only this update moves
    them, and rho starts at 0 and ``RhoEstimate.advance`` keeps it
    nondecreasing.
    """
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
    1/(L_XY + L_G^2 sigma0)). Precondition: sigma0 > 0 when given, as
    msapd's sigma_tilde 2^(s/2) is; ``derive_constants`` checks L_G finite
    and > 0, and L_XY = c_bar L_X >= 0.
    """
    l_xy, l_g = constants.L_XY, constants.L_G
    if sigma0 is None:
        sigma0 = l_xy / l_g**2 if l_xy > 0 else 1.0 / l_g**2
    tau0 = 1.0 / (l_xy + l_g**2 * sigma0)
    return tau0, sigma0


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
# "non-finite constraint value G", with the iteration count k.
_AT_ENTRY = "(x) at entry (iteration {})"
_AT_STEP = "(x_{{k+1}}) at iteration {}"
_AT_STEP_BAR = "(x_bar_{{k+1}}) at iteration {}"


class _Driver:
    """Runs one solve: owns its state ``st``, the shared loop, the trace, and the oracle at x and x_bar.

    The start point (x0, y0) is checked finite, confined to X and Y, and
    evaluated here. ``gx`` and ``jx`` are always G and J at the current
    iterate st.x, which changes only through ``move`` and ``warm_start``;
    ``gx_bar`` and ``jac_bar`` are G and J at x_bar. The run's ``_RULES``
    row is read here, once. Each ``segment`` call adds the (s, x) pair of
    its start to ``starts`` and its last N_s to ``budgets``; ``finish``
    hands them, the trace and the state to the RunResult.
    """

    def __init__(self, problem, constants, config, x0, y0, recorder, observer, f_star):
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
        self.st = SolverState(x=x0, y=y0, x_bar=x0.copy(), y_bar=y0.copy(), rho_est=RhoEstimate())
        self.prob = problem
        self.c = constants
        self.cfg = config
        self.observer = observer
        self.trace: list[IterateRecord] = []
        self.starts: list[tuple[int, np.ndarray]] = []
        self.budgets: list[float] = []
        self.t0 = time.perf_counter()
        self.zeros_g, self.zeros_j = np.zeros(problem.m), np.zeros(problem.n * problem.m)
        self.improve_rule, self.budget_rule, self.ergodic, self.dx_divisor = _RULES[config.variant]
        if recorder is None:
            recorder = _metrics_recorder(problem, None if f_star is None else (None, f_star))
        self.recorder = recorder
        self.rho_cap = constants.mu_lb * constants.c_bar * (1.0 - 1e-12)
        if self.improve_rule == "alg3":  # msapd's stages start from the certified rho_lb; the others from 0
            self.st.rho_est.rho = min(constants.rho_lb, self.rho_cap)
        self.quadratic = problem.quadratic is not None
        self.move(x0, _AT_ENTRY)

    def move(self, x: np.ndarray, where: str) -> None:
        """Make x the current iterate, with G(x) and J(x) evaluated and checked finite.

        G comes from ``prob.g(x, jx)``: from J on a problem with quadratic
        structure, so no ``constraints`` call is made, else from
        ``constraints``. J is checked first, then G. ``where`` names the point
        in the error message.
        """
        prob = self.prob
        jx = prob.jac(x)
        gx = prob.g(x, jx)
        what = None
        if not _all_finite(jx, self.zeros_j):
            what = "Jacobian J"
        elif not _all_finite(gx, self.zeros_g):
            what = "constraint value G"
        if what is not None:
            raise NumericalError(f"non-finite {what}" + where.format(self.st.k))
        self.st.x, self.gx, self.jx = x, gx, jx

    def jac_bar(self) -> np.ndarray:
        """J(x_bar): J_bar on the quadratic path, an average of J values ``move`` checked; else
        evaluated at most once per x_bar, checked finite, and held in st.jac_bar until x_bar moves."""
        st = self.st
        if st.jac_bar is None:
            jac = self.prob.jac(st.x_bar)
            if not _all_finite(jac, self.zeros_j):
                raise NumericalError(f"non-finite Jacobian J{_AT_STEP_BAR.format(st.k)}")
            st.jac_bar = jac
        return st.jac_bar

    def warm_start(self, last: bool) -> None:
        """Continue from copies of (x_bar, y_bar), with x_bar's held G and J (``gx_bar``, ``jac_bar``).

        After the ``last`` stage only the copies are made, for the state the run returns: nothing
        reads J(x_bar) there, so it is not evaluated, and ``gx`` and ``jx`` stay those of the old x.
        """
        st = self.st
        if not last:
            self.jx, self.gx = self.jac_bar(), self.gx_bar
        st.x, st.y = st.x_bar.copy(), st.y_bar.copy()

    def _should_stop(self, rec: IterateRecord, ri: RecordInputs) -> bool:
        """Tolerance test: the gap when the record has one, else the max KKT residual.

        The KKT test reuses G(ri.x) from ``ri`` and the J the driver holds
        there: J(x) at the last iterate, ``jac_bar`` at x_bar.
        """
        tol = self.cfg.tolerance
        if tol <= 0.0:
            return False
        if rec.rel_gap is not None:
            return max(rec.rel_gap, rec.feas_violation) <= tol
        jac = self.jac_bar() if self.ergodic else self.jx
        return kkt_residual(self.prob, ri.x, ri.y, g=ri.g, jac=jac).max() <= tol

    def finish(self, termination: str) -> RunResult:
        st = self.st
        return RunResult(
            x=st.x.copy(),
            x_bar=st.x_bar.copy(),
            y=st.y.copy(),
            y_bar=st.y_bar.copy(),
            trace=self.trace,
            termination=termination,
            epoch_budgets=self.budgets,
            state=st,
            epoch_starts=self.starts,
        )

    # -- the shared inner loop ---------------------------------------------

    def segment(self, s: int, tau0_s: float, sigma0_s: float, max_inner: int) -> str:
        """Run segment, epoch or stage s from the current iterate for at most ``max_inner`` iterations.

        Returns 'schedule', 'cap', or 'tolerance'. The start seeds x_bar's
        pair with x's (x_bar = x there): fresh x_bar and J_bar buffers (x,
        J(x)) and ``gx_bar`` = G(x). It sets the locals T = 0, (tau, sigma) =
        (tau0_s, sigma0_s), the dual sum and Delta_XY, and rho_hat starts
        again at the step k = 0 (``RhoEstimate.advance``); every exit forms
        st.y_bar from the sum. The rest comes from the run's ``_RULES`` row.
        Improve rule: None (rho frozen), 'alg1' (the adaptive runs' Improve
        step) or 'alg3' (msapd's stage estimate, which the driver starts at
        min(rho_lb, rho_cap) rather than 0: it only sizes N_s here, while under
        'alg1' rho also cuts the dual set and shrinks the steps, and starting
        there made apdpro and rapdpro slower). Under 'alg1' only, the dual
        set is cut at rho/mu_lb and (tau, sigma) follow stepsize_update;
        None and 'alg3' project onto the whole dual set with constant steps.
        rho never exceeds ``rho_cap``, where Improve caps it, so the cut is
        never empty. The averaging weight t_k = sigma_k/sigma0_s is formed
        here in every case. Budget rule: None (max_inner only), 'epoch'
        (rapdpro's N_s refresh from rho_hat) or 'stage' (msapd's N_s rule
        from rho).

        G and its Jacobian are evaluated once per new iterate (``move``) and
        shared by the dual extrapolation, the primal step, h1, the recorder
        and the KKT stop test. The segment starts at the iterate the driver
        already holds, so its start costs no oracle call, at x or at x_bar.
        An evaluated h2, the KKT stop at x_bar and msapd's warm start read
        J(x_bar) from ``jac_bar``. Improve computes each bound only where its
        value at gradient norm 0 can lift rho, so a step whose h2 cannot lift
        it evaluates no J(x_bar).

        On a problem with ``quadratic`` structure (checked when the problem
        is built) each new iterate costs one ``jacobian`` call and no
        ``constraints`` call: ``prob.g`` derives G from J, and st.jac_bar =
        J(x_bar) is updated with x_bar's own weights. The results differ
        from the generic path by rounding only. When the run reports at
        x_bar, G(x_bar) for the record is ``prob.g(x_bar, J_bar)``, from J_bar
        on the quadratic path and one ``constraints`` call on the generic
        one, checked finite on both and kept as ``gx_bar``.

        The record step picks the reporting point (the row's third entry),
        the only place that does: the recorder gets that point and its G in
        ``RecordInputs``.
        """
        prob, c, st = self.prob, self.c, self.st
        quadratic = self.quadratic
        st.x_bar = st.x.copy()  # a copy, as is J_bar: the loop updates both in place (J_bar if quadratic)
        st.jac_bar, self.gx_bar = self.jx.copy(), self.gx
        ybar_sum = np.zeros(prob.m)
        self.starts.append((s, st.x.copy()))
        delta_xy = c.D_X**2 / (self.dx_divisor * tau0_s) + c.D_Y**2 / (2.0 * sigma0_s)

        ball = (prob.strict_point, c.ball_radius)
        est = st.rho_est
        improve_rule, budget_rule, ergodic = self.improve_rule, self.budget_rule, self.ergodic
        k1, k2 = improve_caps(prob.r, prob.L_X, c.mu_lb)
        adaptive = improve_rule == "alg1"
        n_budget = math.inf
        gx_prev = self.gx  # G(x_{-1}) := G(x_0): the extrapolation restarts with the averages
        T = 0.0
        tau, sigma, tau_prev, sigma_prev = tau0_s, sigma0_s, tau0_s, sigma0_s  # tau_{-1} := tau0, sigma_{-1} := sigma0
        stopped = False
        k = 0
        while k < max_inner and k < n_budget:
            tau_k, sigma_k = tau, sigma
            rho_k = est.rho
            gx, jx = self.gx, self.jx

            # Dual extrapolation and cut projection.
            ratio = sigma_prev / sigma_k
            z = (1.0 + ratio) * gx - ratio * gx_prev
            lower = rho_k / c.mu_lb if adaptive else 0.0
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
                    beta = sigma0_s * tau_prev * delta_xy / sigma_prev
                    beta_bar = delta_xy / T if T > 0 else math.inf
                else:  # "alg3"
                    beta = 0.5 * c.D_X**2
                    beta_bar = delta_xy / k if k > 0 else math.inf
                # Each bound falls as its gradient norm grows, so its value at norm 0 caps it. A bound
                # whose cap (in closed form, with a rounding margin) cannot lift the running max is not
                # evaluated: rho_next is max(rho_k, min(mu_lb max(h1, h2), rho_cap)) bitwise, and a
                # skipped h2 asks for no J(x_bar).
                if k1 / math.sqrt(2.0 * beta) * (1.0 + 1e-9) > rho_next:
                    h1v = h1(_operator_norm(jx, prob.m), beta, prob.r, prob.L_X)
                    rho_next = max(rho_next, min(c.mu_lb * h1v, self.rho_cap))
                if k2 / beta_bar * (1.0 + 1e-9) > rho_next:
                    h2v = h2(_operator_norm(self.jac_bar(), prob.m), beta_bar, prob.r, prob.L_X, c.mu_lb)
                    rho_next = max(rho_next, min(c.mu_lb * h2v, self.rho_cap))
                est.advance(rho_next, tau0_s, k)

            # Ergodic averages: x_bar (and J_bar) gain x_{k+1} with weight w_k, in place at the
            # shift below; the dual sum gains t_k y_k.
            t_k = sigma_k / sigma0_s
            w_k = t_k / (T + t_k)
            ybar_sum += t_k * st.y

            # Budget refresh (before the state shift; uses the produced rho).
            if budget_rule == "epoch":
                n_budget = _epoch_budget(est.rho_hat, s, tau0_s, sigma0_s, c.D_X, c.D_Y)
            elif budget_rule == "stage":
                n_budget = _stage_budget(rho_next, s, tau0_s, sigma0_s, c.D_X, c.D_Y)

            # Step sizes for k+1.
            if adaptive:
                tau_next, sigma_next = stepsize_update(tau_k, sigma_k, rho_next)
            else:
                tau_next, sigma_next = tau_k, sigma_k

            if self.observer is not None:
                self.observer(
                    IterSnapshot(
                        k=st.k,
                        epoch=s,
                        x=st.x.copy(),
                        x_bar=st.x_bar.copy(),
                        x_next=x_next.copy(),
                        x_bar_next=st.x_bar + w_k * (x_next - st.x_bar),  # bitwise the update below
                        y=st.y.copy(),
                        y_next=y_next.copy(),
                        tau=tau_k,
                        sigma=sigma_k,
                        t=t_k,
                        T_next=T + t_k,
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
                self.move(x_next, _AT_STEP)
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
                st.jac_bar = None  # not held at the new x_bar until jac_bar is asked
            st.y = y_next
            gx_prev = gx
            T += t_k
            sigma_prev, tau_prev = sigma_k, tau_k
            tau, sigma = tau_next, sigma_next
            k += 1

            x_rec, g_rec = st.x, self.gx
            if ergodic:  # checked here: the stop test's max(rel_gap, nan) would drop a nan
                x_rec = st.x_bar
                g_rec = self.gx_bar = prob.g(x_rec, st.jac_bar)
                if not _all_finite(g_rec, self.zeros_g):
                    raise NumericalError(f"non-finite constraint value G{_AT_STEP_BAR.format(st.k)}")
            ri = RecordInputs(st.k, s, x_rec, g_rec, st.y, rho_k, tau_k, sigma_k,  # positional: half the cost
                              time.perf_counter() - self.t0)
            rec = self.recorder(ri)
            if rec is not None:
                self.trace.append(rec)
                if self._should_stop(rec, ri):
                    stopped = True
                    break
        st.y_bar = ybar_sum / T if T > 0 else st.y.copy()
        self.budgets.append(n_budget)
        return "tolerance" if stopped else "schedule" if k >= n_budget else "cap"


def _require_variant(config: SolverConfig, entry: str, *accepted: str) -> None:
    """Reject a config that names another solver: the driver would run that variant's ``_RULES`` row."""
    if config.variant not in accepted:
        raise ValueError(
            f"{entry} runs variant {' or '.join(map(repr, accepted))}, "
            f"but config.variant is {config.variant!r}"
        )


def _single_run(problem, constants, config, x0, y0, recorder, observer, f_star):
    """The single-loop path shared by apdpro and apd: default steps, then segments of the
    restart period (apd_restart's; one segment for the others).

    Each segment after the first re-centers the averages and the
    extrapolation; the iterates stay warm, and the steps, which rho = 0
    never moves, begin again at the same (tau0, sigma0).
    """
    period = config.restart_period if config.variant == "apd_restart" else math.inf
    tau0, sigma0 = default_step_sizes(constants)
    driver = _Driver(problem, constants, config, x0, y0, recorder, observer, f_star)
    remaining = config.max_iters
    for s in itertools.count():
        seg = int(min(period, remaining))
        reason = driver.segment(s, tau0, sigma0, seg)
        remaining -= seg
        if reason == "tolerance" or remaining <= 0:
            return driver.finish("tolerance" if reason == "tolerance" else "completed")


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
        The default recorder's reference for rel_gap; ignored with ``recorder``.

    Returns
    -------
    RunResult
    """
    _require_variant(config, "apdpro", "apdpro")
    return _single_run(problem, constants, config, x0, y0, recorder, observer, f_star)


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
    nu0 = 0.05 and delta = 0.95 (``_NU0``, ``_DELTA``, chosen by a sweep);
    for L_XY > 0 both are 95% of apdpro's balancing steps. The averages
    reset, and rho_hat starts again at each epoch's first step, where
    ``RhoEstimate.advance`` seeds it at k = 0 (rho carries over). Every
    inner step refreshes the budget N_s from rho_hat (see _epoch_budget),
    and an epoch ends after the first step j with j >= N_s. Epochs that exhaust
    ``max_iters`` while N_s is still unmet end the run with termination
    reason "budget". The returned x is the last iterate, the convergent
    object for this scheme.
    """
    _require_variant(config, "rapdpro", "rapdpro")
    l_xy, l_g2 = constants.L_XY, constants.L_G**2
    sigma_bar = _DELTA * l_xy / l_g2 if l_xy > 0 else 1.0 / l_g2
    tau_bar = (1.0 - _NU0) / (l_xy + l_g2 * sigma_bar / _DELTA)
    driver = _Driver(problem, constants, config, x0, y0, recorder, observer, f_star)
    for s in range(config.max_epochs + 1):
        reason = driver.segment(s, tau_bar, sigma_bar, config.max_iters)
        if reason != "schedule":
            return driver.finish("tolerance" if reason == "tolerance" else "budget")
    return driver.finish("completed")


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
    from (x_bar, y_bar). rho starts at rho_lb <= mu'y*, certified at set-up by
    weak duality at the origin and at one point of the segment from it to p,
    the point behind the lower bound on f* (``derive_constants``, which says
    why that point stays away from p), so N_s is finite from the first
    iteration unless rho_lb = 0.
    These tau_0^s are the largest feasible steps, so no feasibility check
    runs. ``max_iters`` caps each stage (README, Budgets).
    """
    _require_variant(config, "msapd", "msapd")
    sigma_tilde = default_step_sizes(constants)[1]
    driver = _Driver(problem, constants, config, x0, y0, recorder, observer, f_star)
    for s in range(config.max_epochs + 1):
        reason = driver.segment(s, *default_step_sizes(constants, sigma_tilde * 2.0 ** (0.5 * s)), config.max_iters)
        if reason == "tolerance":
            return driver.finish("tolerance")
        if reason == "cap" and driver.budgets[-1] == math.inf:
            return driver.finish("budget")
        driver.warm_start(last=s == config.max_epochs)
    return driver.finish("completed")


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
    averages re-center every ``restart_period`` iterations (the iterates stay
    warm, and the steps are constant); restart_period = inf reproduces plain
    apd.
    """
    _require_variant(config, "apd_baseline", "apd", "apd_restart")
    return _single_run(problem, constants, config, x0, y0, recorder, observer, f_star)
