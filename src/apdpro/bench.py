"""Experiment driver: instances, references, metrics, CSV traces.

Wires a configured instance (synthetic or graph) to a solver variant,
obtains a reference solution (closed-form oracle, a cached exact KKT solve
or long run, or file), attaches the metric recorder, and writes one CSV row
per recorded iteration with the exact header contract used by the plotting
side.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import tempfile
import typing
import warnings
from dataclasses import dataclass
from configparser import ConfigParser

import numpy as np

from .linalg import NumericalError, cg_solve
from .pagerank import build_ppr_problem, load_graph, make_synthetic_instance
from .problem import ConstrainedProblem, ProblemConstants, derive_constants, kkt_residual
from .solvers import (
    VARIANTS,
    RunResult,
    SolverConfig,
    _check_budget,
    _metrics_recorder,
    apd_baseline,
    apdpro,
    msapd,
    rapdpro,
)

__all__ = [
    "ExperimentConfig",
    "InstanceSpec",
    "InstanceBundle",
    "ReferenceUnconvergedError",
    "load_experiment_config",
    "build_instance",
    "reference_solution",
    "get_reference",
    "make_recorder",
    "write_csv",
    "run_experiment",
    "run_comparison",
    "CSV_HEADER",
]

CSV_HEADER = "iter,epoch,objective,rel_gap,feas_violation,rho,tau,sigma,active_set_acc,elapsed_s"

_RUNNERS = {
    "apdpro": apdpro,
    "rapdpro": rapdpro,
    "msapd": msapd,
    "apd": apd_baseline,
    "apd_restart": apd_baseline,
}


# A reference must reach this KKT residual, whichever way it was computed.
_REFERENCE_KKT = 1e-10
# Sign patterns the exact reference tries before it falls back to the long run.
_ACTIVE_SET_STEPS = 50


class ReferenceUnconvergedError(RuntimeError):
    """Long-run reference exhausted its budget before the target residual."""


@dataclass(frozen=True)
class InstanceSpec:
    """What to build: kind = 'synthetic' (n, center, level) or 'graph'
    (path, alpha, b, s, r_rule).

    ``alpha``, ``b`` and ``level`` are stored as Python floats, so a value
    given as a numpy float keys the same reference cache entry.
    """

    kind: str
    n: int = 1
    center: float = 2.0
    level: float = 1.0
    path: str | None = None
    alpha: float = 0.5
    b: float = -0.05
    s: str = "uniform"
    r_rule: str = "degree"

    def __post_init__(self):
        if self.kind not in ("synthetic", "graph"):
            raise ValueError("instance kind must be 'synthetic' or 'graph'")
        if self.kind == "graph" and not self.path:
            raise ValueError("graph instances need a path")
        for name in ("alpha", "b", "level"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass
class ExperimentConfig:
    """One experiment: instance + solver(s) + reference policy + output."""

    instance: InstanceSpec
    solver: SolverConfig
    variants: tuple = ()
    reference_mode: str = "none"  # none | oracle | long-run | file
    reference_path: str | None = None
    budget_iters: int = 200000
    budget_epochs: int = 60
    truncation: float = 1e-8
    output_path: str | None = None
    x0_rule: str = "zeros"  # zeros | strict

    def __post_init__(self):
        if not (math.isfinite(self.truncation) and self.truncation > 0):  # nan or inf: every block would match x*
            raise ValueError(f"truncation must be positive and finite, got {self.truncation!r}")
        if self.reference_mode not in ("none", "oracle", "long-run", "file"):
            raise ValueError(f"unknown reference mode {self.reference_mode!r}")
        if self.reference_mode == "file" and not self.reference_path:
            raise ValueError("file reference mode needs a path")
        if self.x0_rule not in ("zeros", "strict"):
            raise ValueError("x0 must be 'zeros' or 'strict'")
        for name in ("budget_iters", "budget_epochs"):  # here, so no instance is built for a bad budget
            _check_budget(name, getattr(self, name))
        if not self.variants:
            self.variants = (self.solver.variant,)
        for variant in self.variants:  # here, so a typo fails before any variant runs
            if variant not in VARIANTS:
                raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass
class InstanceBundle:
    """A constructed problem with its constants and bookkeeping identity."""

    problem: ConstrainedProblem
    constants: ProblemConstants
    oracle: tuple | None
    identity: str
    cache_dir: str | None
    label: str


def build_instance(spec: InstanceSpec) -> InstanceBundle:
    """Construct the problem and its derived constants."""
    if spec.kind == "synthetic":
        problem, x_star, y_star = make_synthetic_instance(spec.n, spec.center, spec.level)
        sha = hashlib.sha256(problem.strict_point.tobytes()).hexdigest()[:16]  # every bit of c, as a graph's file content
        identity = f"synthetic|n={spec.n}|center_sha={sha}|level={spec.level!r}"
        oracle, cache_dir, label = (x_star, y_star), None, "synthetic"
    else:
        problem = build_ppr_problem(load_graph(spec.path), spec.alpha, spec.b, spec.s, spec.r_rule)
        with open(spec.path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()[:16]
        identity = f"graph|sha={sha}|alpha={spec.alpha!r}|b={spec.b!r}|s={spec.s}|r_rule={spec.r_rule}"
        oracle, cache_dir, label = None, os.path.dirname(os.path.abspath(spec.path)), os.path.basename(spec.path)
    constants = derive_constants(problem, [problem.strict_point])
    return InstanceBundle(problem, constants, oracle, identity, cache_dir, label)


def reference_solution(bundle: InstanceBundle, mode: str, budget_iters: int = 200000, budget_epochs: int = 60):
    """Reference (x*, y*, f*) by closed-form oracle, an exact KKT solve, or a budgeted long run.

    Long-run mode first solves the KKT system exactly on the identified
    support when the problem allows it (quadratic structure, m = 1 and a
    weighted l1 objective; see ``_active_set_kkt``). Otherwise, or when that
    solve fails or misses KKT residual 1e-10, it drives the restarted solver
    to KKT residual 1e-10 (it gets no f*, so its stop test is the KKT
    residual) and raises ReferenceUnconvergedError when the budget runs out
    first (callers may record the failure and continue without reference
    metrics). The budgets bound only that long run.
    """
    problem = bundle.problem
    if mode == "oracle":
        if bundle.oracle is None:
            raise ValueError("oracle reference requires a synthetic instance")
        x_star, y_star = bundle.oracle
        return x_star.copy(), y_star.copy(), problem.f(x_star)
    if mode == "long-run":
        x, y, _, _ = _solve_reference(bundle, budget_iters, budget_epochs)
        return x, y, problem.f(x)
    raise ValueError(f"unknown reference mode {mode!r}; expected 'oracle' or 'long-run'")


def _solve_reference(bundle: InstanceBundle, budget_iters: int, budget_epochs: int):
    """(x*, y*, KKT residual, how): the exact solve where it applies and
    passes the KKT check, else the long run; ``how`` names the method (and
    the active-set steps) for the cache."""
    problem = bundle.problem
    if problem.quadratic is not None and problem.m == 1 and len(problem.objective.blocks) == problem.n:
        try:
            exact = _active_set_kkt(problem)
        except NumericalError:
            exact = None
        if exact is not None:
            x, y, steps = exact
            resid = kkt_residual(problem, x, y).max()
            if resid <= _REFERENCE_KKT:
                return x, y, resid, {"method": "active-set", "steps": steps}
    cfg = SolverConfig(
        variant="rapdpro",
        max_iters=budget_iters,
        max_epochs=budget_epochs,
        tolerance=_REFERENCE_KKT,
    )
    res = rapdpro(problem, bundle.constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
    resid = kkt_residual(problem, res.x, res.y).max()
    if resid > _REFERENCE_KKT:
        raise ReferenceUnconvergedError(
            f"long-run reference stopped at KKT residual {resid:.3g} "
            f"(termination: {res.termination})"
        )
    return res.x, res.y, resid, {"method": "long-run"}


def _active_set_kkt(problem: ConstrainedProblem):
    """(x*, y*, steps) from the KKT system on an identified support, or None.

    For min sum_i w_i |x_i| s.t. (1/2) x'Qx - q'x - b <= 0 with the
    constraint active, fix the support S and the signs sigma. With t = 1/y,
    stationarity on S reads x_S(t) = Q_SS^{-1}(q_S - t (w sigma)_S) = a - t c,
    and g(x(t)) = t^2 (w sigma)_S'c / 2 - q_S'a / 2 - b, so the root is
    t = sqrt((q_S'a + 2b) / ((w sigma)_S'c)) (Fountoulakis et al., "A
    variational perspective on local graph clustering", Math. Prog. 2019).
    Starting from the signs of the strict point, each step solves for a, c
    and t by CG (two solves) and updates the signs (``_update_signs``); once
    they stand, x_S = a - t c is the answer. Returns None when a sign pattern
    repeats, the steps run out or a root argument is not positive; CG
    raises NumericalError when it stalls. The caller checks the result.
    """
    n = problem.n
    q_lin, b, qmatvec = problem.quadratic
    q, b = q_lin[:, 0], float(b[0])
    w = problem.objective.weights

    def q_times(z):
        return np.asarray(qmatvec(z), dtype=float).reshape(n)

    sigma = np.sign(problem.strict_point)
    seen = set()
    for step in range(1, _ACTIVE_SET_STEPS + 1):
        pattern = sigma.tobytes()
        if pattern in seen:
            return None
        seen.add(pattern)
        support = np.flatnonzero(sigma)
        matvec = q_times if support.size == n else functools.partial(_restricted_matvec, q_times, n, support)
        q_s, ws = q[support], (w * sigma)[support]
        a = cg_solve(matvec, q_s, tol=1e-14)
        c = cg_solve(matvec, ws, tol=1e-14)
        num, den = float(q_s @ a) + 2.0 * b, float(ws @ c)
        if not (num > 0.0 and den > 0.0):
            return None
        t = np.sqrt(num / den)
        x = np.zeros(n)
        x[support] = a - t * c
        new = _update_signs(sigma, x, q_times(x) - q, t * w)
        if np.array_equal(new, sigma):
            return x, np.array([1.0 / t]), step
        sigma = new
    return None


def _restricted_matvec(q_times, n: int, support: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q_SS v: Q applied to v embedded in R^n, restricted to S."""
    z = np.zeros(n)
    z[support] = v
    return q_times(z)[support]


def _update_signs(sigma: np.ndarray, x: np.ndarray, jac: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The two active-set rules: drop i from S where x_i opposes sigma_i, and
    add i outside S with sign -sign(J_i) where |J_i| > t w_i (``bound``)."""
    new = np.where(sigma * x < 0.0, 0.0, sigma)
    enter = (sigma == 0.0) & (np.abs(jac) > bound)
    new[enter] = -np.sign(jac[enter])
    return new


def _cache_path(bundle: InstanceBundle, output_path: str | None) -> str:
    key = hashlib.sha256(bundle.identity.encode()).hexdigest()[:16]
    base = bundle.cache_dir
    if base is None:
        base = os.path.dirname(os.path.abspath(output_path)) if output_path else os.getcwd()
    return os.path.join(base, f".ref-{key}.json")


def get_reference(bundle: InstanceBundle, config: ExperimentConfig):
    """Resolve the configured reference, consulting the long-run cache.

    Returns (x*, y*, f*) or None (mode 'none', or an unconverged long run,
    which is reported as a warning and leaves the metrics unavailable).
    """
    mode = config.reference_mode
    if mode == "none":
        return None
    if mode == "file":
        with open(config.reference_path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not (isinstance(data, dict) and "x" in data):
            raise ValueError(f'reference file {config.reference_path}: need a JSON object with an "x" entry')
        x = np.asarray(data["x"], dtype=float)
        if x.shape != (bundle.problem.n,):
            raise ValueError(f"reference file has {x.shape} primal entries, need {bundle.problem.n}")
        y = np.asarray(data.get("y", np.zeros(bundle.problem.m)), dtype=float)
        if y.shape != (bundle.problem.m,):
            raise ValueError(f"reference file has {y.shape} dual entries, need {bundle.problem.m}")
        for name, v in (("x", x), ("y", y)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"reference file {config.reference_path}: {name} has non-finite entries")
        return x, y, bundle.problem.f(x)
    if mode == "oracle":
        return reference_solution(bundle, "oracle")
    cache = _cache_path(bundle, config.output_path)
    cached = _read_cache(cache, bundle.identity, bundle.problem.n, bundle.problem.m)
    if cached is not None:
        return cached["x"], cached["y"], cached["f"]
    try:
        x, y, kkt, how = _solve_reference(bundle, config.budget_iters, config.budget_epochs)
    except ReferenceUnconvergedError as exc:
        warnings.warn(f"reference unavailable: {exc}", stacklevel=2)
        return None
    f = bundle.problem.f(x)
    payload = {"identity": bundle.identity, "x": _encode(x), "y": _encode(y), "f": f, "kkt": float(kkt), **how}
    _write_cache(cache, payload)
    return x, y, f


def _encode(v: np.ndarray) -> str:
    """A float vector as base64 (standard alphabet) of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(v, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, size: int) -> np.ndarray:
    """The writable float64 vector ``_encode`` wrote. Raises ValueError unless
    ``text`` is valid base64 of exactly ``size`` entries, TypeError when it is
    not a string (a JSON list, say)."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * size:
        raise ValueError(f"cached vector has {len(raw)} bytes, need {8 * size}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _read_cache(path: str, identity: str, n: int, m: int):
    """The cached payload with x (n entries), y (m entries) as arrays and f
    as a float, or None when the file is missing, unreadable, truncated,
    written for another instance or in another format (a list-format cache
    from before the base64 payload, bad base64, a wrong length); the caller
    then recomputes and overwrites it. Keys it does not know are passed
    through."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and data.get("identity") == identity:
            return {**data, "x": _decode(data["x"], n), "y": _decode(data["y"], m), "f": float(data["f"])}
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return None


def _write_cache(path: str, payload: dict) -> None:
    """Write the cache atomically: a temp file in the same directory, then os.replace,
    so an interrupted run or a concurrent reader never sees a partial file. A writer
    killed between mkstemp and os.replace leaves its ``.ref-<key>.json.<random>.tmp``
    behind, and nothing removes it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def make_recorder(problem, variant, solver_config, reference, threshold: float = 1e-8):
    """Recorder for the solver loop: each record at the point the loop reports at.

    ``reference`` is (x*, y*, f*) or None. The loop picks the reporting
    point, so ``variant`` and ``solver_config`` are not read; they stay for
    the callers that pass five arguments until the benchmark revision
    (ROADMAP item 1) drops them.
    """
    return _metrics_recorder(problem, None if reference is None else (reference[0], reference[2]), threshold)


_ROW = operator.attrgetter(*CSV_HEADER.split(","))
_CHUNK_ROWS = 64  # rows per write: about 15 kB of text at a time, whatever the trace length


def _template(kinds: tuple) -> str:
    """The % template of a row whose values have these types: None as empty (precision 0),
    floats (``float`` and subclasses such as ``np.float64``) at 17 significant digits,
    anything else as ``str``."""
    return ",".join("%.0s" if k is type(None) else "%.17g" if issubclass(k, float) else "%s" for k in kinds) + "\n"


def write_csv(path: str, trace) -> None:
    """One row per record; floats at 17 significant digits, None as empty, anything else as str.

    One template is built per distinct tuple of value types among the rows
    (``_template``). A library trace has one, and each row goes through it
    directly; otherwise (a None in some rows only, say) each row looks up
    its own. ``trace`` is a list of records (read twice: once for the types,
    then a chunk of rows at a time, so no copy of the whole trace is held).
    """
    kinds = set(map(tuple, map(map, itertools.repeat(type), map(_ROW, trace))))  # distinct row types
    templates = {k: _template(k) for k in kinds}
    if len(templates) == 1:
        (template,) = templates.values()
        line = template.__mod__
    else:
        def line(row):
            return templates[tuple(map(type, row))] % row
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(0, len(trace), _CHUNK_ROWS):
            fh.write("".join(map(line, map(_ROW, trace[i:i + _CHUNK_ROWS]))))


def _start_points(bundle: InstanceBundle, rule: str):
    problem = bundle.problem
    x0 = problem.strict_point.copy() if rule == "strict" else np.zeros(problem.n)
    return x0, np.zeros(problem.m)


def _run_one(bundle, config: ExperimentConfig, solver_config: SolverConfig, reference, output_path):
    runner = _RUNNERS[solver_config.variant]
    x0, y0 = _start_points(bundle, config.x0_rule)
    recorder = make_recorder(bundle.problem, solver_config.variant, solver_config, reference, config.truncation)
    f_star = None if reference is None else reference[2]
    result = runner(bundle.problem, bundle.constants, solver_config, x0, y0, recorder=recorder, f_star=f_star)
    if output_path:
        write_csv(output_path, result.trace)
    return result


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Build, reference, run, and write the CSV for one solver."""
    bundle = build_instance(config.instance)
    reference = get_reference(bundle, config)
    return _run_one(bundle, config, config.solver, reference, config.output_path)


def _variant_path(path: str | None, variant: str) -> str | None:
    if path is None:
        return None
    stem, ext = os.path.splitext(path)
    return f"{stem}-{variant}{ext or '.csv'}"


def run_comparison(config: ExperimentConfig) -> dict:
    """Run every configured variant on the shared instance and reference."""
    bundle = build_instance(config.instance)
    reference = get_reference(bundle, config)
    results = {}
    for variant in config.variants:
        scfg = dataclasses.replace(config.solver, variant=variant)
        results[variant] = _run_one(bundle, config, scfg, reference, _variant_path(config.output_path, variant))
    return results


# -- config file parsing -----------------------------------------------------

def _by_name(cls):
    """INI key -> (dataclass, field) for every field of ``cls``, under its own name."""
    return {f.name: (cls, f.name) for f in dataclasses.fields(cls)}


def _experiment(**renamed):
    """INI key -> (ExperimentConfig, field) for the keys named apart from their field."""
    return {key: (ExperimentConfig, name) for key, name in renamed.items()}


_SECTIONS = {
    "instance": _by_name(InstanceSpec),
    "solver": {**_by_name(SolverConfig), **_experiment(variants="variants", x0="x0_rule")},
    "reference": _experiment(
        mode="reference_mode",
        path="reference_path",
        budget_iters="budget_iters",
        budget_epochs="budget_epochs",
        truncation="truncation",
    ),
    "output": _experiment(path="output_path"),
}


def _field_type(annotation):
    """The type an INI value of a field converts to; ``X | None`` reads as X."""
    return next((a for a in typing.get_args(annotation) if a is not type(None)), annotation)


def _convert(raw: str, kind):
    """The INI text of one key as ``kind``."""
    if kind is tuple:
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    return kind(raw)


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse the flat INI-style experiment description.

    Sections [instance], [solver], [reference], [output]. [instance] and
    [solver] take the fields of InstanceSpec and SolverConfig by name
    (``kind`` defaults to synthetic); [solver] also takes ``variants`` and
    ``x0``. Unknown sections or keys are errors so typos fail loudly. A
    ``;`` after whitespace starts a comment.
    """
    parser = ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh, source=path)
    kwargs = {InstanceSpec: {"kind": "synthetic"}, SolverConfig: {}, ExperimentConfig: {}}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SECTIONS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            cls, name = _SECTIONS[section][key]
            kind = _field_type(typing.get_type_hints(cls)[name])
            try:
                kwargs[cls][name] = _convert(raw, kind)
            except ValueError:
                raise ValueError(f"{path}: [{section}] {key} = {raw!r}: expected {kind.__name__}") from None
    if "instance" not in parser:
        raise ValueError(f"{path}: missing [instance] section")
    return ExperimentConfig(
        instance=InstanceSpec(**kwargs[InstanceSpec]),
        solver=SolverConfig(**kwargs[SolverConfig]),
        **kwargs[ExperimentConfig],
    )
