"""Experiment driver: instances, references, metrics, CSV traces.

Wires a configured instance (synthetic or graph) to one or more solver
variants: builds the instance once, obtains its reference solution once (the
closed-form oracle, or a cached exact KKT solve or long run), then runs each
variant from zeros with the metric recorder and writes one CSV row per
recorded iteration with the exact header contract used by the plotting side.
"""

from __future__ import annotations

import base64
import configparser
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import os
import tempfile
import typing
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, cg_solve
from .pagerank import build_ppr_problem, load_graph, make_synthetic_instance
from .problem import ConstrainedProblem, ProblemConstants, derive_constants, kkt_residual
from .solvers import (
    VARIANTS,
    IterateRecord,
    RunResult,
    SolverConfig,
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
    "load_experiment_config",
    "build_instance",
    "get_reference",
    "make_recorder",
    "write_csv",
    "run_experiment",
    "CSV_HEADER",
]

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(IterateRecord))

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
# The long run's budget: iterations in all, and epochs.
_REFERENCE_ITERS = 200_000
_REFERENCE_EPOCHS = 60


@dataclass(frozen=True)
class InstanceSpec:
    """What to build: kind = 'synthetic' (n, center, level) or 'graph'
    (path, alpha, b, s = 'uniform' or 'seed:k', r_rule = 'sqrt-degree', the
    certified default, or 'degree'; see ``build_ppr_problem``).

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
    r_rule: str = "sqrt-degree"

    def __post_init__(self):
        if self.kind not in ("synthetic", "graph"):
            raise ValueError("instance kind must be 'synthetic' or 'graph'")
        if self.kind == "graph" and not self.path:
            raise ValueError("graph instances need a path")
        for name in ("alpha", "b", "level"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass
class ExperimentConfig:
    """One experiment: instance + solver + the variants to run with it (by
    default ``(solver.variant,)``) + reference policy + output (``_csv_paths``)."""

    instance: InstanceSpec
    solver: SolverConfig
    variants: tuple = ()
    reference_mode: str = "none"  # none | oracle | long-run
    output_path: str | None = None

    def __post_init__(self):
        if self.reference_mode not in ("none", "oracle", "long-run"):
            raise ValueError(f"unknown reference mode {self.reference_mode!r}")
        if not self.variants:
            self.variants = (self.solver.variant,)
        for i, variant in enumerate(self.variants):  # here, so a typo or a repeat fails before any variant runs
            if variant not in VARIANTS:
                raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
            if variant in self.variants[:i]:  # it would run twice and write its CSV twice
                raise ValueError(f"variant {variant!r} is listed twice in variants")


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
    constants = derive_constants(problem)
    return InstanceBundle(problem, constants, oracle, identity, cache_dir, label)


def _solve_reference(bundle: InstanceBundle):
    """(x*, y*, KKT residual, how): the exact solve where it applies and
    passes the KKT check, else the long run within ``_REFERENCE_ITERS`` and
    ``_REFERENCE_EPOCHS``; ``how`` names the method (and the active-set
    steps) for the cache. A long run that misses the KKT target warns, at
    the frame that called ``get_reference``, and returns None."""
    problem = bundle.problem
    if problem.quadratic is not None and problem.m == 1:
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
        max_iters=_REFERENCE_ITERS,
        max_epochs=_REFERENCE_EPOCHS,
        tolerance=_REFERENCE_KKT,
    )
    res = rapdpro(problem, bundle.constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
    resid = kkt_residual(problem, res.x, res.y).max()
    if resid > _REFERENCE_KKT:
        warnings.warn(
            f"reference unavailable: long-run reference stopped at KKT residual {resid:.3g} "
            f"(termination: {res.termination})",
            stacklevel=3,
        )
        return None
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
    they stand, x_S = a - t c is the answer. Q is applied through the
    problem's own oracle, Q v = J(v) + q, so every Q mat-vec is a
    ``jacobian`` call. Returns None when a sign pattern repeats, the steps
    run out or a root argument is not positive; CG raises NumericalError
    when it stalls. The caller checks the result.
    """
    n = problem.n
    q_lin, b = problem.quadratic
    q, b = q_lin[:, 0], float(b[0])
    w = problem.objective.weights

    def q_times(z):  # a new array: the oracle may hand back a buffer it keeps
        return problem.jac(z)[:, 0] + q

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
        new = _update_signs(sigma, x, problem.jac(x)[:, 0], t * w)
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
    """The configured reference (x*, y*, f*): from the closed-form oracle, or the cache
    of a long-run solve, which it computes and writes on a miss.

    Returns None for mode 'none', and for a long run that does not converge
    (``_solve_reference`` warns; the metrics stay unavailable, and nothing
    is cached). The long-run mode first solves the KKT system exactly on
    the identified support when the problem allows it (quadratic
    structure, m = 1 and a weighted l1 objective; see ``_active_set_kkt``).
    Otherwise, or when that solve fails or misses KKT residual 1e-10, it
    drives the restarted solver to KKT residual 1e-10 within
    ``_REFERENCE_ITERS`` iterations and ``_REFERENCE_EPOCHS`` epochs
    (``_solve_reference``). The cache sits next to a graph's file, else
    next to ``config.output_path``, else in the working directory
    (``_cache_path``).
    """
    mode = config.reference_mode
    if mode == "none":
        return None
    if mode == "oracle":
        if bundle.oracle is None:
            raise ValueError("oracle reference requires a synthetic instance")
        x_star, y_star = bundle.oracle
        return x_star.copy(), y_star.copy(), bundle.problem.f(x_star)
    cache = _cache_path(bundle, config.output_path)
    cached = _read_cache(cache, bundle.identity, bundle.problem.n, bundle.problem.m)
    if cached is not None:
        return cached["x"], cached["y"], cached["f"]
    solved = _solve_reference(bundle)
    if solved is None:
        return None
    x, y, kkt, how = solved
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


def _csv_paths(config: ExperimentConfig) -> dict:
    """variant -> CSV path: ``output_path`` itself for one variant, else (and if
    there is one) ``<stem>-<variant><ext>``, ``.csv`` when it has no extension."""
    path, variants = config.output_path, config.variants
    if not path or len(variants) == 1:
        return dict.fromkeys(variants, path)
    stem, ext = os.path.splitext(path)
    return {variant: f"{stem}-{variant}{ext or '.csv'}" for variant in variants}


def run_experiment(config: ExperimentConfig) -> dict[str, RunResult]:
    """Build the instance and its reference once, then run every variant in
    ``config.variants`` on them from zeros and write each one's CSV
    (``_csv_paths``). Returns {variant: RunResult} in list order."""
    bundle = build_instance(config.instance)
    reference = get_reference(bundle, config)
    problem = bundle.problem
    results = {}
    for variant, path in _csv_paths(config).items():
        solver_config = dataclasses.replace(config.solver, variant=variant)
        recorder = make_recorder(problem, variant, solver_config, reference)
        results[variant] = result = _RUNNERS[variant](
            problem, bundle.constants, solver_config, np.zeros(problem.n), np.zeros(problem.m), recorder=recorder
        )
        if path:
            write_csv(path, result.trace)
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
    "solver": {**_by_name(SolverConfig), **_experiment(variants="variants")},
    "reference": _experiment(mode="reference_mode"),
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
    (``kind`` defaults to synthetic); [solver] also takes ``variants``, in
    place of ``variant`` (a file that sets both is an error), [reference]
    takes ``mode`` and [output] ``path``. Unknown sections or keys are
    errors so typos fail loudly. A ``;`` after whitespace starts a comment.
    A file configparser cannot read, such as one with a repeated key or
    section, raises ValueError.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=path)
        except configparser.Error as exc:  # its text names the file and the line, over several lines
            raise ValueError(" ".join(str(exc).split())) from None
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
    if parser.has_option("solver", "variant") and parser.has_option("solver", "variants"):
        raise ValueError(f"{path}: [solver] sets both 'variant' and 'variants'; set one of them")
    return ExperimentConfig(
        instance=InstanceSpec(**kwargs[InstanceSpec]),
        solver=SolverConfig(**kwargs[SolverConfig]),
        **kwargs[ExperimentConfig],
    )
