"""Experiment driver: instances, references, metrics, CSV traces.

Wires a configured instance (synthetic or graph) to a solver variant,
obtains a reference solution (closed-form oracle, cached long run, or file),
attaches the metric recorder, and writes one CSV row per recorded iteration
with the exact header contract used by the plotting side.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from configparser import ConfigParser

import numpy as np

from .pagerank import build_ppr_problem, load_graph, make_synthetic_instance
from .problem import ConstrainedProblem, ProblemConstants, derive_constants, feasible_ball, kkt_residual
from .solvers import (
    IterateRecord,
    RunResult,
    SolverConfig,
    active_set_accuracy,
    apd_baseline,
    apdpro,
    compute_metrics,
    msapd,
    rapdpro,
    resolve_metric_iterate,
)

__all__ = [
    "ExperimentConfig",
    "InstanceSpec",
    "InstanceBundle",
    "IterateRecord",
    "ReferenceUnconvergedError",
    "load_experiment_config",
    "build_instance",
    "reference_solution",
    "get_reference",
    "active_set_accuracy",
    "compute_metrics",
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


class ReferenceUnconvergedError(RuntimeError):
    """Long-run reference exhausted its budget before the target residual."""


@dataclass(frozen=True)
class InstanceSpec:
    """What to build: kind = 'synthetic' (n, center, level) or 'graph'
    (path, alpha, b, s, r_rule)."""

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
        if self.truncation <= 0:
            raise ValueError("truncation threshold must be positive")
        if self.reference_mode not in ("none", "oracle", "long-run", "file"):
            raise ValueError(f"unknown reference mode {self.reference_mode!r}")
        if self.reference_mode == "file" and not self.reference_path:
            raise ValueError("file reference mode needs a path")
        if self.x0_rule not in ("zeros", "strict"):
            raise ValueError("x0 must be 'zeros' or 'strict'")
        if not self.variants:
            self.variants = (self.solver.variant,)


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
    """Construct the problem, its ball, and the derived constants."""
    if spec.kind == "synthetic":
        problem, x_star, y_star = make_synthetic_instance(spec.n, spec.center, spec.level)
        center = problem.strict_point
        ball = feasible_ball(problem, [center])
        constants = derive_constants(problem, ball)
        identity = f"synthetic|n={spec.n}|center={spec.center!r}|level={spec.level!r}"
        return InstanceBundle(problem, constants, (x_star, y_star), identity, None, "synthetic")
    graph = load_graph(spec.path)
    inst = build_ppr_problem(graph, spec.alpha, spec.b, spec.s, spec.r_rule)
    ball = feasible_ball(inst.problem, [inst.x_tilde])
    constants = derive_constants(inst.problem, ball)
    with open(spec.path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()[:16]
    identity = f"graph|sha={sha}|alpha={spec.alpha!r}|b={spec.b!r}|s={spec.s}|r_rule={spec.r_rule}"
    cache_dir = os.path.dirname(os.path.abspath(spec.path))
    return InstanceBundle(inst.problem, constants, None, identity, cache_dir, os.path.basename(spec.path))


def reference_solution(bundle: InstanceBundle, mode: str, budget_iters: int = 200000, budget_epochs: int = 60):
    """Reference (x*, y*, f*) by closed-form oracle or a budgeted long run.

    Long-run mode drives the restarted solver to KKT residual 1e-10 and
    raises ReferenceUnconvergedError when the budget runs out first (callers
    may record the failure and continue without reference metrics).
    """
    problem = bundle.problem
    if mode == "oracle":
        if bundle.oracle is None:
            raise ValueError("oracle reference requires a synthetic instance")
        x_star, y_star = bundle.oracle
        return x_star.copy(), y_star.copy(), problem.f(x_star)
    if mode == "long-run":
        cfg = SolverConfig(
            variant="rapdpro",
            max_iters=budget_iters,
            max_epochs=budget_epochs,
            tolerance=1e-10,
            tolerance_metric="kkt",
        )
        res = rapdpro(problem, bundle.constants, cfg, np.zeros(problem.n), np.zeros(problem.m))
        resid = kkt_residual(problem, res.x, res.y).max()
        if resid > 1e-10:
            raise ReferenceUnconvergedError(
                f"long-run reference stopped at KKT residual {resid:.3g} "
                f"(termination: {res.termination})"
            )
        return res.x, res.y, problem.f(res.x)
    raise ValueError(f"unknown reference mode {mode!r}; expected 'oracle' or 'long-run'")


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
        x = np.asarray(data["x"], dtype=float)
        if x.shape != (bundle.problem.n,):
            raise ValueError(f"reference file has {x.shape} primal entries, need {bundle.problem.n}")
        y = np.asarray(data.get("y", np.zeros(bundle.problem.m)), dtype=float)
        return x, y, bundle.problem.f(x)
    if mode == "oracle":
        return reference_solution(bundle, "oracle")
    cache = _cache_path(bundle, config.output_path)
    cached = _read_cache(cache, bundle.identity)
    if cached is not None:
        return cached
    try:
        x, y, f = reference_solution(bundle, "long-run", config.budget_iters, config.budget_epochs)
    except ReferenceUnconvergedError as exc:
        warnings.warn(f"reference unavailable: {exc}", stacklevel=2)
        return None
    payload = {
        "identity": bundle.identity,
        "x": x.tolist(),
        "y": y.tolist(),
        "f": f,
        "kkt": float(kkt_residual(bundle.problem, x, y).max()),
    }
    _write_cache(cache, payload)
    return x, y, f


def _read_cache(path: str, identity: str):
    """(x*, y*, f*) from a cache file, or None when it is missing, unreadable,
    truncated or written for another instance."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and data.get("identity") == identity:
            return np.asarray(data["x"], dtype=float), np.asarray(data["y"], dtype=float), float(data["f"])
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return None


def _write_cache(path: str, payload: dict) -> None:
    """Write the cache atomically: a temp file in the same directory, then os.replace,
    so an interrupted run or a concurrent reader never sees a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def make_recorder(problem, variant, solver_config, reference, threshold: float = 1e-8):
    """Recorder for the solver loop: compute_metrics at the variant's metric iterate.

    ``reference`` is (x*, y*, f*) or None.
    """
    metric = resolve_metric_iterate(variant, solver_config.metric_iterate)
    ref = None if reference is None else (reference[0], reference[2])
    return functools.partial(compute_metrics, problem, metric=metric, reference=ref, threshold=threshold)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path: str, trace) -> None:
    """One row per record; floats at 17 significant digits, None as empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in trace:
            fields = (r.iter, r.epoch, r.objective, r.rel_gap, r.feas_violation,
                      r.rho, r.tau, r.sigma, r.active_set_acc, r.elapsed_s)
            fh.write(",".join(_fmt(v) for v in fields) + "\n")


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

_INSTANCE_KEYS = {"kind", "n", "center", "level", "path", "alpha", "b", "s", "r_rule"}
_SOLVER_KEYS = {
    "variant", "variants", "max_iters", "max_epochs", "tau0", "sigma0", "rho0",
    "nu0", "delta", "restart_period", "tolerance", "tolerance_metric",
    "record_every", "metric_iterate", "disable_estimator", "forced_schedule", "x0",
}
_REFERENCE_KEYS = {"mode", "path", "budget_iters", "budget_epochs", "truncation"}
_OUTPUT_KEYS = {"path"}
_SECTIONS = {
    "instance": _INSTANCE_KEYS,
    "solver": _SOLVER_KEYS,
    "reference": _REFERENCE_KEYS,
    "output": _OUTPUT_KEYS,
}
_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(value: str, key: str) -> bool:
    try:
        return _BOOL[value.strip().lower()]
    except KeyError:
        raise ValueError(f"key {key}: expected a boolean, got {value!r}") from None


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse the flat INI-style experiment description.

    Sections [instance], [solver], [reference], [output]; unknown sections or
    keys are errors so typos fail loudly.
    """
    parser = ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh, source=path)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
    if "instance" not in parser:
        raise ValueError(f"{path}: missing [instance] section")
    ins = parser["instance"]
    spec = InstanceSpec(
        kind=ins.get("kind", "synthetic"),
        n=ins.getint("n", 1),
        center=ins.getfloat("center", 2.0),
        level=ins.getfloat("level", 1.0),
        path=ins.get("path"),
        alpha=ins.getfloat("alpha", 0.5),
        b=ins.getfloat("b", -0.05),
        s=ins.get("s", "uniform"),
        r_rule=ins.get("r_rule", "degree"),
    )
    sol = parser["solver"] if "solver" in parser else {}
    kwargs = {}
    if "variant" in sol:
        kwargs["variant"] = sol["variant"]
    for key in ("max_iters", "max_epochs", "record_every"):
        if key in sol:
            kwargs[key] = int(sol[key])
    for key in ("tau0", "sigma0", "rho0", "nu0", "delta", "tolerance"):
        if key in sol:
            kwargs[key] = float(sol[key])
    if "restart_period" in sol:
        raw = sol["restart_period"]
        kwargs["restart_period"] = float("inf") if raw.strip().lower() == "inf" else float(raw)
    if "forced_schedule" in sol:
        kwargs["forced_schedule"] = int(sol["forced_schedule"])
    if "tolerance_metric" in sol:
        kwargs["tolerance_metric"] = sol["tolerance_metric"]
    if "metric_iterate" in sol:
        kwargs["metric_iterate"] = sol["metric_iterate"]
    if "disable_estimator" in sol:
        kwargs["disable_estimator"] = _parse_bool(sol["disable_estimator"], "disable_estimator")
    solver = SolverConfig(**kwargs)
    variants = tuple(v.strip() for v in sol["variants"].split(",") if v.strip()) if "variants" in sol else ()
    x0_rule = sol.get("x0", "zeros")
    ref = parser["reference"] if "reference" in parser else {}
    out = parser["output"] if "output" in parser else {}
    return ExperimentConfig(
        instance=spec,
        solver=solver,
        variants=variants,
        reference_mode=ref.get("mode", "none"),
        reference_path=ref.get("path"),
        budget_iters=int(ref["budget_iters"]) if "budget_iters" in ref else 200000,
        budget_epochs=int(ref["budget_epochs"]) if "budget_epochs" in ref else 60,
        truncation=float(ref["truncation"]) if "truncation" in ref else 1e-8,
        output_path=out.get("path"),
        x0_rule=x0_rule,
    )
