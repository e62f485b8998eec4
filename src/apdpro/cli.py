"""Command-line entry point.

Subcommands: ``run`` (every variant a config file lists, on one instance and
one reference, one CSV each) and ``reference`` (compute and cache the
reference only).
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .problem import kkt_residual


def _add_config_arg(sub):
    sub.add_argument("--config", required=True, help="experiment config file (INI sections)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apdpro",
        description="Adaptive primal-dual solvers for sparse problems with strongly convex constraints.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_config_arg(commands.add_parser("run", help="run the configured variants, one CSV each"))
    _add_config_arg(commands.add_parser("reference", help="compute and cache the reference solution"))
    return parser


def _summarize(variant: str, result, path) -> None:
    last = result.trace[-1] if result.trace else None
    bits = [f"{variant}: {result.termination} after {len(result.trace)} recorded iterations"]
    if last is not None:
        bits.append(f"objective {last.objective:.9g}")
        if last.rel_gap is not None:
            bits.append(f"rel_gap {last.rel_gap:.3g}")
        bits.append(f"feas {last.feas_violation:.3g}")
    print("; ".join(bits))
    if path:
        print(f"wrote {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Bad input (the config, a missing or malformed graph file, an unattainable b)
    # is reported on one line, with exit status 2.
    try:
        return _command(args.command, bench.load_experiment_config(args.config))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _command(command: str, config) -> int:
    if command == "run":
        if not config.output_path:
            raise ValueError("run needs [output] path in the config")
        paths = bench._csv_paths(config)
        for variant, result in bench.run_experiment(config).items():
            _summarize(variant, result, paths[variant])
        return 0
    # reference
    if config.reference_mode == "none":
        raise ValueError("reference subcommand needs [reference] mode in the config")
    bundle = bench.build_instance(config.instance)
    ref = bench.get_reference(bundle, config)
    if ref is None:
        print("reference unavailable (long run did not converge)")
        return 1
    x, y, f = ref
    method = config.reference_mode
    if method == "long-run":
        cache = bench._cache_path(bundle, config.output_path)
        payload = bench._read_cache(cache, bundle.identity, bundle.problem.n, bundle.problem.m)
        method = payload.get("method")  # a cache written before the method was recorded has none
        if method is not None and "steps" in payload:
            steps = payload["steps"]
            method += f" ({steps} step{'' if steps == 1 else 's'})"
    print(f"reference for {bundle.label}: f* = {f:.12g}, KKT residual "
          f"{kkt_residual(bundle.problem, x, y).max():.3g}" + ("" if method is None else f", method {method}"))
    if config.reference_mode == "long-run":
        print(f"cached at {cache}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
