"""Launcher of the apdpro benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ppr-5k --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it describes the machine and the thread settings. A record of
the run (and, when traced, every span) is written under ``.perfbench/out``.
The library is imported from ``src/`` of the same checkout, never from an
installed copy; without it the launcher exits with status 2.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP pools read these once, when numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="apdpro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "apdpro", "__init__.py")):
        print(f"error: no apdpro sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import apdpro

    if os.path.dirname(os.path.abspath(apdpro.__file__)) != os.path.join(src, "apdpro"):
        print(f"error: imported apdpro from {apdpro.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness

    # Turn SIGTERM into SystemExit so a stopped run still removes its temporary directories.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    outdir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = out.pop("tracer")
    if tracer is not None:
        tracer.write(stem + "-spans.npz")
    record = {"args": vars(args), "environment": env, **out}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"fail_frac {out['fail_frac']:.6g} over {out['result']['attempted']} checks; "
          f"{out['rounds']} rounds ({out['traced_rounds']} traced); record {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"environment": env}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
