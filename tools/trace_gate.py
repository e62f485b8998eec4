"""Trace gate: does a change leave the benchmark's traces as they were?

Usage, from the root of a checkout:

    python3 tools/trace_gate.py dump --seeds 0 4242 OUT.json
    python3 tools/trace_gate.py compare A.json B.json --rel 1e-12
    python3 tools/trace_gate.py compare A.json B.json --rel 0 --variants apdpro rapdpro apd

``dump`` runs one untraced ``perfbench/harness.run_round`` per workload and
seed, with the library from this checkout's ``src/`` and the workloads from
its ``perfbench/``. It writes temporary files only under
``.perfbench/tmp`` and changes nothing else in the checkout. OUT holds each
solve's iteration count and every CSV field except ``elapsed_s``, as
written.

``compare`` prints, for each workload and variant, the iterations of the
solves it compares summed in A and in B; and, for each workload and column,
how many fields differ and the largest absolute and relative difference. It
exits 1 when a solve is missing, its iteration count or row count differs,
or a field differs by more than ``--rel`` times max(1, |a|, |b|). That is
a relative bound for values above 1 and an absolute one below. Fields that
are not both numbers differ by infinity unless their text is equal. With
``--variants`` it compares only the solves of those variants, so a change
meant to move one variant can gate the others bitwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _NoProbe:
    """Stands in for the host probe: a trace does not depend on the host's speed."""

    def sample(self) -> float:
        return 0.0


def _read_csv(path: str) -> tuple[list, list]:
    """(columns, rows) of a trace CSV, without its last column (elapsed_s)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rsplit(",", 1)[0].split(",") for line in fh]
    return lines[0], lines[1:]


def dump(seeds: list[int], out: str) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import run  # noqa: F401 - sets one BLAS/OpenMP thread, as the benchmark does, before numpy loads
    import harness
    from workloads import WORKLOADS

    tmp_root = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    columns, runs = None, {}
    for workload, make_instances in WORKLOADS.items():
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"trace-gate-{workload}-", dir=tmp_root)
            try:
                rr = harness.run_round(make_instances(seed), workdir, None, _NoProbe())
                for key, msg in rr.failures:
                    print(f"{workload} seed {seed} {key[0]}/{key[1]}: {msg}", file=sys.stderr)
                if rr.failures:
                    return 1
                solves = {}
                for s in rr.solves:
                    columns, rows = _read_csv(s.csv_path)
                    solves[f"{s.label}/{s.variant}"] = {"iters": s.iters, "rows": rows}
                runs[f"{workload} seed {seed}"] = {"workload": workload, "solves": solves}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"columns": columns, "runs": runs}, fh, separators=(",", ":"))
    print(f"{out}: {sum(len(r['solves']) for r in runs.values())} solves, "
          f"{sum(len(s['rows']) for r in runs.values() for s in r['solves'].values())} rows")
    return 0


def _difference(a: str, b: str) -> tuple[float, float, float]:
    """(absolute, relative, gated) difference of two fields; gated is
    |a - b| / max(1, |a|, |b|)."""
    if a == b:
        return 0.0, 0.0, 0.0
    try:
        u, v = float(a), float(b)
    except ValueError:
        return math.inf, math.inf, math.inf
    d = abs(u - v)
    if math.isnan(d):
        return math.inf, math.inf, math.inf
    scale = max(abs(u), abs(v))
    return d, d / scale if scale else 0.0, d / max(1.0, scale)


def compare(path_a: str, path_b: str, rel: float, variants=None) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    bad = []
    if a["columns"] != b["columns"]:
        bad.append(f"columns differ: {a['columns']} vs {b['columns']}")
    columns = a["columns"]
    stats = {}  # (workload, column) -> [differing fields, largest absolute, largest relative]
    solves = {}  # workload -> [solves compared, iteration counts that differ]
    iters = {}  # workload -> variant -> [iterations in A, iterations in B]
    for run in sorted(a["runs"].keys() | b["runs"].keys()):
        if run not in a["runs"] or run not in b["runs"]:
            bad.append(f"{run}: only in {path_a if run in a['runs'] else path_b}")
            continue
        sa, sb = a["runs"][run]["solves"], b["runs"][run]["solves"]
        workload = a["runs"][run]["workload"]
        for solve in sorted(sa.keys() | sb.keys()):
            variant = solve.rsplit("/", 1)[1]  # solves are "label/variant"
            if variants is not None and variant not in variants:
                continue
            if solve not in sa or solve not in sb:
                bad.append(f"{run} {solve}: only in {path_a if solve in sa else path_b}")
                continue
            (ia, ra), (ib, rb) = (sa[solve]["iters"], sa[solve]["rows"]), (sb[solve]["iters"], sb[solve]["rows"])
            counts = solves.setdefault(workload, [0, 0])
            counts[0] += 1
            counts[1] += ia != ib
            totals = iters.setdefault(workload, {}).setdefault(variant, [0, 0])
            totals[0] += ia
            totals[1] += ib
            if ia != ib:
                bad.append(f"{run} {solve}: {ia} iterations vs {ib}")
            if len(ra) != len(rb):
                bad.append(f"{run} {solve}: {len(ra)} rows vs {len(rb)}")
                continue
            for row_a, row_b in zip(ra, rb):
                for column, fa, fb in zip(columns, row_a, row_b):
                    if fa == fb:
                        continue
                    d_abs, d_rel, gated = _difference(fa, fb)
                    entry = stats.setdefault((workload, column), [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1], entry[2] = max(entry[1], d_abs), max(entry[2], d_rel)
                    if gated > rel:
                        bad.append(f"{run} {solve} {column}: {fa} vs {fb}")
    workloads = sorted({r["workload"] for r in a["runs"].values()})
    for workload in workloads:
        compared, differ = solves.get(workload, (0, 0))
        print(f"{workload:12s} {compared} solves, {differ} with a different iteration count")
        for variant, (ta, tb) in sorted(iters.get(workload, {}).items()):
            print(f"{workload:12s} {variant} iterations {ta} -> {tb}")
        for column in columns:
            count, d_abs, d_rel = stats.get((workload, column), (0, 0.0, 0.0))
            print(f"{workload:12s} {column:16s} differing {count:7d}  max abs {d_abs:.3g}  max rel {d_rel:.3g}")
    for msg in bad[:20]:
        print(f"MISMATCH {msg}")
    if len(bad) > 20:
        print(f"... and {len(bad) - 20} more mismatches")
    print("trace gate:", "FAIL" if bad else "pass")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dump and compare the benchmark's traces")
    commands = parser.add_subparsers(dest="command", required=True)
    p_dump = commands.add_parser("dump", help="run one round per workload and seed and write its traces")
    # "--seeds 0 4242 OUT": the seeds' nargs="+" takes OUT too, so the last value is OUT when none follows.
    p_dump.add_argument("--seeds", nargs="+", required=True, metavar="SEED")
    p_dump.add_argument("out", nargs="?")
    p_cmp = commands.add_parser("compare", help="compare two dumps")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--rel", type=float, default=0.0,
                       help="largest allowed |a - b| / max(1, |a|, |b|) per field (default 0: bitwise)")
    p_cmp.add_argument("--variants", nargs="+", metavar="V", help="compare only the solves of these variants")
    args = parser.parse_args(argv)
    if args.command == "dump":
        if args.out is None and len(args.seeds) > 1:
            args.out = args.seeds.pop()
        if args.out is None or not all(seed.lstrip("-").isdigit() for seed in args.seeds):
            parser.error("dump needs integer seeds and an output path: dump --seeds 0 4242 OUT")
        return dump([int(seed) for seed in args.seeds], args.out)
    return compare(args.a, args.b, args.rel, args.variants)


if __name__ == "__main__":
    sys.exit(main())
