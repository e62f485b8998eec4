"""Every benchmark solve's iteration count and termination, pinned.

One untraced ``perfbench/harness.run_round`` per workload of
``perfbench/workloads.py``, at seed 0, gives 98 solves. Their ``iters`` and
``termination`` must equal ``data/iteration_counts.json`` exactly. The
benchmark directory is read, never written: the rounds run under
``tmp_path``.

A change meant to move the counts regenerates the file, from the root of a
checkout, with

    python3 tests/test_iteration_counts.py

and quotes the per-variant totals before and after.
"""

import json
import pathlib
import sys

DATA = pathlib.Path(__file__).resolve().parent / "data" / "iteration_counts.json"
SEED = 0


def solve_counts(workdir) -> dict:
    """{workload: {"label/variant": {"iters": k, "termination": reason}}} of one seed-``SEED`` round each."""
    from helpers import NoProbe, import_perfbench  # here, so that the script can put src/ on the path first

    harness, workloads = import_perfbench()
    counts = {}
    for workload, make_instances in workloads.WORKLOADS.items():
        rounddir = pathlib.Path(workdir) / workload
        rounddir.mkdir()
        rr = harness.run_round(make_instances(SEED), str(rounddir), None, NoProbe())
        assert rr.failures == [], rr.failures
        counts[workload] = {f"{s.label}/{s.variant}": {"iters": s.iters, "termination": s.termination}
                            for s in rr.solves}
    return counts


def _report(want: dict, got: dict) -> str:
    """Per-workload and per-variant iteration totals, then each solve that differs."""
    lines, diffs = [], []
    for workload in sorted(want.keys() | got.keys()):
        a, b = want.get(workload, {}), got.get(workload, {})
        totals = {}  # variant -> [pinned, now]
        for solve in sorted(a.keys() | b.keys()):
            pair = totals.setdefault(solve.rsplit("/", 1)[1], [0, 0])
            pair[0] += a.get(solve, {}).get("iters", 0)
            pair[1] += b.get(solve, {}).get("iters", 0)
            if a.get(solve) != b.get(solve):
                diffs.append(f"{workload} {solve}: pinned {a.get(solve)}, now {b.get(solve)}")
        lines.append(f"{workload:12s} total iterations {sum(t[0] for t in totals.values())} -> "
                     f"{sum(t[1] for t in totals.values())}")
        lines += [f"{workload:12s} {variant} iterations {ta} -> {tb}" for variant, (ta, tb) in sorted(totals.items())]
    return "\n".join(lines + diffs)


def test_iteration_counts_are_pinned(tmp_path):
    want = json.loads(DATA.read_text(encoding="utf-8"))
    got = solve_counts(tmp_path)
    assert got == want, "iteration counts moved (regenerate with python3 tests/test_iteration_counts.py)\n" \
        + _report(want, got)


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        counts = solve_counts(tmp)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{DATA}: {sum(map(len, counts.values()))} solves")
    print(_report(counts, counts))
