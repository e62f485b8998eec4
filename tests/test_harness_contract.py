"""The frozen benchmark's calls into the library, run in the fast suite.

``perfbench/harness.py`` calls the library directly: ``make_recorder`` with
five positional arguments, ``get_reference``, the entry points with
``recorder=`` and ``f_star=``, ``result.state.k``, ``write_csv`` and
``kkt_residual``. Nothing else in tier-1 runs it, so a change to any of
these would first show as a failed benchmark. This test runs one untraced
round on two small instances and its correctness gate. The benchmark
directory is loaded read-only: no bytecode is written there.
"""

import pathlib
import sys

import numpy as np
import pytest

from apdpro.pagerank import build_ppr_problem, load_graph
from helpers import chorded_path_edges, write_edge_list

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("harness", "hostspeed", "tracing", "workloads")


class _NoProbe:
    """Stands in for the host probe: the gate does not depend on the host's speed."""

    def sample(self) -> float:
        return 0.0


@pytest.fixture(scope="module")
def perfbench():
    """(harness, workloads), imported from the benchmark directory and dropped from sys.modules after."""
    saved_modules = {name: sys.modules.pop(name) for name in MODULES if name in sys.modules}
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        import harness
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_bytecode
        for name in MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)
    return harness, workloads


def test_one_benchmark_round_passes_its_gate(perfbench, tmp_path):
    harness, workloads = perfbench
    canonical = workloads.synth_batch(0)[0]
    assert canonical.label == "canonical"
    edges = chorded_path_edges(30, 60, seed=5)
    probe = build_ppr_problem(load_graph(write_edge_list(tmp_path / "probe.txt", edges)), alpha=0.2, b=-1e-12)
    b = 0.5 * (probe.g(probe.strict_point)[0] - 1e-12)  # half the constraint's minimum: strictly feasible
    graph = workloads.Instance(
        "graph", "long-run",
        (workloads.Solve("apdpro", 1e-6), workloads.Solve("apd", 0.0, 100)),
        edges=np.array(edges), spec={"kind": "graph", "alpha": 0.2, "b": b},
    )
    workdir = tmp_path / "round"
    workdir.mkdir()
    rr = harness.run_round([canonical, graph], str(workdir), None, _NoProbe())
    harness.check_round(rr, None)
    assert rr.failures == []
    solved = [(s.label, s.variant, s.termination) for s in rr.solves]
    assert solved == [("canonical", "apdpro", "tolerance"), ("canonical", "rapdpro", "tolerance"),
                      ("canonical", "msapd", "tolerance"), ("canonical", "apd", "completed"),
                      ("graph", "apdpro", "tolerance"), ("graph", "apd", "completed")]
    assert all(s.iters > 0 and s.csv_digest for s in rr.solves)
