"""The frozen benchmark's calls into the library, run in the fast suite.

``perfbench/harness.py`` calls the library directly: ``make_recorder`` with
five positional arguments, ``get_reference``, the entry points with
``recorder=`` and ``f_star=``, ``result.state.k``, ``write_csv`` and
``kkt_residual``. Without a tier-1 run of it, a change to any of these
would first show as a failed benchmark. This test runs one untraced round
on two small instances and its correctness gate; ``test_iteration_counts``
runs the workloads' own rounds. The benchmark directory is loaded
read-only: no bytecode is written there.
"""

import numpy as np
import pytest

from apdpro.pagerank import build_ppr_problem, load_graph
from helpers import NoProbe, chorded_path_edges, import_perfbench, write_edge_list


@pytest.fixture(scope="module")
def perfbench():
    return import_perfbench()


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
    rr = harness.run_round([canonical, graph], str(workdir), None, NoProbe())
    harness.check_round(rr, None)
    assert rr.failures == []
    solved = [(s.label, s.variant, s.termination) for s in rr.solves]
    assert solved == [("canonical", "apdpro", "tolerance"), ("canonical", "rapdpro", "tolerance"),
                      ("canonical", "msapd", "tolerance"), ("canonical", "apd", "completed"),
                      ("graph", "apdpro", "tolerance"), ("graph", "apd", "completed")]
    assert all(s.iters > 0 and s.csv_digest for s in rr.solves)
