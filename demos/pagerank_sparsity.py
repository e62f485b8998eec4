"""
Sparse personalized PageRank and active-set identification
==========================================================

A PageRank vector personalized to one node of a star graph is sparse: the
degree-weighted l1 objective zeroes every node the random walk barely
touches.  The interesting question is how quickly a solver's iterates find
that sparsity pattern.  Last-iterate methods identify it in finitely many
steps; an ergodic average carries every early nonzero forever (decaying
only like 1/k), so the baseline lags by orders of magnitude.
"""

import os
import tempfile

import numpy as np

from apdpro.bench import ExperimentConfig, InstanceSpec, build_instance, get_reference, make_recorder
from apdpro.pagerank import build_ppr_problem, load_graph
from apdpro.solvers import SolverConfig, apd_baseline, rapdpro

# a 20-node star: hub 0, leaves 1..19; personalize to leaf 1
tmp = tempfile.mkdtemp()
path = os.path.join(tmp, "star20.txt")
with open(path, "w", encoding="utf-8") as fh:
    fh.writelines(f"0 {i}\n" for i in range(1, 20))
graph = load_graph(path)
print(f"graph: {graph.n} nodes, degrees hub={graph.degrees[0]}, leaf={graph.degrees[1]}")

# choose the constraint level relative to what is attainable: probe the
# unconstrained minimum first, then ask for 95% of it (tight levels make
# the multiplier large and the identification problem non-trivial)
probe = build_ppr_problem(graph, alpha=0.4, b=-1e-12, s="seed:1")
v_min = float(probe.g(probe.strict_point)[0]) - 1e-12
spec = InstanceSpec(kind="graph", path=path, alpha=0.4, b=0.95 * v_min, s="seed:1")
bundle = build_instance(spec)

# the reference support pattern: an exact KKT solve on the identified
# support (a long restarted run would be the fallback), cached next to the
# graph file in the temporary directory
reference = ExperimentConfig(spec, SolverConfig(), reference_mode="long-run")
x_ref, y_ref, f_ref = get_reference(bundle, reference)
support = np.nonzero(np.abs(x_ref) > 1e-6)[0]
print(f"reference: f* = {f_ref:.6f}, multiplier {y_ref[0]:.2f}, "
      f"support {support.tolist()} ({support.size} of {graph.n} nodes)")

# run both solvers and record the fraction of correctly classified nodes
RUNS = {
    "rapdpro (last iterate)": (rapdpro, SolverConfig(variant="rapdpro",
                                                     max_iters=6000, max_epochs=8)),
    "apd (ergodic average)": (apd_baseline, SolverConfig(variant="apd",
                                                         max_iters=40000)),
}

for label, (runner, config) in RUNS.items():
    recorder = make_recorder(bundle.problem, config.variant, config,
                             (x_ref, y_ref, f_ref), threshold=1e-6)
    result = runner(bundle.problem, bundle.constants, config,
                    np.zeros(graph.n), np.zeros(1), recorder=recorder)
    accs = np.array([r.active_set_acc for r in result.trace])
    hits = np.nonzero(accs >= 1.0)[0]
    first = result.trace[hits[0]].iter if hits.size else None
    print(f"\n{label}:")
    milestones = ", ".join(
        f"{level:.2f}@{result.trace[int(np.argmax(accs >= level))].iter}"
        for level in (0.5, 0.9, 0.95) if np.any(accs >= level))
    print(f"  accuracy milestones: {milestones}")
    if first is None:
        print(f"  never fully identified the support in {len(accs)} iterations "
              f"(best {accs.max():.2f})")
    else:
        stays = bool(np.all(accs[hits[0]:] >= 1.0))
        print(f"  full support identified at iteration {first}"
              + (" and kept from then on" if stays else ""))
