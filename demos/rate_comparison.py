"""
Rate comparison: adaptive and restarted solvers vs the constant-step baseline
=============================================================================

All variants solve the same canonical instance from the same start.  The
adaptive solver (and its restarted/multi-stage relatives) exploit the
constraint's strong convexity that the baseline ignores, so they reach a
given relative objective gap in far fewer iterations.
"""

import numpy as np

from apdpro.bench import make_recorder
from apdpro.pagerank import make_synthetic_instance
from apdpro.problem import derive_constants
from apdpro.solvers import SolverConfig, apd_baseline, apdpro, msapd, rapdpro

problem, x_star, y_star = make_synthetic_instance(n=1, center=2.0, level=1.0)
constants = derive_constants(problem, [problem.strict_point])
f_star = problem.f(x_star)
reference = (x_star, y_star, f_star)

RUNNERS = {
    "apdpro": (apdpro, SolverConfig(variant="apdpro", max_iters=3000)),
    "rapdpro": (rapdpro, SolverConfig(variant="rapdpro", max_iters=3000, max_epochs=8)),
    "msapd": (msapd, SolverConfig(variant="msapd", max_epochs=8)),
    "apd": (apd_baseline, SolverConfig(variant="apd", max_iters=3000)),
    "apd_restart": (apd_baseline, SolverConfig(variant="apd_restart", max_iters=3000,
                                               restart_period=200)),
}

TARGETS = (1e-3, 1e-6, 1e-9)


def first_hit(trace, tol):
    # the recorder evaluates each variant at its conventional iterate
    # (last for the adaptive solvers, ergodic for the baselines)
    for record in trace:
        if record.rel_gap is not None and record.rel_gap <= tol:
            return record.iter
    return None


print(f"{'variant':12s}" + "".join(f"  gap<={t:<8.0e}" for t in TARGETS) + "  final gap")
for name, (runner, config) in RUNNERS.items():
    recorder = make_recorder(problem, name, config, reference)
    result = runner(problem, constants, config, np.zeros(1), np.zeros(1),
                    recorder=recorder)
    hits = [first_hit(result.trace, t) for t in TARGETS]
    cells = "".join(f"  {h if h is not None else '-':>12}" for h in hits)
    print(f"{name:12s}{cells}  {result.trace[-1].rel_gap:.2e}")

print("\n'-' means the target was not reached within the iteration budget;")
print("the baseline's ergodic average converges at O(1/k), the adaptive")
print("variants at O(1/k^2) and better once the estimate kicks in.")
