"""
Walkthrough: solving one strongly convex constrained problem
============================================================

Minimize |x| subject to (1/2)(x - 2)^2 - 1 <= 0.  The constraint is
1-strongly convex, the feasible set is the interval [2 - sqrt(2), 2 + sqrt(2)],
and the solution x* = 2 - sqrt(2) sits on its boundary with multiplier
y* = 1/sqrt(2).  This script builds the instance, runs the adaptive solver,
and shows the strong-convexity estimate at work.
"""

import numpy as np

from apdpro.pagerank import make_synthetic_instance
from apdpro.problem import derive_constants
from apdpro.solvers import SolverConfig, apdpro

# build the instance; the closed-form primal/dual pair comes along for free
problem, x_star, y_star = make_synthetic_instance(n=1, center=2.0, level=1.0)
print(f"solution  x* = {x_star[0]:.12f}   multiplier y* = {y_star[0]:.12f}")

# the solver needs the derived constants: the radius of a ball around the
# strictly feasible point (here the minimizer of g) that holds the feasible
# set, the Lipschitz bounds, the dual radius and the diameters
constants = derive_constants(problem)
print(f"ball      center {problem.strict_point[0]:.4f}, radius {constants.ball_radius:.4f}")
print(f"constants L_XY = {constants.L_XY:.4f}, c_bar = {constants.c_bar:.4f}, "
      f"D_X = {constants.D_X:.4f}, D_Y = {constants.D_Y:.4f}")

# watch the run through an observer: rho is the running strong-convexity
# estimate, and the step sizes react to it (tau shrinks, sigma grows,
# their product stays constant)
snapshots = []
config = SolverConfig(variant="apdpro", max_iters=500)
result = apdpro(problem, constants, config, np.zeros(1), np.zeros(1),
                observer=snapshots.append)

print("\n  iter      rho        tau       sigma    |x_k - x*|")
for k in (0, 1, 4, 19, 99, 499):
    s = snapshots[k]
    err = abs(s.x_next[0] - x_star[0])
    print(f"  {k + 1:4d}   {s.rho_next:8.5f}   {s.tau:8.5f}   {s.sigma:8.3f}   {err:.3e}")

# rho climbs toward (but never past) mu * ||y*||_1 = 0.7071; the iterate
# error collapses far faster than the O(1/k) a constant-step method gives
print(f"\ntermination: {result.termination}")
print(f"final rho   {snapshots[-1].rho_next:.6f}  (cut stays below {y_star[0]:.6f})")
print(f"final error {abs(result.x[0] - x_star[0]):.3e}")
