"""Adaptive accelerated primal-dual solvers for sparse problems with
strongly convex functional constraints.

The pieces: weighted-l1 problems and their derived constants (``problem``),
proximal and projection operators (``prox``), the strong-convexity
estimator (``estimator``), the solver family (``solvers``), sparse
personalized-PageRank instances (``pagerank``), and the experiment driver
(``bench``). The package root exports only the four solver entry points and
their config; everything else is imported from its module.
"""

from .solvers import SolverConfig, apd_baseline, apdpro, msapd, rapdpro

__version__ = "0.1.0"

__all__ = ["apdpro", "rapdpro", "msapd", "apd_baseline", "SolverConfig", "__version__"]
