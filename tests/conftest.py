import pytest

from apdpro.bench import InstanceSpec, build_instance
from apdpro.pagerank import build_ppr_problem, load_graph, make_synthetic_instance
from apdpro.problem import derive_constants
from helpers import chorded_path_edges, write_edge_list


@pytest.fixture(scope="session")
def canonical():
    """The 1-D known-solution instance: f=|x|, g=(x-2)^2/2 - 1, x*=2-sqrt(2)."""
    problem, x_star, y_star = make_synthetic_instance(1, 2.0, 1.0)
    constants = derive_constants(problem, [problem.strict_point])
    return problem, constants, x_star, y_star


@pytest.fixture(scope="session")
def small_graph_bundle(tmp_path_factory):
    """A generated 30-node PageRank instance: a path plus random chords."""
    path = write_edge_list(tmp_path_factory.mktemp("graph") / "g30.txt", chorded_path_edges(30, 60, seed=5))
    probe = build_ppr_problem(load_graph(path), alpha=0.2, b=-1e-12)
    b = 0.5 * (probe.g(probe.strict_point)[0] - 1e-12)
    return build_instance(InstanceSpec(kind="graph", path=path, alpha=0.2, b=b))


@pytest.fixture(scope="session")
def small_graph(small_graph_bundle):
    """(problem, constants) of the 30-node instance; the problem has quadratic structure."""
    return small_graph_bundle.problem, small_graph_bundle.constants
