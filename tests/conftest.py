import pytest

from szlab.enumeration import EnumerationSpec, generate
from szlab.graphs import Graph, complete_bipartite, cycle_graph


def path_graph(p: int) -> Graph:
    return Graph(p, [(i, i + 1) for i in range(p - 1)])


@pytest.fixture(scope="session")
def enumerated():
    """All connected bipartite graphs up to 8 vertices, keyed by n.

    Generated once with no edge floor; tests slice by edge count themselves.
    """
    return {n: list(generate(EnumerationSpec(n=n, min_edges=0))) for n in range(1, 9)}


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def k23():
    return complete_bipartite(2, 3)


@pytest.fixture
def c4_pendant():
    """4-cycle 0-1-2-3 with a pendant vertex 4 attached at 0."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])


@pytest.fixture
def c4_tail3():
    """4-cycle 0-1-2-3 with the path 0-4-5-6 hanging from vertex 0."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6)])


@pytest.fixture
def c4_two_pendants():
    """4-cycle 0-1-2-3 with pendants at the two adjacent vertices 0 and 1."""
    return Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)])
