import pytest

import percolab.estimators
from percolab.lattices import GraphBall, LatticeSpec, build_ball


@pytest.fixture(scope="session")
def z1():
    return LatticeSpec.hypercubic(1)


@pytest.fixture(scope="session")
def z2():
    return LatticeSpec.hypercubic(2)


@pytest.fixture(scope="session")
def tree3():
    return LatticeSpec.regular_tree(3)


@pytest.fixture(scope="session")
def z1_ball1(z1):
    return build_ball(z1, 1)


@pytest.fixture(scope="session")
def z1_ball2(z1):
    return build_ball(z1, 2)


@pytest.fixture(scope="session")
def z2_ball1(z2):
    return build_ball(z2, 1)


@pytest.fixture(scope="session")
def tree3_ball1(tree3):
    return build_ball(tree3, 1)


@pytest.fixture(scope="session")
def single_edge_ball(z1):
    # Two vertices joined by one edge; the smallest graph with an edge.
    return GraphBall(z1, 1, [(0,), (1,)], [(0, 1)], [0, 1])


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every pool the estimators open.  The stand-in
    runs the blocks serially here and starts no process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(percolab.estimators, "ProcessPoolExecutor", SerialPool)
    return sizes
