import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab.errors import CapExceeded
from percolab.lattices import (
    LatticeSpec,
    ball_to_json,
    build_ball,
    key_to_coords,
    lazy_neighbors,
    vertex_key,
)
from reference import edge_coords, edge_key


def test_z1_ball1_is_a_path(z1_ball1):
    assert z1_ball1.n_vertices == 3
    assert z1_ball1.n_edges == 2
    assert z1_ball1.vertices[z1_ball1.origin] == (0,)


def test_z2_ball1_is_a_plus_sign(z2_ball1):
    # 4 diagonal edges have an endpoint outside the ball and are excluded
    assert z2_ball1.n_vertices == 5
    assert z2_ball1.n_edges == 4


def test_tree3_ball_counts(tree3):
    ball = build_ball(tree3, 2)
    assert ball.n_vertices == 1 + 3 + 6
    assert ball.n_edges == 9


def test_radius_zero_ball(z2):
    ball = build_ball(z2, 0)
    assert ball.n_vertices == 1
    assert ball.n_edges == 0


def test_triangular_ball_counts():
    ball = build_ball(LatticeSpec.triangular(), 1)
    assert ball.n_vertices == 7
    assert ball.n_edges == 12  # 6 spokes + 6 ring edges


def test_vertex_lists_are_nested_prefixes(z2):
    small = build_ball(z2, 2)
    large = build_ball(z2, 3)
    assert large.vertices[:small.n_vertices] == small.vertices
    # induced subgraph: edge sets agree as coordinate pairs
    small_edges = {frozenset((small.vertices[i], small.vertices[j]))
                   for i, j in small.edges}
    large_edges = {frozenset((large.vertices[i], large.vertices[j]))
                   for i, j in large.edges}
    assert small_edges <= large_edges


@pytest.mark.parametrize("spec,n", [
    (LatticeSpec.hypercubic(1), 4),
    (LatticeSpec.hypercubic(2), 3),
    (LatticeSpec.hypercubic(3), 2),
    (LatticeSpec.triangular(), 3),
    (LatticeSpec.regular_tree(3), 3),
    (LatticeSpec.regular_tree(4), 2),
])
def test_interior_transitivity(spec, n):
    # every vertex strictly inside the ball keeps the full lattice degree
    ball = build_ball(spec, n)
    for v in range(ball.n_vertices):
        if ball.distance[v] < n:
            assert len(ball.incidence[v]) == spec.degree


def test_lazy_neighbors_z2():
    got = set(lazy_neighbors(LatticeSpec.hypercubic(2), (0, 0)))
    assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_lazy_neighbors_tree_root():
    assert lazy_neighbors(LatticeSpec.regular_tree(3), ()) == [(0,), (1,), (2,)]


def test_lazy_neighbors_triangular_origin():
    got = lazy_neighbors(LatticeSpec.triangular(), (0, 0))
    assert len(got) == 6
    assert len(set(got)) == 6


@pytest.mark.parametrize("spec", [
    LatticeSpec.hypercubic(2),
    LatticeSpec.triangular(),
    LatticeSpec.regular_tree(3),
])
def test_lazy_neighbors_symmetric(spec):
    seeds = [spec.origin]
    for v in list(seeds):
        seeds.extend(lazy_neighbors(spec, v))
    for v in seeds[:20]:
        for w in lazy_neighbors(spec, v):
            assert v in lazy_neighbors(spec, w)
            assert len(lazy_neighbors(spec, w)) == spec.degree


def test_lazy_agrees_with_ball_adjacency(z2):
    ball = build_ball(z2, 3)
    for v in range(ball.n_vertices):
        if ball.distance[v] < 3:
            ball_nbrs = {ball.vertices[w] for _, w in ball.incidence[v]}
            assert ball_nbrs == set(lazy_neighbors(z2, ball.vertices[v]))


def test_ball_cap_rejected(z2):
    with pytest.raises(CapExceeded):
        build_ball(z2, 100, max_vertices=50)


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec.hypercubic(0)
    with pytest.raises(ValueError):
        LatticeSpec.regular_tree(1)
    with pytest.raises(ValueError):
        LatticeSpec("kagome")


def test_ball_json_export(z1_ball2):
    doc = ball_to_json(z1_ball2)
    assert doc["vertices"][doc["origin"]] == [0]
    assert len(doc["edges"]) == z1_ball2.n_edges
    assert all(len(e) == 2 for e in doc["edges"])


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(-500, 500), st.integers(-500, 500)))
def test_vertex_key_roundtrip_z2(coords):
    spec = LatticeSpec.hypercubic(2)
    assert key_to_coords(spec, vertex_key(spec, coords)) == coords


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(-500, 500), st.integers(-500, 500)))
def test_vertex_key_roundtrip_triangular(coords):
    spec = LatticeSpec.triangular()
    assert key_to_coords(spec, vertex_key(spec, coords)) == coords


def test_vertex_key_roundtrip_tree():
    spec = LatticeSpec.regular_tree(3)
    for coords in [(), (0,), (2,), (1, 0), (2, 1, 0, 1)]:
        assert key_to_coords(spec, vertex_key(spec, coords)) == coords


@pytest.mark.parametrize("spec,n", [
    (LatticeSpec.hypercubic(2), 2),
    (LatticeSpec.triangular(), 2),
    (LatticeSpec.regular_tree(3), 2),
])
def test_edge_keys_unique_and_symmetric(spec, n):
    ball = build_ball(spec, n)
    keys = set()
    for e in range(ball.n_edges):
        va, vb = edge_coords(ball, e)
        k = edge_key(spec, va, vb)
        assert k == edge_key(spec, vb, va)
        keys.add(k)
    assert len(keys) == ball.n_edges
