import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab import lattices
from percolab.errors import CapExceeded
from percolab.lattices import (
    LatticeSpec,
    ball_to_json,
    build_ball,
    incident_edges,
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
    (LatticeSpec.hypercubic(4), 1),
    (LatticeSpec.regular_tree(2), 4),
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


@pytest.mark.parametrize("spec, v", [
    (LatticeSpec.hypercubic(2), (1,)),
    (LatticeSpec.triangular(), (0, 0, 5)),
    (LatticeSpec.regular_tree(3), (5,)),
    (LatticeSpec.regular_tree(3), (0, 2)),
    (LatticeSpec.hypercubic(1), (2**21 - 1,)),
], ids=["short", "long", "tree-root-digit", "tree-later-digit", "key-range"])
def test_lazy_neighbors_rejects_coordinates_that_name_no_vertex(spec, v):
    # each of these once aliased another vertex or returned a wrapped neighbour
    with pytest.raises(ValueError):
        lazy_neighbors(spec, v)


def test_lazy_neighbors_at_the_key_range_edge():
    assert lazy_neighbors(LatticeSpec.hypercubic(1), (2**21 - 2,)) == [
        (2**21 - 1,), (2**21 - 3,)]
    assert lazy_neighbors(LatticeSpec.regular_tree(3), (2, 1)) == [
        (2,), (2, 1, 0), (2, 1, 1)]


def test_lazy_agrees_with_ball_adjacency(z2):
    ball = build_ball(z2, 3)
    for v in range(ball.n_vertices):
        if ball.distance[v] < 3:
            ball_nbrs = {ball.vertices[w] for _, w in ball.incidence[v]}
            assert ball_nbrs == set(lazy_neighbors(z2, ball.vertices[v]))


def test_ball_cap_rejected(z2, monkeypatch):
    monkeypatch.setattr(lattices, "MAX_BALL_VERTICES", 50)
    with pytest.raises(CapExceeded):
        build_ball(z2, 100)


def test_ball_radius_beyond_the_key_range_rejected():
    # coordinates at or past _KEY_HALF would wrap into other vertices' keys,
    # so the radius is refused before any vertex is visited
    with pytest.raises(CapExceeded, match="key encoding range"):
        build_ball(LatticeSpec.hypercubic(1), 2**21)


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec.hypercubic(0)
    with pytest.raises(ValueError):
        LatticeSpec.regular_tree(1)
    with pytest.raises(ValueError):
        LatticeSpec("kagome")
    # a field the family does not use must stay zero: one spec per lattice
    with pytest.raises(ValueError):
        LatticeSpec("hypercubic", 2, 5)
    with pytest.raises(ValueError):
        LatticeSpec("regular_tree", 3, 3)
    with pytest.raises(ValueError):
        LatticeSpec("triangular", 2)
    with pytest.raises(ValueError):
        LatticeSpec("triangular", tree_degree=3)


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


# Keys fix every seeded uniform, so these values are pinned literally: a
# change to any encoding moves every seeded output.
PINNED_KEYS = [
    (LatticeSpec.hypercubic(1), (0,), 0, [(0, 1), (-1, -1)]),
    (LatticeSpec.hypercubic(1), (-3,), -3, [(-3, -2), (-4, -4)]),
    (LatticeSpec.hypercubic(2), (0, 0), 0,
     [(0, 1), (-2, -1), (1, 4194304), (-8388607, -4194304)]),
    (LatticeSpec.hypercubic(2), (2, -1), -4194302,
     [(-8388604, -4194301), (-8388606, -4194303), (-8388603, 2),
      (-16777211, -8388606)]),
    (LatticeSpec.hypercubic(3), (1, -2, 3), 52776549744641,
     [(158329649233923, 52776549744642), (158329649233920, 52776549744640),
      (158329649233924, 52776553938945), (158329636651012, 52776545550337),
      (158329649233925, 70368735789057), (105553091100677, 35184363700225)]),
    (LatticeSpec.hypercubic(4), (0, 0, 0, -1), -73786976294838206464,
     [(-295147905179352825856, -73786976294838206463),
      (-295147905179352825860, -73786976294838206465),
      (-295147905179352825855, -73786976294834012160),
      (-295147905179369603071, -73786976294842400768),
      (-295147905179352825854, -73786958702652162048),
      (-295147975548097003518, -73786993887024250880),
      (-295147905179352825853, 0),
      (-590295810358705651709, -147573952589676412928)]),
    (LatticeSpec.triangular(), (0, 0), 0,
     [(0, 1), (-3, -1), (1, 4194304), (-12582911, -4194304), (2, 4194303),
      (-12582907, -4194303)]),
    (LatticeSpec.triangular(), (2, -1), 8388607,
     [(25165821, 8388608), (25165818, 8388606), (25165822, 12582911),
      (12582910, 4194303), (25165823, 12582910), (12582914, 4194304)]),
    (LatticeSpec.regular_tree(3), (), 1, [(5, 5), (6, 6), (7, 7)]),
    (LatticeSpec.regular_tree(3), (2,), 7, [(7, 1), (29, 29), (30, 30)]),
    (LatticeSpec.regular_tree(3), (1, 0), 25, [(25, 6), (101, 101), (102, 102)]),
]


@pytest.mark.parametrize("spec,coords,key,incident", PINNED_KEYS, ids=[
    f"{s.family}{s.dimension or s.tree_degree or ''}-{','.join(map(str, v))}"
    for s, v, _, _ in PINNED_KEYS])
def test_vertex_and_edge_keys_are_pinned(spec, coords, key, incident):
    assert vertex_key(spec, coords) == key
    assert incident_edges(spec, key) == incident
    assert key_to_coords(spec, key) == coords


@pytest.mark.parametrize("spec", [
    LatticeSpec.hypercubic(1), LatticeSpec.hypercubic(2),
    LatticeSpec.hypercubic(3), LatticeSpec.triangular()])
def test_incident_edges_are_translates_of_the_origins(spec):
    # the growth kernel keys every vertex's edges and neighbours by shifting
    # the origin's, which holds because the key encodings are linear
    ndir = len(spec._layout[1])
    at_origin = incident_edges(spec, 0)
    rng = random.Random(23)
    bound = lattices._KEY_HALF - 2
    for _ in range(300):
        coords = tuple(rng.randint(-bound, bound) for _ in spec.origin)
        v = vertex_key(spec, coords)
        assert incident_edges(spec, v) == [(e + v * ndir, w + v) for e, w in at_origin]
