import math

import numpy as np
import pytest

import percolab.core
from percolab.core import (
    EXP_GROW,
    MAX_CLUSTER_CAP,
    _open_reach,
    check_cap,
    grow_cluster_size,
    grow_sizes,
    lazy_cluster,
    replicate_key,
)
from percolab.errors import CapExceeded
from percolab.exact import exact_magnetization
from percolab.lattices import LatticeSpec, build_ball, incident_edges, key_to_coords, vertex_key
from percolab.streams import derive_key, derive_keys, keyed_uniform, stream
from reference import (
    bfs_layers,
    cluster_of_origin,
    edge_coords,
    grow_depth_first,
    sample_config,
    sample_config_keyed,
)


def test_cluster_extremes(z1_ball2):
    closed = cluster_of_origin(z1_ball2, np.zeros(4, dtype=np.uint8))
    assert closed.members == frozenset({z1_ball2.origin})
    assert closed.size == 1 and not closed.truncated
    opened = cluster_of_origin(z1_ball2, np.ones(4, dtype=np.uint8))
    assert opened.size == z1_ball2.n_vertices


def test_cluster_single_open_edge(z1_ball2):
    # open only the edge from the origin to +1: cluster is {o, +1}
    target = {(0,), (1,)}
    config = np.zeros(4, dtype=np.uint8)
    for e in range(4):
        va, vb = edge_coords(z1_ball2, e)
        if {va, vb} == target:
            config[e] = 1
    got = cluster_of_origin(z1_ball2, config)
    assert got.size == 2
    assert {z1_ball2.vertices[v] for v in got.members} == target


@pytest.mark.parametrize("roots, reached", [
    ([], set()),
    ([0], {0, 1}),
    ([-2], {-2, -1}),
    ([2], {2}),
    ([-1, 2], {-2, -1, 2}),
    ([1, -1, 1], {-2, -1, 0, 1}),
])
def test_open_reach_from_several_roots(z1_ball2, roots, reached):
    # the path -2 .. 2 with the edges {-2, -1} and {0, 1} open
    index = {v: i for i, (v,) in enumerate(z1_ball2.vertices)}
    open_edges = {frozenset({-2, -1}), frozenset({0, 1})}
    config = [int(frozenset(z1_ball2.vertices[i][0] for i in edge) in open_edges)
              for edge in z1_ball2.edges]
    assert sum(config) == 2
    got = _open_reach(z1_ball2.incidence, [index[v] for v in roots], config)
    assert {z1_ball2.vertices[i][0] for i in got} == reached


def test_ghost_avoidance_weight_by_enumeration(z1_ball1):
    # at p = 1 the origin cluster is the whole 3-vertex ball, so the exact
    # magnetization is P(some vertex green), summed over the 8 ghost states
    h = 0.5
    g = 1 - math.exp(-h)
    total = 0.0
    for state in range(8):
        bits = [(state >> i) & 1 for i in range(3)]
        prob = math.prod(g if b else 1 - g for b in bits)
        if any(bits):
            total += prob
    assert abs(total - exact_magnetization(z1_ball1, 1.0, h)) < 1e-12


def test_ghost_avoidance_weight_matches_sampling(z2_ball1):
    # fixed config; frequency of {cluster meets no green} over 1e5 ghosts
    config = sample_config(z2_ball1, 0.6, 4)
    members = sorted(cluster_of_origin(z2_ball1, config).members)
    h = 0.4
    n = 100_000
    u = stream(123, 77).random((n, z2_ball1.n_vertices))
    ghosts = u < (1 - math.exp(-h))
    freq = float((~ghosts[:, members].any(axis=1)).mean())
    truth = math.exp(-h * len(members))
    se = math.sqrt(truth * (1 - truth) / n)
    assert abs(freq - truth) <= 3 * se


def test_lazy_cluster_trivial(z2):
    res = lazy_cluster(z2, 0.0, cap=10, rng_seed=1)
    assert res.size == 1 and not res.truncated
    res = lazy_cluster(z2, 1.0, cap=100, rng_seed=1)
    assert res.size >= 100 and res.truncated


def test_lazy_cluster_z1_law(z1):
    # on the line, P(|cluster| >= 2) = 1 - (1-p)^2 = 3/4 at p = 1/2
    n = 100_000
    sizes, _ = grow_sizes(z1, 0.5, 2, derive_key(2718, 5), 0, n)
    freq = float((sizes >= 2).mean())
    assert abs(freq - 0.75) < 0.006  # ~4.4 standard errors


def test_lazy_cluster_cap_validation(z2):
    with pytest.raises(ValueError):
        lazy_cluster(z2, 0.5, cap=0, rng_seed=1)
    with pytest.raises(CapExceeded):
        lazy_cluster(z2, 0.5, cap=MAX_CLUSTER_CAP + 1, rng_seed=1)


def test_lazy_cluster_matches_ball_cluster(z2):
    # same keyed uniforms: lazy growth and a ball configuration agree
    # whenever the cluster stays strictly inside the ball
    ball = build_ball(z2, 6)
    checked = 0
    for seed in range(40):
        res = lazy_cluster(z2, 0.35, cap=200, rng_seed=seed)
        if res.truncated or max(sum(abs(c) for c in v) for v in res.members) >= 6:
            continue
        config = sample_config_keyed(ball, 0.35, derive_key(seed, EXP_GROW))
        got = cluster_of_origin(ball, config)
        assert {ball.vertices[v] for v in got.members} == set(res.members)
        checked += 1
    assert checked >= 10


def test_grow_matches_lazy_cluster(z2):
    for seed in (0, 1, 2, 3):
        res = lazy_cluster(z2, 0.4, cap=50, rng_seed=seed)
        rkey = derive_key(seed, EXP_GROW)
        keys, trunc = grow_depth_first(z2, 0.4, 50, rkey)
        assert (len(keys), trunc) == (res.size, res.truncated)
        assert grow_cluster_size(z2, 0.4, 50, rkey) == (res.size, res.truncated)


def test_grow_cluster_size_tree(tree3):
    assert grow_cluster_size(tree3, 0.0, 10, 42) == (1, False)
    assert grow_cluster_size(tree3, 1.0, 64, 42) == (64, True)


def _scalar_sizes(spec, p, cap, seed, lo, hi):
    grown = (grow_depth_first(spec, p, cap, replicate_key(seed, EXP_GROW, rep))
             for rep in range(lo, hi))
    return [(len(keys), trunc) for keys, trunc in grown]


def _batched_sizes(spec, p, cap, seed, lo, hi):
    sizes, trunc = grow_sizes(spec, p, cap, derive_key(seed, EXP_GROW), lo, hi)
    assert sizes.dtype == np.int64 and trunc.dtype == bool
    return [(int(s), bool(t)) for s, t in zip(sizes, trunc)]


# per lattice: a subcritical and a supercritical p (the line has p_c = 1)
_GROWTH_CASES = {
    "z1": (LatticeSpec.hypercubic(1), 0.5, 0.9),
    "z2": (LatticeSpec.hypercubic(2), 0.4, 0.6),
    "tri": (LatticeSpec.triangular(), 0.3, 0.5),
    "z3": (LatticeSpec.hypercubic(3), 0.2, 0.35),
    "tree3": (LatticeSpec.regular_tree(3), 0.45, 0.6),
    "tree2": (LatticeSpec.regular_tree(2), 0.5, 0.99),
}


@pytest.mark.parametrize("cap", [1, 2, 120, 691])
@pytest.mark.parametrize("lattice", sorted(_GROWTH_CASES))
def test_batched_growth_matches_scalar(lattice, cap):
    # the keyed uniforms fix the open edges, so growing breadth-first in
    # batches reveals the same cluster as the depth-first scalar loop
    spec, sub, sup = _GROWTH_CASES[lattice]
    check_cap(spec, cap)
    n = 60 if cap < 691 else 12
    for p in (0.0, sub, sup, 1.0):
        got = _batched_sizes(spec, p, cap, 5, 3, 3 + n)
        assert got == _scalar_sizes(spec, p, cap, 5, 3, 3 + n), (lattice, p, cap)
    assert got == [(cap, True)] * n  # p = 1: every cluster is infinite


def test_batched_growth_matches_scalar_past_64_bit_tree_keys():
    # regular_tree(2) keys a vertex at depth k by about 3^k, past 2^64 from
    # depth 41; both kernels reduce edge keys mod 2^64 the same way
    spec = LatticeSpec.regular_tree(2)
    deepest = max(max(grow_depth_first(spec, 0.99, 100, replicate_key(0, EXP_GROW, rep))[0])
                  for rep in range(40))
    assert deepest >= 2 ** 64
    got = _batched_sizes(spec, 0.99, 100, 0, 0, 40)
    assert got == _scalar_sizes(spec, 0.99, 100, 0, 0, 40)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_vectorized_replicate_keys(seed):
    reps = [0, 1, 2, 999, 2 ** 40, 2 ** 64 - 1]
    got = derive_keys(derive_key(seed, 11), np.array(reps, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert [int(k) for k in got] == [replicate_key(seed, 11, rep) for rep in reps]


def test_batch_coverage():
    # packed (replicate, vertex key) pairs must fit in 63 bits: z3 stops
    # fitting past cap 262,144, d >= 4 never fits, and the 2-D lattices and
    # trees fit up to the memory budget
    z3, z4 = LatticeSpec.hypercubic(3), LatticeSpec.hypercubic(4)
    for cap in (1, 2, 120, 691, 100_000, 262_144):
        check_cap(z3, cap)
    for spec, cap in [(z3, 262_145), (z3, MAX_CLUSTER_CAP), (z4, 1), (z4, 2), (z4, 120)]:
        with pytest.raises(CapExceeded, match="key encoding range"):
            check_cap(spec, cap)
    for spec in (LatticeSpec.hypercubic(1), LatticeSpec.hypercubic(2),
                 LatticeSpec.triangular(), LatticeSpec.regular_tree(3)):
        check_cap(spec, MAX_CLUSTER_CAP)


def test_lazy_cluster_past_the_key_range_grows_nothing(monkeypatch):
    # on hypercubic(4) the edge keys alias mod 2^64, so no cluster is grown
    def no_growth(*args):
        raise AssertionError("grew a cluster")
    monkeypatch.setattr(percolab.core, "_lattice_layers", no_growth)
    monkeypatch.setattr(percolab.core, "_tree_layers", no_growth)
    with pytest.raises(CapExceeded, match="key encoding range"):
        lazy_cluster(LatticeSpec.hypercubic(4), 0.1, cap=5, rng_seed=1)
    with pytest.raises(CapExceeded, match="key encoding range"):
        lazy_cluster(LatticeSpec.hypercubic(3), 0.1, cap=262_145, rng_seed=1)


def _open_component(spec, p, rkey, members):
    """The members that open edges between members join to the origin."""
    keys = {vertex_key(spec, v) for v in members}
    origin = vertex_key(spec, spec.origin)
    seen, queue = {origin}, [origin]
    while queue:
        for ek, w in incident_edges(spec)(queue.pop()):
            if w in keys and w not in seen and keyed_uniform(rkey, ek) < p:
                seen.add(w)
                queue.append(w)
    return {key_to_coords(spec, k) for k in seen}


@pytest.mark.parametrize("cap", [1, 2, 120, 691])
@pytest.mark.parametrize("lattice", sorted(_GROWTH_CASES))
def test_lazy_cluster_matches_depth_first_growth(lattice, cap):
    # BFS and DFS reach the same maximal cluster; a truncated one keeps the
    # complete BFS layers, then the first of the last layer in kernel order
    spec, sub, sup = _GROWTH_CASES[lattice]
    for p in (0.0, sub, sup, 1.0):
        for seed in range(6):
            rkey = derive_key(seed, EXP_GROW)
            res = lazy_cluster(spec, p, cap, seed)
            keys, trunc = grow_depth_first(spec, p, cap, rkey)
            assert (res.size, res.truncated) == (len(keys), trunc), (lattice, p, seed)
            assert grow_cluster_size(spec, p, cap, rkey) == (res.size, res.truncated)
            assert lazy_cluster(spec, p, cap, seed) == res
            assert len(res.members) == res.size and spec.origin in res.members
            if not trunc:
                assert res.members == {key_to_coords(spec, k) for k in keys}
                continue
            assert _open_component(spec, p, rkey, res.members) == res.members
            *inner, last = bfs_layers(spec, p, rkey, cap)
            inner = [k for layer in inner for k in layer]
            expected = inner + last[:cap - len(inner)]
            assert res.members == {key_to_coords(spec, k) for k in expected}


def test_lazy_cluster_tree_coordinates_past_64_bit_keys():
    # regular_tree(2) keys a vertex at depth k by about 3^k, past 2^64 from
    # depth 41, where the kernel's uint64 keys wrap: coordinates must still
    # name the vertices the exact keys of the reference name
    spec = LatticeSpec.regular_tree(2)
    deepest, untruncated = 0, 0
    for seed in range(40):
        res = lazy_cluster(spec, 0.99, 100, seed)
        rkey = derive_key(seed, EXP_GROW)
        deepest = max(deepest, max(vertex_key(spec, v) for v in res.members))
        keys, trunc = grow_depth_first(spec, 0.99, 100, rkey)
        if trunc:
            assert len(res.members) == 100 and spec.origin in res.members
            assert _open_component(spec, 0.99, rkey, res.members) == res.members
        else:
            assert res.members == {key_to_coords(spec, k) for k in keys}
            untruncated += 1
    assert deepest >= 2 ** 64 and untruncated > 0
