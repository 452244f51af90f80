import math

import numpy as np
import pytest

from percolab.core import (
    EXP_GROW,
    MAX_CLUSTER_CAP,
    _open_reach,
    grow_cluster_size,
    lazy_cluster,
)
from percolab.errors import CapExceeded
from percolab.exact import exact_magnetization
from percolab.lattices import build_ball
from percolab.streams import derive_key, stream
from reference import cluster_of_origin, edge_coords, sample_config, sample_config_keyed


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
    hits = sum(
        grow_cluster_size(z1, 0.5, 2, derive_key(2718, 5, rep))[0] >= 2
        for rep in range(n)
    )
    freq = hits / n
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
        size, trunc = grow_cluster_size(z2, 0.4, 50, derive_key(seed, EXP_GROW))
        assert (size, trunc) == (res.size, res.truncated)


def test_grow_cluster_size_tree(tree3):
    assert grow_cluster_size(tree3, 0.0, 10, 42) == (1, False)
    assert grow_cluster_size(tree3, 1.0, 64, 42) == (64, True)
