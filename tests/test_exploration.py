import math

import numpy as np
import pytest

from percolab.exact import TRACE_CAP, _exploration_tree
from percolab.lattices import LatticeSpec, build_ball
from percolab.exploration import CLUSTER_FIRST, ExplorationTrace, _revealed_cluster
from percolab.streams import stream
from reference import (
    cluster_of_origin,
    edge_coords,
    is_pivotal_avoidance,
    pivotal_ghost_weight,
    revealed_open_cluster,
    run_exploration,
    sample_config,
    sample_ghost,
)


def _edge_index(ball, ca, cb):
    for e in range(ball.n_edges):
        if set(edge_coords(ball, e)) == {ca, cb}:
            return e
    raise AssertionError("edge not found")


def test_first_edge_is_constant(z1_ball2):
    # smallest-index edge incident to the origin, independent of the config
    assert CLUSTER_FIRST.next_edge(z1_ball2, ExplorationTrace()) == 0


def test_exhausted_trace(single_edge_ball):
    trace = ExplorationTrace((0,), (1,))
    assert CLUSTER_FIRST.next_edge(single_edge_ball, trace) is None


def test_cluster_phase_ends_after_closed_origin_edges(z1_ball2):
    # both origin edges revealed closed: next is the smallest non-incident edge
    trace = ExplorationTrace((0, 1), (0, 0))
    assert CLUSTER_FIRST.next_edge(z1_ball2, trace) == 2


@pytest.mark.parametrize("ball_name", ["z1_ball2", "z2_ball1", "tree3_ball1"])
def test_revealed_cluster_at_every_tree_node(request, ball_name):
    ball = request.getfixturevalue(ball_name)
    nodes = _exploration_tree(ball, CLUSTER_FIRST)
    assert len(nodes) == 2 ** ball.n_edges - 1
    for trace, _, _ in nodes:
        assert _revealed_cluster(ball, trace) == revealed_open_cluster(ball, trace)


def test_revealed_cluster_along_tri_explorations():
    # 12 edges is past TRACE_CAP, so the prefixes come from full explorations
    ball = build_ball(LatticeSpec.triangular(), 1)
    assert ball.n_edges > TRACE_CAP
    for p in (0.3, 0.5, 0.7):
        for seed in range(5):
            full = run_exploration(ball, CLUSTER_FIRST, sample_config(ball, p, 500 + seed))
            for k in range(full.k + 1):
                trace = ExplorationTrace(full.order[:k], full.values[:k])
                assert _revealed_cluster(ball, trace) == revealed_open_cluster(ball, trace)


def test_run_exploration_single_edge(single_edge_ball):
    trace = run_exploration(single_edge_ball, CLUSTER_FIRST,
                            np.array([1], dtype=np.uint8))
    assert trace.order == (0,)
    assert trace.values == (1,)


def test_run_exploration_all_open(z1_ball2):
    trace = run_exploration(z1_ball2, CLUSTER_FIRST, np.ones(4, dtype=np.uint8))
    # the two origin edges (indices 0, 1) come before the distance-2 edges
    assert trace.order == (0, 1, 2, 3)


def test_run_exploration_all_closed(z1_ball2):
    trace = run_exploration(z1_ball2, CLUSTER_FIRST, np.zeros(4, dtype=np.uint8))
    assert trace.order == (0, 1, 2, 3)


def test_run_exploration_follows_cluster(z1_ball2):
    # edge 0 closed, edge 1 open: the cluster reaches +1 so its far edge
    # jumps the queue ahead of the lower-index non-incident edge
    e_right = _edge_index(z1_ball2, (0,), (1,))
    config = np.zeros(4, dtype=np.uint8)
    config[e_right] = 1
    trace = run_exploration(z1_ball2, CLUSTER_FIRST, config)
    e_far_right = _edge_index(z1_ball2, (1,), (2,))
    assert trace.order[0] == 0
    assert trace.order[1] == e_right == 1
    assert trace.order[2] == e_far_right


def test_trace_requires_distinct_edges():
    with pytest.raises(ValueError):
        ExplorationTrace((0, 0), (1, 0))
    with pytest.raises(ValueError):
        ExplorationTrace((0, 1), (1,))


def test_adaptedness(z2_ball1):
    # configs agreeing on the first k revealed values share the first k+1
    # entries of the revealed order
    for s1 in range(8):
        for s2 in range(8):
            c1 = sample_config(z2_ball1, 0.5, 1000 + s1)
            c2 = sample_config(z2_ball1, 0.5, 2000 + s2)
            t1 = run_exploration(z2_ball1, CLUSTER_FIRST, c1)
            t2 = run_exploration(z2_ball1, CLUSTER_FIRST, c2)
            agree = 0
            while (agree < t1.k and t1.order[agree] == t2.order[agree]
                   and t1.values[agree] == t2.values[agree]):
                agree += 1
            assert t1.order[:min(agree + 1, t1.k)] == t2.order[:min(agree + 1, t2.k)]


def test_pivotal_trivial_cases(z1_ball1):
    config = np.array([0, 1], dtype=np.uint8)
    no_ghost = np.zeros(3, dtype=np.uint8)
    assert not any(is_pivotal_avoidance(z1_ball1, config, no_ghost, e)
                   for e in range(2))
    origin_green = np.zeros(3, dtype=np.uint8)
    origin_green[z1_ball1.origin] = 1
    assert not any(is_pivotal_avoidance(z1_ball1, config, origin_green, e)
                   for e in range(2))


def test_pivotal_green_neighbor(z1_ball1):
    # green exactly at +1: the edge to +1 is pivotal whatever the other edge
    ghost = np.zeros(3, dtype=np.uint8)
    ghost[z1_ball1.vertices.index((1,))] = 1
    e = _edge_index(z1_ball1, (0,), (1,))
    for other_state in (0, 1):
        config = np.full(2, other_state, dtype=np.uint8)
        assert is_pivotal_avoidance(z1_ball1, config, ghost, e)


def test_pivotal_weight_trivial(z1_ball1):
    # ring edges of the all-open triangular ball never change the origin
    # cluster (both endpoints stay spoke-connected), so their weight is zero
    ball = build_ball(LatticeSpec.triangular(), 1)
    config = np.ones(ball.n_edges, dtype=np.uint8)
    ring = [e for e in range(ball.n_edges)
            if (0, 0) not in edge_coords(ball, e)]
    assert ring
    for e in ring:
        assert pivotal_ghost_weight(ball, config, e, 0.7) == 0.0
    # h = 0: no vertex is ever green
    assert pivotal_ghost_weight(z1_ball1, np.zeros(2, dtype=np.uint8), 0, 0.0) == 0.0


def test_pivotal_weight_hand_value(z1_ball1):
    # all other edges closed, edge (o, +1): |C-| = 1, |D| = 1
    h = 0.8
    e = _edge_index(z1_ball1, (0,), (1,))
    config = np.zeros(2, dtype=np.uint8)
    expected = math.exp(-h) * (1 - math.exp(-h))
    assert abs(pivotal_ghost_weight(z1_ball1, config, e, h) - expected) < 1e-14


@pytest.mark.parametrize("edge_state", [0, 1])
def test_pivotal_weight_matches_ghost_enumeration(z1_ball1, edge_state):
    # exhaustive ghost enumeration is an independent oracle for the weight
    h = 0.6
    g = 1 - math.exp(-h)
    e = _edge_index(z1_ball1, (0,), (1,))
    config = np.array([edge_state, 1], dtype=np.uint8)
    total = 0.0
    for state in range(8):
        ghost = np.array([(state >> i) & 1 for i in range(3)], dtype=np.uint8)
        prob = math.prod(g if b else 1 - g for b in ghost)
        if is_pivotal_avoidance(z1_ball1, config, ghost, e):
            total += prob
    assert abs(total - pivotal_ghost_weight(z1_ball1, config, e, h)) < 1e-12


def test_pivotal_weight_matches_ghost_sampling(z2_ball1):
    # 1e5 sampled ghosts, indicator averaged, within 3 standard errors
    h = 0.5
    config = sample_config(z2_ball1, 0.5, 11)
    for e in (0, z2_ball1.n_edges - 1):
        lo = config.copy()
        lo[e] = 0
        hi = config.copy()
        hi[e] = 1
        c_minus = sorted(cluster_of_origin(z2_ball1, lo).members)
        c_plus = sorted(cluster_of_origin(z2_ball1, hi).members)
        grew = sorted(set(c_plus) - set(c_minus))
        n = 100_000
        u = stream(55, e).random((n, z2_ball1.n_vertices))
        ghosts = u < (1 - math.exp(-h))
        piv = ~ghosts[:, c_minus].any(axis=1)
        piv &= ghosts[:, grew].any(axis=1) if grew else False
        # spot-check the vectorized indicator against the reference predicate
        for row in range(0, n, 10_000):
            assert bool(piv[row]) == is_pivotal_avoidance(
                z2_ball1, config, ghosts[row].astype(np.uint8), e)
        truth = pivotal_ghost_weight(z2_ball1, config, e, h)
        se = math.sqrt(max(truth * (1 - truth), 1e-12) / n)
        assert abs(float(piv.mean()) - truth) <= 3 * se + 1e-12


def test_weight_elementary_bound(z2_ball1):
    # weight <= 1 - e^{-h |D|} <= h |D|
    h = 0.9
    config = sample_config(z2_ball1, 0.4, 21)
    for e in range(z2_ball1.n_edges):
        lo = config.copy()
        lo[e] = 0
        hi = config.copy()
        hi[e] = 1
        d = (cluster_of_origin(z2_ball1, hi).size
             - cluster_of_origin(z2_ball1, lo).size)
        w = pivotal_ghost_weight(z2_ball1, config, e, h)
        assert w <= 1 - math.exp(-h * d) + 1e-15 <= h * d + 1e-15


def test_pivotal_step_has_cluster_structure(z2_ball1):
    # a pivotal next edge always joins the revealed cluster to its outside
    for seed in range(25):
        config = sample_config(z2_ball1, 0.5, 3000 + seed)
        ghost = sample_ghost(z2_ball1, 0.8, 4000 + seed)
        full = run_exploration(z2_ball1, CLUSTER_FIRST, config)
        trace = ExplorationTrace()
        for e, x in zip(full.order, full.values):
            if is_pivotal_avoidance(z2_ball1, config, ghost, e):
                cluster = revealed_open_cluster(z2_ball1, trace)
                i, j = z2_ball1.edges[e]
                assert (i in cluster) != (j in cluster)
            trace = trace.extend(e, x)
