"""Adaptive edge-revealing explorations and pivotality for the avoidance event.

An exploration reveals the edges of a ball one at a time; the next edge to
reveal may depend only on the edges already revealed and their states.  The
default rule is cluster-first: keep revealing the smallest-index unrevealed
edge touching the currently known open cluster of the origin, and once that
cluster is complete, sweep the remaining edges in index order.

The event of interest throughout is *avoidance*: the origin's cluster
contains no green vertex.  An edge is pivotal when flipping it (ghost fixed)
changes the avoidance indicator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import cluster_of_origin
from .lattices import GraphBall


@dataclass(frozen=True)
class ExplorationTrace:
    """Revealed prefix of an exploration: edge order and observed states."""

    order: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if len(self.order) != len(self.values):
            raise ValueError("order and values must have equal length")
        if len(set(self.order)) != len(self.order):
            raise ValueError("revealed edges must be distinct")

    @property
    def k(self) -> int:
        return len(self.order)

    def extend(self, edge: int, value: int) -> "ExplorationTrace":
        return ExplorationTrace(self.order + (edge,), self.values + (int(value),))


def revealed_open_cluster(ball: GraphBall, trace: ExplorationTrace) -> set:
    """Vertices joined to the origin by revealed-open edges of the trace."""
    open_adj = {}
    for e, x in zip(trace.order, trace.values):
        if x:
            i, j = ball.edges[e]
            open_adj.setdefault(i, []).append(j)
            open_adj.setdefault(j, []).append(i)
    seen = {ball.origin}
    queue = [ball.origin]
    while queue:
        v = queue.pop()
        for w in open_adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


class ClusterFirstRule:
    """Reveal the origin's cluster first, then everything else, smallest index wins."""

    def next_edge(self, ball: GraphBall, trace: ExplorationTrace):
        if trace.k >= ball.n_edges:
            return None
        revealed = set(trace.order)
        cluster = revealed_open_cluster(ball, trace)
        fallback = None
        for e, (i, j) in enumerate(ball.edges):
            if e in revealed:
                continue
            if i in cluster or j in cluster:
                return e
            if fallback is None:
                fallback = e
        return fallback


CLUSTER_FIRST = ClusterFirstRule()


def run_exploration(ball: GraphBall, rule, config: np.ndarray) -> ExplorationTrace:
    """Reveal every edge of ``config`` in the order chosen by ``rule``."""
    trace = ExplorationTrace()
    while True:
        e = rule.next_edge(ball, trace)
        if e is None:
            return trace
        trace = trace.extend(e, int(config[e]))


def _flip_clusters(ball, config, edge):
    """Origin clusters with ``edge`` forced closed and forced open."""
    clusters = []
    for bit in (0, 1):
        flipped = np.array(config, dtype=np.uint8)
        flipped[edge] = bit
        clusters.append(cluster_of_origin(ball, flipped))
    return clusters


def is_pivotal_avoidance(ball: GraphBall, config: np.ndarray,
                         ghost: np.ndarray, edge: int) -> bool:
    """Does flipping ``edge`` change whether the origin cluster avoids green?"""
    lo, hi = _flip_clusters(ball, config, edge)
    return any(ghost[v] for v in lo.members) != any(ghost[v] for v in hi.members)


def pivotal_ghost_weight(ball: GraphBall, config: np.ndarray,
                         edge: int, h: float) -> float:
    """Ghost-averaged pivotality probability of ``edge`` given the other edges.

    With the edge forced closed the cluster is C-; forced open it is C+ and
    D = C+ \\ C-.  The edge is pivotal exactly when C- has no green vertex
    but D does, so the probability is e^{-h|C-|} (1 - e^{-h|D|}).
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    lo, hi = _flip_clusters(ball, config, edge)
    d = hi.size - lo.size
    if d == 0:
        return 0.0
    return math.exp(-h * lo.size) * -math.expm1(-h * d)
