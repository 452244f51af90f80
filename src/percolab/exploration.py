"""Adaptive edge-revealing explorations of a ball.

An exploration reveals the edges of a ball one at a time; the next edge to
reveal may depend only on the edges already revealed and their states.  The
default rule is cluster-first: keep revealing the smallest-index unrevealed
edge touching the currently known open cluster of the origin, and once that
cluster is complete, sweep the remaining edges in index order.
"""

from dataclasses import dataclass

from .core import _open_reach
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


def _revealed_cluster(ball: GraphBall, trace: ExplorationTrace) -> set:
    """Vertex indices that the trace's revealed-open edges join to the origin."""
    config = [0] * ball.n_edges
    for e, x in zip(trace.order, trace.values):
        config[e] = x
    return _open_reach(ball.incidence, [ball.origin], config)


class ClusterFirstRule:
    """Reveal the origin's cluster first, then everything else, smallest index wins."""

    def next_edge(self, ball: GraphBall, trace: ExplorationTrace):
        if trace.k >= ball.n_edges:
            return None
        revealed = set(trace.order)
        cluster = _revealed_cluster(ball, trace)
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
