"""Percolation configurations and cluster growth.

An edge configuration is indexed like ``ball.edges`` (1 = open, 0 = closed).
``_open_reach`` is the one open-edge search on a finite graph, while
``lazy_cluster`` grows the origin's cluster directly on the infinite
lattice, revealing each incident edge exactly once with a fresh
Bernoulli(p) value, so the law of min(|cluster|, cap) matches the true
percolation law without building a large ball.
"""

from dataclasses import dataclass

from .errors import CapExceeded
from .lattices import LatticeSpec, incident_edges, key_to_coords, vertex_key
from .streams import derive_key, keyed_uniform

# Stream label of lazy growth: (seed, label, ...) paths keep experiments
# independent.
EXP_GROW = 3

MAX_CLUSTER_CAP = 1_000_000


@dataclass(frozen=True)
class ClusterResult:
    """The origin's open cluster.

    members: vertex indices (finite ball) or coordinate tuples (lazy growth).
    truncated: the cluster reached the size cap; it may be maximal all the same.
    """

    members: frozenset
    size: int
    truncated: bool


def _open_reach(incidence, roots, config) -> set:
    """Vertices that open edges (``config[e]`` true) join to ``roots``, the
    roots included; ``incidence`` is laid out like ``GraphBall.incidence``."""
    seen = set(roots)
    queue = list(seen)
    while queue:
        for e, w in incidence[queue.pop()]:
            if config[e] and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


# ---------------------------------------------------------------------------
# Lazy growth on the infinite lattice.
#
# One loop serves every family: it works on integer vertex keys (see
# lattices) and draws one keyed uniform per edge leaving the cluster.
# Estimator throughput depends on it.
# ---------------------------------------------------------------------------

def _grow(spec, p, cap, rkey):
    """Member keys of the origin's cluster, grown depth-first until it is
    maximal or has ``cap`` vertices, and whether it reached ``cap``.

    An edge into the cluster is never drawn: its uniform is a pure function
    of the edge, so skipping it changes nothing but the work.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if cap > MAX_CLUSTER_CAP:
        raise CapExceeded(f"cap {cap} exceeds the memory budget {MAX_CLUSTER_CAP}")
    incident = incident_edges(spec)
    origin = vertex_key(spec, spec.origin)
    members = {origin}
    if cap <= 1:
        return members, True
    queue = [origin]
    while queue:
        for ek, w in incident(queue.pop()):
            if w not in members and keyed_uniform(rkey, ek) < p:
                members.add(w)
                if len(members) >= cap:
                    return members, True
                queue.append(w)
    return members, False


def grow_cluster_size(spec: LatticeSpec, p: float, cap: int, rkey: int):
    """Grow the origin's cluster; return (size, truncated).

    Stops at a maximal cluster or at ``cap`` vertices; ``truncated`` means it hit ``cap``.
    """
    members, truncated = _grow(spec, p, cap, rkey)
    return len(members), truncated


def lazy_cluster(spec: LatticeSpec, p: float, cap: int, rng_seed: int) -> ClusterResult:
    """Origin cluster on the infinite lattice with full membership detail.

    Members are reported as coordinate tuples.  Equivalent in law to sampling
    a huge ball and reading off the origin's cluster; the per-edge uniforms
    are keyed by (seed, edge), so runs at p <= p' with the same seed grow
    nested clusters.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    keys, truncated = _grow(spec, p, cap, derive_key(rng_seed, EXP_GROW))
    members = frozenset(key_to_coords(spec, k) for k in keys)
    return ClusterResult(members, len(members), truncated=truncated)


def replicate_key(seed: int, experiment: int, replicate: int) -> int:
    """64-bit key for one (experiment, replicate) pair of a master seed."""
    return derive_key(seed, experiment, replicate)
