"""Percolation configurations and cluster growth.

An edge configuration is indexed like ``ball.edges`` (1 = open, 0 = closed).
``_open_reach`` is the one open-edge search on a finite graph, while
``lazy_cluster`` grows the origin's cluster directly on the infinite
lattice, revealing each incident edge exactly once with a fresh
Bernoulli(p) value, so the law of min(|cluster|, cap) matches the true
percolation law without building a large ball.  ``grow_sizes`` grows many
replicates' capped sizes at once, layer by layer in numpy, from the same
keyed uniforms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .lattices import REGULAR_TREE, LatticeSpec, incident_edges, key_to_coords, vertex_key
from .streams import derive_key, derive_keys, keyed_uniform, keyed_uniforms

# Stream label of lazy growth: (seed, label, ...) paths keep experiments
# independent.
EXP_GROW = 3

MAX_CLUSTER_CAP = 1_000_000

# ``grow_sizes`` grows max(1, _BATCH_MEMBERS // cap) replicates at a time,
# so a chunk holds fewer than about _BATCH_MEMBERS cluster members.
_BATCH_MEMBERS = 2 ** 15


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
# One scalar loop works on integer vertex keys (see lattices) and draws one
# keyed uniform per edge leaving the cluster: lazy_cluster reads its
# members, and the tests pin the batched kernel below against it.
# ---------------------------------------------------------------------------

def check_cap(spec: LatticeSpec, cap: int):
    """Reject a growth cap below 1, above the memory budget, or past the key
    encoding range.

    Off a tree, ``grow_sizes`` packs a chunk's (replicate, vertex key) pairs
    in 63 bits.  A vertex of a cluster of at most ``cap`` vertices lies
    within cap - 1 steps of the origin, so its key is at most (cap - 1)
    times the sum of the offsets in size: z3 fits up to cap 262,144, and
    hypercubic d >= 4, whose edge keys would alias mod 2^64, never fits.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if cap > MAX_CLUSTER_CAP:
        raise CapExceeded(f"cap {cap} exceeds the memory budget {MAX_CLUSTER_CAP}")
    if (spec.family != REGULAR_TREE
            and _chunk(cap) * (2 * cap - 1) * sum(spec._layout[1]) >= 2 ** 63):
        raise CapExceeded(f"cap {cap} on this lattice exceeds the key encoding range")


def _grow(spec, p, cap, rkey):
    """Member keys of the origin's cluster, grown depth-first until it is
    maximal or has ``cap`` vertices, and whether it reached ``cap``.

    An edge into the cluster is never drawn: its uniform is a pure function
    of the edge, so skipping it changes nothing but the work.
    """
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
    check_cap(spec, cap)
    keys, truncated = _grow(spec, p, cap, derive_key(rng_seed, EXP_GROW))
    members = frozenset(key_to_coords(spec, k) for k in keys)
    return ClusterResult(members, len(members), truncated=truncated)


# ---------------------------------------------------------------------------
# Batched growth.
#
# (size, truncated) depends only on which edges are open, not on the order
# in which they are revealed, so a chunk of replicates can grow breadth-first
# together: one round per BFS layer, each round one set of array operations.
# Keys wrap in 64 bits exactly as keyed_uniform reduces them, so the sizes
# equal grow_cluster_size's.
# ---------------------------------------------------------------------------

def _chunk(cap):
    return max(1, _BATCH_MEMBERS // cap)


def grow_sizes(spec: LatticeSpec, p: float, cap: int, key: int, lo: int, hi: int):
    """``grow_cluster_size`` of replicates ``lo`` to ``hi - 1`` as (sizes,
    truncated) arrays, where replicate i is keyed ``derive_key(seed, *path,
    i)`` and ``key = derive_key(seed, *path)``; ``check_cap(spec, cap)``
    must pass."""
    grow = _tree_layers if spec.family == REGULAR_TREE else _lattice_layers
    sizes = np.empty(hi - lo, dtype=np.int64)
    step = _chunk(cap)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        rkeys = derive_keys(key, np.arange(a, b, dtype=np.uint64))
        sizes[a - lo:b - lo] = grow(spec, p, cap, rkeys)
    return np.minimum(sizes, cap), sizes >= cap


def _lattice_layers(spec, p, cap, rkeys):
    """Cluster sizes of the replicates keyed ``rkeys``, counted until each
    is maximal or has reached ``cap``.

    A layer is a sorted array of packed keys replicate * stride + span +
    vertex key.  Through an open edge a layer-L vertex reaches layers L - 1,
    L or L + 1 only, so a neighbour in neither of the first two is new.
    """
    offsets = spec._layout[1]
    ndir = len(offsets)
    moves = [(d, s * off) for d, off in enumerate(offsets) for s in (1, -1)]
    steps = np.array([[step] for _, step in moves], dtype=np.int64)
    # the edge from v to v + step is keyed (lower endpoint) * ndir + d
    edge_steps = np.array([[min(step, 0) * ndir + d] for d, step in moves], dtype=np.int64)
    span = (cap - 1) * sum(offsets)
    stride = 2 * span + 1
    n = len(rkeys)
    sizes = np.ones(n, dtype=np.int64)
    layer = np.arange(n if cap > 1 else 0, dtype=np.int64) * stride + span
    prev = layer  # layer -1 is empty; layer 0 stands in, as _in_sorted needs a table
    while layer.size:
        rep, v = np.divmod(layer, stride)
        ekeys = (v - span) * ndir + edge_steps
        is_open = keyed_uniforms(rkeys[rep], ekeys.view(np.uint64)) < p
        # one sorted run per step, which the stable sort merges
        reached = (layer + steps)[is_open]
        reached = reached[~(_in_sorted(reached, prev) | _in_sorted(reached, layer))]
        reached.sort(kind="stable")
        first = np.ones(len(reached), dtype=bool)
        first[1:] = reached[1:] != reached[:-1]
        reached = reached[first]
        rep = reached // stride
        sizes += np.bincount(rep, minlength=n)
        prev, layer = layer, reached[sizes[rep] < cap]
    return sizes


def _tree_layers(spec, p, cap, rkeys):
    """``_lattice_layers`` on a regular tree, where each vertex but the root
    is reached once, through its parent: no neighbour needs a check."""
    r = spec.tree_degree
    base = np.uint64(r + 1)
    # the root's children are keyed base + 1 .. base + r; any other vertex
    # v has one edge to its parent and r - 1 children, v * base + 1 onwards
    kids = np.arange(1, r + 1, dtype=np.uint64)
    n = len(rkeys)
    sizes = np.ones(n, dtype=np.int64)
    rep = np.arange(n if cap > 1 else 0)
    v = np.ones(len(rep), dtype=np.uint64)
    while rep.size:
        child = v[:, None] * base + kids
        is_open = keyed_uniforms(rkeys[rep][:, None], child) < p
        rep = np.broadcast_to(rep[:, None], child.shape)[is_open]
        v = child[is_open]
        kids = kids[:r - 1]
        sizes += np.bincount(rep, minlength=n)
        keep = sizes[rep] < cap
        rep, v = rep[keep], v[keep]
    return sizes


def _in_sorted(x, table):
    """Whether each entry of ``x`` occurs in the nonempty sorted ``table``."""
    return np.take(table, np.searchsorted(table, x), mode="clip") == x


def replicate_key(seed: int, experiment: int, replicate: int) -> int:
    """64-bit key for one (experiment, replicate) pair of a master seed."""
    return derive_key(seed, experiment, replicate)
