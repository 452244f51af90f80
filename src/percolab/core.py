"""Percolation configurations and cluster growth.

An edge configuration is indexed like ``ball.edges`` (1 = open, 0 = closed).
``_open_reach`` is the one open-edge search on a finite graph.  One layered
kernel grows the origin's cluster directly on the infinite lattice,
breadth-first in numpy, revealing each edge leaving the cluster once with
a keyed Bernoulli(p) value, so the law of min(|cluster|, cap) matches the
true percolation law without building a large ball: ``grow_sizes`` runs it
on many replicates' sizes at once, ``lazy_cluster`` on one replicate's
members.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .lattices import REGULAR_TREE, LatticeSpec, incident_edges, key_to_coords
from .streams import derive_key, derive_keys, keyed_uniforms

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
# (size, truncated) depends only on which edges are open, not on the order
# in which they are revealed, so one kernel grows a chunk of replicates
# breadth-first together: one round per BFS layer, each round one set of
# array operations.  Keys wrap in 64 bits exactly as keyed_uniform reduces
# them.  Given a members list, the kernel also records one replicate's
# vertices, layer by layer; without one it does no per-round work for it.
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


def _chunk(cap):
    return max(1, _BATCH_MEMBERS // cap)


def _kernel(spec):
    return _tree_layers if spec.family == REGULAR_TREE else _lattice_layers


def grow_sizes(spec: LatticeSpec, p: float, cap: int, key: int, lo: int, hi: int):
    """(size, truncated) of replicates ``lo`` to ``hi - 1`` as two arrays,
    where replicate i is keyed ``derive_key(seed, *path, i)`` and ``key =
    derive_key(seed, *path)``; ``check_cap(spec, cap)`` must pass."""
    grow = _kernel(spec)
    sizes = np.empty(hi - lo, dtype=np.int64)
    step = _chunk(cap)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        rkeys = derive_keys(key, np.arange(a, b, dtype=np.uint64))
        sizes[a - lo:b - lo] = grow(spec, p, cap, rkeys)
    return np.minimum(sizes, cap), sizes >= cap


def grow_cluster_size(spec: LatticeSpec, p: float, cap: int, rkey: int):
    """Grow the origin's cluster of the replicate keyed ``rkey``; return
    (size, truncated).

    Stops at a maximal cluster or at ``cap`` vertices; ``truncated`` means it
    hit ``cap``.  ``check_cap(spec, cap)`` must pass.
    """
    return _grow_one(spec, p, cap, rkey, None)


def lazy_cluster(spec: LatticeSpec, p: float, cap: int, rng_seed: int) -> ClusterResult:
    """Origin cluster on the infinite lattice with full membership detail.

    Members are reported as coordinate tuples.  Equivalent in law to sampling
    a huge ball and reading off the origin's cluster; the per-edge uniforms
    are keyed by (seed, edge), so runs at p <= p' with the same seed grow
    nested clusters.  A truncated cluster keeps every complete BFS layer,
    then the first vertices of the last one up to ``cap`` in all: smallest
    vertex key first on a lattice, by parent and then child digit on a tree.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    check_cap(spec, cap)
    members = [spec.origin]
    size, truncated = _grow_one(spec, p, cap, derive_key(rng_seed, EXP_GROW), members)
    return ClusterResult(frozenset(members), size, truncated)


def _grow_one(spec, p, cap, rkey, members):
    size = int(_kernel(spec)(spec, p, cap, np.array([rkey], dtype=np.uint64), members)[0])
    return min(size, cap), size >= cap


def _lattice_layers(spec, p, cap, rkeys, members=None):
    """Cluster sizes of the replicates keyed ``rkeys``, counted until each
    is maximal or has reached ``cap``.

    A layer is a sorted array of packed keys replicate * stride + span +
    vertex key.  Through an open edge a layer-L vertex reaches layers L - 1,
    L or L + 1 only, so a neighbour in neither of the first two is new.
    For one replicate, ``members`` (a list holding the origin) gains each
    layer's coordinates, smallest key first, up to ``cap`` entries.
    """
    ndir = len(spec._layout[1])
    # vertex v's edges and neighbours are the origin's shifted by v * ndir and v
    edge_steps, steps = np.array(incident_edges(spec, 0), dtype=np.int64).T[:, :, None]
    span = (cap - 1) * sum(spec._layout[1])
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
        if members is not None:
            members += [key_to_coords(spec, k - span)
                        for k in reached[:cap - len(members)].tolist()]
        prev, layer = layer, reached[sizes[rep] < cap]
    return sizes


def _tree_layers(spec, p, cap, rkeys, members=None):
    """``_lattice_layers`` on a regular tree, where each vertex but the root
    is reached once, through its parent: no neighbour needs a check.  A
    member's coordinates extend its parent's by the child digit, as keys
    wrap past 2^64; within a layer, members go by parent, then digit."""
    r = spec.tree_degree
    base = np.uint64(r + 1)
    # the root's children are keyed base + 1 .. base + r; any other vertex
    # v has one edge to its parent and r - 1 children, v * base + 1 onwards
    kids = np.arange(1, r + 1, dtype=np.uint64)
    n = len(rkeys)
    sizes = np.ones(n, dtype=np.int64)
    rep = np.arange(n if cap > 1 else 0)
    v = np.ones(len(rep), dtype=np.uint64)
    coords = [()]  # the root's, then each layer's while members are recorded
    while rep.size:
        child = v[:, None] * base + kids
        is_open = keyed_uniforms(rkeys[rep][:, None], child) < p
        if members is not None:
            coords = [coords[i] + (d,) for i, d in np.argwhere(is_open).tolist()]
            members += coords[:cap - len(members)]
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
