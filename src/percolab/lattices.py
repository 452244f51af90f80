"""Transitive lattice families and finite balls around a root vertex.

Three families are supported: the hypercubic lattice in d dimensions, the
triangular lattice (axial coordinates with six generator offsets), and the
regular tree.  All are connected, locally finite and vertex-transitive.

A ``GraphBall`` is the induced subgraph on all vertices within a given graph
distance of the origin.  Vertices are indexed by (distance, coordinates)
lexicographically and edges by their sorted endpoint index pair, so the
indexing is deterministic and a ball of radius n is a prefix of the ball of
radius n+1 under the same convention.  Edges with one endpoint outside the
ball are excluded, so boundary vertices have reduced degree.
"""

import functools
from collections import deque
from dataclasses import dataclass

from .errors import CapExceeded

HYPERCUBIC = "hypercubic"
TRIANGULAR = "triangular"
REGULAR_TREE = "regular_tree"

# Coordinate stride used by the integer key encodings below.  Coordinates
# must stay below _KEY_M/2 in absolute value, which bounds cluster caps.
_KEY_M = 1 << 22
_KEY_HALF = _KEY_M >> 1

MAX_BALL_VERTICES = 2_000_000


@dataclass(frozen=True)
class LatticeSpec:
    """Which transitive lattice to work on.

    family: one of "hypercubic", "triangular", "regular_tree".
    dimension: number of axes, hypercubic only (>= 1).
    tree_degree: vertex degree, regular tree only (>= 2).
    """

    family: str
    dimension: int = 0
    tree_degree: int = 0

    def __post_init__(self):
        if self.family not in (HYPERCUBIC, TRIANGULAR, REGULAR_TREE):
            raise ValueError(f"unknown lattice family: {self.family!r}")
        if self.family == HYPERCUBIC and self.dimension < 1:
            raise ValueError("hypercubic lattice needs dimension >= 1")
        if self.family == REGULAR_TREE and self.tree_degree < 2:
            raise ValueError("regular tree needs degree >= 2")

    @classmethod
    def hypercubic(cls, d: int) -> "LatticeSpec":
        return cls(HYPERCUBIC, dimension=d)

    @classmethod
    def triangular(cls) -> "LatticeSpec":
        return cls(TRIANGULAR)

    @classmethod
    def regular_tree(cls, degree: int) -> "LatticeSpec":
        return cls(REGULAR_TREE, tree_degree=degree)

    @property
    def degree(self) -> int:
        """Common vertex degree of the lattice."""
        return len(incident_edges(self)(vertex_key(self, self.origin)))

    @functools.cached_property
    def origin(self) -> tuple:
        return () if self.family == REGULAR_TREE else (0,) * len(self._layout[0])

    @functools.cached_property
    def _layout(self):
        """(places, offsets): the one statement of a non-tree key encoding.

        Coordinate i is signed base-_KEY_M digit ``places[i]`` of the vertex
        key; ``offsets`` are the key steps of the positive directions, in
        reveal order.  Cached on the spec, as ``vertex_key`` and
        ``key_to_coords`` read it per vertex.
        """
        if self.family == HYPERCUBIC:
            places = tuple(range(self.dimension))
            return places, tuple(_KEY_M ** i for i in places)
        # triangular: key a*_KEY_M + b; steps to (a, b+1), (a+1, b), (a+1, b-1)
        return (1, 0), (1, _KEY_M, _KEY_M - 1)


def lazy_neighbors(spec: LatticeSpec, v: tuple) -> list:
    """All lattice neighbors of the vertex with coordinates ``v``, in the
    reveal order of ``incident_edges``.

    Pure and symmetric: w in lazy_neighbors(v) iff v in lazy_neighbors(w).
    The result has exactly ``spec.degree`` entries.  Raises ValueError when
    ``v`` names no vertex, or one whose neighbours leave the key range.
    """
    if spec.family == REGULAR_TREE:
        # digit i picks a child: the root has r children, other vertices r - 1
        r = spec.tree_degree
        ok = all(0 <= c < (r if i == 0 else r - 1) for i, c in enumerate(v))
    else:
        ok = len(v) == len(spec.origin) and all(abs(c) <= _KEY_HALF - 2 for c in v)
    if not ok:
        raise ValueError(f"{tuple(v)} is no {spec.family} vertex in the key range")
    return [key_to_coords(spec, w) for _, w in incident_edges(spec)(vertex_key(spec, v))]


class GraphBall:
    """Finite ball of a lattice: all vertices within ``radius`` of the origin.

    Attributes:
        spec: the lattice family.
        radius: ball radius in graph distance.
        vertices: coordinate tuples, sorted by (distance, coordinates).
        edges: (i, j) vertex-index pairs with i < j, sorted; both endpoints
            always lie in the ball.
        origin: index of the root vertex (always 0).
        distance: graph distance to the origin, per vertex.
        incidence: per vertex, list of (edge index, other endpoint index).
    """

    def __init__(self, spec, radius, vertices, edges, distance):
        self.spec = spec
        self.radius = radius
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.distance = list(distance)
        self.origin = 0
        incidence = [[] for _ in self.vertices]
        for e, (i, j) in enumerate(self.edges):
            incidence[i].append((e, j))
            incidence[j].append((e, i))
        self.incidence = incidence

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return (f"GraphBall({self.spec.family}, radius={self.radius}, "
                f"|V|={self.n_vertices}, |E|={self.n_edges})")


def build_ball(spec: LatticeSpec, n: int) -> GraphBall:
    """Construct the radius-``n`` ball of the lattice around the origin.

    Raises CapExceeded when the ball would exceed ``MAX_BALL_VERTICES``
    vertices (which keeps edge indices 32-bit) or leave the key encoding
    range.
    """
    if n < 0:
        raise ValueError("radius must be nonnegative")
    if spec.family != REGULAR_TREE and n >= _KEY_HALF:
        raise CapExceeded("coordinate exceeds the key encoding range")
    incident = incident_edges(spec)
    dist = {vertex_key(spec, spec.origin): 0}
    frontier = deque(dist)
    while frontier:
        v = frontier.popleft()
        if dist[v] == n:
            continue
        for _, w in incident(v):
            if w not in dist:
                if len(dist) >= MAX_BALL_VERTICES:
                    raise CapExceeded(
                        f"ball of radius {n} exceeds {MAX_BALL_VERTICES} vertices")
                dist[w] = dist[v] + 1
                frontier.append(w)
    order = sorted((d, key_to_coords(spec, k), k) for k, d in dist.items())
    index = {k: i for i, (_, _, k) in enumerate(order)}
    edges = []
    for k, i in index.items():
        for _, w in incident(k):
            j = index.get(w)
            if j is not None and i < j:
                edges.append((i, j))
    edges.sort()
    if len(edges) > (1 << 31):
        raise CapExceeded("edge count overflows the 32-bit index width")
    return GraphBall(spec, n, [v for _, v, _ in order], edges, [d for d, _, _ in order])


def ball_to_json(ball: GraphBall) -> dict:
    """JSON-serializable description: coordinates and edge index pairs."""
    return {
        "family": ball.spec.family,
        "dimension": ball.spec.dimension,
        "tree_degree": ball.spec.tree_degree,
        "radius": ball.radius,
        "origin": ball.origin,
        "vertices": [list(v) for v in ball.vertices],
        "edges": [list(e) for e in ball.edges],
        "distance": list(ball.distance),
    }


# ---------------------------------------------------------------------------
# Integer key encodings shared by the lazy growth kernel and ball
# construction.  Vertex keys are injective for coordinates below _KEY_HALF;
# edge keys are (canonical endpoint key) * (#positive directions) + direction.
# ---------------------------------------------------------------------------

def incident_edges(spec: LatticeSpec):
    """Function mapping a vertex key to its [(edge key, neighbor key), ...].

    The list order is the reveal order of lazy growth: on hypercubic and
    triangular lattices, for each positive direction the forward edge and
    then the backward one; on trees the parent edge, then the children.
    """
    if spec.family == REGULAR_TREE:
        r = spec.tree_degree
        base = r + 1

        def incident(v):
            first = v * base + 1
            if v == 1:
                return [(c, c) for c in range(first, first + r)]
            out = [(v, v // base)]
            for c in range(first, first + r - 1):
                out.append((c, c))
            return out

        return incident
    offsets = spec._layout[1]
    ndir = len(offsets)
    directions = tuple(enumerate(offsets))

    def incident(v):
        out = []
        for d, off in directions:
            out.append((v * ndir + d, v + off))
            out.append(((v - off) * ndir + d, v - off))
        return out

    return incident


def vertex_key(spec: LatticeSpec, v: tuple) -> int:
    if spec.family == REGULAR_TREE:
        # positional digits base (degree + 1), root key 1
        base = spec.tree_degree + 1
        k = 1
        for c in v:
            k = k * base + c + 1
        return k
    k = 0
    for place, c in zip(spec._layout[0], v):
        if abs(c) >= _KEY_HALF:
            raise CapExceeded("coordinate exceeds the key encoding range")
        k += c * _KEY_M ** place
    return k


def key_to_coords(spec: LatticeSpec, key: int) -> tuple:
    digits = []
    if spec.family == REGULAR_TREE:
        base = spec.tree_degree + 1
        while key > 1:
            digits.append(key % base - 1)
            key //= base
        return tuple(reversed(digits))
    places = spec._layout[0]
    for _ in places:
        c = ((key + _KEY_HALF) % _KEY_M) - _KEY_HALF
        digits.append(c)
        key = (key - c) // _KEY_M
    return tuple(digits[i] for i in places)
