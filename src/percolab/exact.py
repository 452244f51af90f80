"""Brute-force ground truth on small balls.

Everything here enumerates the full configuration space {0,1}^E, so it is
limited to small balls by explicit caps.  It supplies exact cluster-volume
tails, magnetizations, conditional measures given the avoidance event
(origin cluster touches no green vertex), step-conditional open
probabilities along an exploration, conditional pivotal probabilities, the
Harris-FKG comparison step, and Strassen-style certification of stochastic
domination via a max-flow feasibility problem on the Boolean lattice.

Configurations are encoded as integers: bit e of the index is the state of
edge e.  The ghost field is integrated out analytically wherever an event
depends on it only through which vertex sets contain a green vertex; for
disjoint vertex sets the green indicators are independent, so joint
probabilities factor into products of 1 - e^{-h |set|} terms.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .exploration import ExplorationTrace, _revealed_cluster
from .lattices import GraphBall

MEASURE_CAP = 20    # 2^E weight vectors
FLOW_CAP = 12       # ordered-pair flow networks
TRACE_CAP = 10      # trace-indexed enumerations
FLOW_TOL = 1e-9     # feasibility tolerance on max-flow values
FLOW_EPS = 1e-15    # residual capacity below which Dinic treats an edge as full
CERT_TOL = 1e-8     # marginal tolerance when re-checking a coupling


@dataclass(frozen=True)
class ExplicitMeasure:
    """Probability weights over {0,1}^E, indexed by configuration integer."""

    weights: np.ndarray
    n_edges: int

    def __post_init__(self):
        w = self.weights
        if len(w) != 1 << self.n_edges:
            raise ValueError("weight vector length must be 2^n_edges")
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True)
class DominationCertificate:
    """Outcome of a Strassen domination check, re-verifiable independently.

    On success, ``coupling`` maps ordered pairs (x, y) with x <= y
    coordinatewise to joint weights whose marginals are the two inputs.  On
    failure, ``event_mask`` is an increasing event A with mu[A] - nu[A] >=
    ``gap`` > 0.
    """

    dominates: bool
    flow: float
    n_edges: int
    coupling: dict = None
    event_mask: np.ndarray = None
    gap: float = None


def _check_measure_cap(n_edges, cap, what):
    if n_edges > cap:
        raise CapExceeded(f"{what} limited to {cap} edges, got {n_edges}")


def _cluster_labels(ball: GraphBall) -> np.ndarray:
    """Cluster labels of every vertex in every configuration.

    Row c, column v holds the smallest vertex index joined to v by edges open
    in configuration c.  Rows below 2^(e+1) are rows below 2^e with edge e
    opened, so adding one edge at a time, merging the two labels it joins
    into their minimum, fills the whole (2^E, V) array.
    """
    _check_measure_cap(ball.n_edges, MEASURE_CAP, "cluster tables")
    nv = ball.n_vertices
    labels = np.empty((1 << ball.n_edges, nv), dtype=np.min_scalar_type(nv))
    labels[0] = np.arange(nv)
    for e, (i, j) in enumerate(ball.edges):
        below = labels[:1 << e]
        keep = np.minimum(below[:, i], below[:, j])[:, None]
        drop = np.maximum(below[:, i], below[:, j])[:, None]
        labels[1 << e:2 << e] = np.where(below == drop, keep, below)
    return labels


@functools.lru_cache(maxsize=8)
def _ball_tables(ball: GraphBall) -> tuple:
    """(labels, members, sizes): ``_cluster_labels``, bool (2^E, V) origin
    membership and int32 (2^E,) origin-cluster sizes.  They depend only on
    the ball, so like the exploration tree they are built once per ball and
    shared read-only by every (p, h)."""
    labels = _cluster_labels(ball)
    members = labels == labels[:, [ball.origin]]
    sizes = members.sum(axis=1, dtype=np.int32)
    for table in (labels, members, sizes):
        table.flags.writeable = False
    return labels, members, sizes


@functools.lru_cache(maxsize=1)
def _vertex_cluster_sizes(ball: GraphBall) -> np.ndarray:
    """Int64 (2^E, V) |cluster(v)| for every configuration and vertex.  Only
    ``magnetization_bound`` reads it, so it is built on its first call and
    cached read-only like ``_ball_tables``.  One entry is enough, because a
    grid runs ball by ball; keeping eight balls alive raised exact-certify's
    peak RSS by about 2 MB."""
    labels = _ball_tables(ball)[0]
    # count the labels of each row
    flat = labels + labels.shape[1] * np.arange(len(labels), dtype=np.int64)[:, None]
    sizes = np.bincount(flat.ravel(), minlength=labels.size)[flat]
    sizes.flags.writeable = False
    return sizes


def cluster_size_table(ball: GraphBall) -> np.ndarray:
    """|origin cluster| for every configuration integer (read-only)."""
    return _ball_tables(ball)[2]


def cluster_members_table(ball: GraphBall) -> np.ndarray:
    """Origin-cluster membership, bool (2^E, V), for every configuration
    (read-only)."""
    return _ball_tables(ball)[1]


def product_measure(ball: GraphBall, p: float) -> ExplicitMeasure:
    """Independent Bernoulli(p) per edge: w(c) = p^{#open} (1-p)^{#closed}."""
    _check_measure_cap(ball.n_edges, MEASURE_CAP, "explicit measures")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    E = ball.n_edges
    pops = _edge_bits(E).sum(axis=0)
    w = np.power(p, pops) * np.power(1.0 - p, E - pops)
    return ExplicitMeasure(w, E)


def _edge_bits(n_edges):
    """Bool (E, 2^E) table: row e marks the configurations with edge e open."""
    idx = np.arange(1 << n_edges, dtype=np.int64)
    bits = np.empty((n_edges, 1 << n_edges), dtype=bool)
    for e in range(n_edges):
        bits[e] = (idx >> e) & 1
    return bits


def _flips(n_edges):
    """Int (E, 2^E) table: row e maps each configuration to the one with edge
    e flipped; with ``_edge_bits``, the one way to step between neighbours."""
    idx = np.arange(1 << n_edges, dtype=np.int64)
    return idx ^ (np.int64(1) << np.arange(n_edges, dtype=np.int64))[:, None]


def _check_field(h):
    if not h >= 0.0:
        raise ValueError("h must be nonnegative")


def _avoidance_weights(ball: GraphBall, p: float, h: float) -> tuple:
    """(prod, avoid): the product weights at p, and prod * e^{-h |C_o|}, the
    unnormalized law of the edges on the avoidance event."""
    _check_field(h)
    prod = product_measure(ball, p).weights
    return prod, prod * np.exp(-h * cluster_size_table(ball))


def conditional_measure(ball: GraphBall, p: float, h: float) -> ExplicitMeasure:
    """Edge-marginal law conditioned on the avoidance event.

    Weights are proportional to the product weight times e^{-h |C_o|}; the
    normalizer equals one minus the magnetization of this ball.
    """
    _, w = _avoidance_weights(ball, p, h)
    z = float(w.sum())
    if z <= 0.0:
        raise ValueError("avoidance event has zero probability")
    return ExplicitMeasure(w / z, ball.n_edges)


def exact_magnetization(ball: GraphBall, p: float, h: float) -> float:
    """Probability that the origin cluster contains a green vertex."""
    _check_field(h)
    prod = product_measure(ball, p)
    sizes = cluster_size_table(ball)
    return float(prod.weights @ -np.expm1(-h * sizes))


def magnetization_bound(ball: GraphBall, p: float, h: float) -> float:
    """Finite-ball magnetization bound: max over vertices v of P(cluster(v) meets green).

    On a transitive infinite graph all vertices give the same value; on a
    finite ball the maximum upper-bounds the probability that any fixed
    vertex reaches a green vertex, revealed edges removed or not.
    """
    _check_field(h)
    prod = product_measure(ball, p)
    per_vertex = prod.weights @ -np.expm1(-h * _vertex_cluster_sizes(ball))
    return float(per_vertex.max())


def psi_table(ball: GraphBall, p: float) -> list:
    """Exact (n, psi_n) rows for n = 0 .. |V|: psi_n is the probability that
    the origin cluster has at least n vertices."""
    prod = product_measure(ball, p)
    sizes = cluster_size_table(ball)
    return [(n, float(prod.weights[sizes >= n].sum()))
            for n in range(ball.n_vertices + 1)]


@functools.lru_cache(maxsize=8)
def _exploration_tree(ball: GraphBall, rule) -> tuple:
    """Every trace prefix of length 0 .. |E|-1 as (trace, next edge, cylinder
    mask), depth first with the closed branch before the open one.

    The tree depends only on the ball and the rule, so it is built once and
    shared by every weight vector; its masks are read-only.
    """
    _check_measure_cap(ball.n_edges, TRACE_CAP, "trace-indexed quantities")
    bits = _edge_bits(ball.n_edges)
    nodes = []

    def rec(trace, mask):
        e = rule.next_edge(ball, trace)
        if e is None:
            return
        mask.flags.writeable = False
        nodes.append((trace, e, mask))
        rec(trace.extend(e, 0), mask & ~bits[e])
        rec(trace.extend(e, 1), mask & bits[e])

    rec(ExplorationTrace(), np.ones(1 << ball.n_edges, dtype=bool))
    return tuple(nodes)


def reachable_traces(ball: GraphBall, rule, weights: np.ndarray) -> list:
    """(trace, next_edge, cylinder_mask) for every positive-probability trace
    prefix of length 0 .. |E|-1 under the nonnegative weight vector, in the
    exploration tree's order."""
    return [node for node in _exploration_tree(ball, rule)
            if float(weights[node[2]].sum()) > 0.0]


def make_conditional_oracle(ball: GraphBall, rule, p: float, h: float):
    """Trace -> P(next revealed edge is open) under the avoidance-conditioned
    law, given that the exploration so far matches the trace.

    Defined on the positive-probability prefixes of the exploration; any
    other trace raises ValueError.
    """
    weights = conditional_measure(ball, p, h).weights
    bits = _edge_bits(ball.n_edges)
    probs = {(trace.order, trace.values):
             float(weights[mask & bits[e]].sum()) / float(weights[mask].sum())
             for trace, e, mask in reachable_traces(ball, rule, weights)}

    def oracle(trace):
        got = probs.get((trace.order, trace.values))
        if got is not None:
            return got
        if trace.k >= ball.n_edges:
            raise ValueError("trace is already exhausted")
        raise ValueError("trace leaves the rule or has zero probability "
                         "under the conditional law")

    return oracle


def max_conditional_pivotal(ball: GraphBall, rule, p: float, h: float) -> float:
    """Largest conditional pivotal probability over reachable trace prefixes.

    For each reachable prefix with positive avoidance probability, computes
    P(next edge pivotal for avoidance | avoidance and the prefix) exactly,
    ghost integrated analytically, and returns the maximum.
    """
    E = ball.n_edges
    _, avoid_w = _avoidance_weights(ball, p, h)
    sizes = cluster_size_table(ball)
    # the tree enforces the trace cap before the (E, 2^E) tables below
    prefixes = reachable_traces(ball, rule, avoid_w)

    # Pivotal-and-avoid weight of c with next edge e: zero when e is open in
    # c, else mu(c) e^{-h |C|} (1 - e^{-h d}) when opening e adds d vertices.
    piv_w = [np.where(bit, 0.0, avoid_w * -np.expm1(-h * (sizes[flip] - sizes)))
             for bit, flip in zip(_edge_bits(E), _flips(E))]

    best = 0.0
    for trace, e, mask in prefixes:
        num = float(piv_w[e][mask].sum())
        best = max(best, num / float(avoid_w[mask].sum()))
    return best


def fkg_sweep(ball: GraphBall, rule, p: float, h: float) -> list:
    """Exact two-sided Harris-FKG comparison at every reachable prefix whose
    next edge joins a vertex of the revealed origin cluster to an outside
    vertex w.

    B is the event that w reaches a green vertex through open edges other
    than the revealed ones and the next edge itself.  Each row holds the
    prefix, the edge, lhs = P(B | avoidance, prefix) and rhs = P(B | prefix);
    positive association of the product law forces lhs <= rhs.
    """
    prod, avoid = _avoidance_weights(ball, p, h)
    labels, members, _ = _ball_tables(ball)
    rows = []
    for trace, e, mask in reachable_traces(ball, rule, avoid):
        i, j = ball.edges[e]
        cluster = _revealed_cluster(ball, trace)
        if (i in cluster) == (j in cluster):
            continue
        w = j if i in cluster else i
        excluded = sum(1 << k for k in trace.order) | (1 << e)
        configs = np.nonzero(mask)[0]
        # Closing the excluded edges leaves w's cluster as the reachable set.
        sub = labels[configs & ~excluded]
        reach = sub == sub[:, [w]]
        hit_all = -np.expm1(-h * reach.sum(axis=1))
        hit_outside = -np.expm1(-h * (reach & ~members[configs]).sum(axis=1))
        lhs = float(avoid[configs] @ hit_outside) / float(avoid[configs].sum())
        rhs = float(prod[configs] @ hit_all) / float(prod[configs].sum())
        rows.append({"order": trace.order, "values": trace.values,
                     "edge": e, "lhs": lhs, "rhs": rhs})
    return rows


# ---------------------------------------------------------------------------
# Strassen domination via max-flow on the Boolean lattice.
#
# mu is dominated by nu iff a coupling supported on coordinatewise-ordered
# pairs exists, iff the flow network source -> x (cap mu(x)) -> y for x <= y
# (unbounded) -> sink (cap nu(y)) carries one unit.  A min cut yields an
# increasing event violating domination when the flow falls short.
# ---------------------------------------------------------------------------

class _Dinic:
    def __init__(self, n):
        self.n = n
        self.to = []
        self.cap = []
        self.head = [[] for _ in range(n)]

    def add_edge(self, u, v, c):
        """Add u -> v with capacity c; returns its id (the reverse is id ^ 1)."""
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return eid

    def max_flow(self, s, t):
        """(max flow, BFS levels); vertices with a level >= 0 are those the
        source reaches in the final residual graph, the source side of a
        minimum cut."""
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:  # appended to while it is walked, so a FIFO queue
                for eid in self.head[u]:
                    v = self.to[eid]
                    if self.cap[eid] > FLOW_EPS and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow, level
            it = [0] * self.n

            def dfs(u, limit):
                if u == t:
                    return limit
                while it[u] < len(self.head[u]):
                    eid = self.head[u][it[u]]
                    v = self.to[eid]
                    if self.cap[eid] > FLOW_EPS and level[v] == level[u] + 1:
                        pushed = dfs(v, min(limit, self.cap[eid]))
                        if pushed > FLOW_EPS:
                            self.cap[eid] -= pushed
                            self.cap[eid ^ 1] += pushed
                            return pushed
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, float("inf"))
                if pushed <= FLOW_EPS:
                    break
                flow += pushed


def strassen_dominates(mu: ExplicitMeasure, nu: ExplicitMeasure) -> DominationCertificate:
    """Certify mu <= nu in the stochastic order, or exhibit a violating event."""
    if mu.n_edges != nu.n_edges:
        raise ValueError("measures live on different edge sets")
    E = mu.n_edges
    _check_measure_cap(E, FLOW_CAP, "flow certification")
    xs = [int(c) for c in np.nonzero(mu.weights > 0)[0]]
    ys = [int(c) for c in np.nonzero(nu.weights > 0)[0]]
    x_id = {c: 1 + i for i, c in enumerate(xs)}
    y_id = {c: 1 + len(xs) + i for i, c in enumerate(ys)}
    src, sink = 0, 1 + len(xs) + len(ys)
    net = _Dinic(sink + 1)
    for c in xs:
        net.add_edge(src, x_id[c], float(mu.weights[c]))
    for c in ys:
        net.add_edge(y_id[c], sink, float(nu.weights[c]))
    configs = np.arange(1 << E)
    nu_pos = nu.weights > 0
    # per x: every y >= x with nu(y) > 0 and its edge id; adding the largest y
    # first fixes which of the maximum flows, and so which coupling, is found
    pairs = []
    for x in xs:
        above = configs[((configs & x) == x) & nu_pos][::-1]
        pairs.append((x, above, [net.add_edge(x_id[x], y_id[y], 2.0)
                                 for y in above.tolist()]))
    flow, level = net.max_flow(src, sink)
    if flow >= 1.0 - FLOW_TOL:
        # pair edges had capacity 2; the shipped amount is 2 - residual
        coupling = {(x, y): 2.0 - net.cap[eid] for x, above, eids in pairs
                    for y, eid in zip(above.tolist(), eids) if 2.0 - net.cap[eid] > 1e-12}
        return DominationCertificate(True, flow, E, coupling=coupling)
    seeds = np.zeros(1 << E, dtype=bool)
    seeds[[c for c in xs if level[x_id[c]] >= 0]] = True
    event = _up_closure(seeds, E)
    gap = float(mu.weights[event].sum() - nu.weights[event].sum())
    return DominationCertificate(False, flow, E, event_mask=event, gap=gap)


def _up_closure(indicator: np.ndarray, n_edges: int) -> np.ndarray:
    """Smallest increasing event containing the marked configurations."""
    event = indicator.copy()
    for bit, flip in zip(_edge_bits(n_edges), _flips(n_edges)):
        event |= bit & event[flip]
    return event


def verify_certificate(cert: DominationCertificate, mu: ExplicitMeasure,
                       nu: ExplicitMeasure) -> bool:
    """Re-check a certificate from scratch, without trusting the flow solver."""
    if cert.dominates:
        row = np.zeros(1 << cert.n_edges)
        col = np.zeros(1 << cert.n_edges)
        for (x, y), wgt in cert.coupling.items():
            if wgt < -1e-12 or (x & ~y) != 0:
                return False
            row[x] += wgt
            col[y] += wgt
        return bool(np.abs(row - mu.weights).max() <= CERT_TOL
                    and np.abs(col - nu.weights).max() <= CERT_TOL)
    event = cert.event_mask
    if not np.array_equal(_up_closure(event, cert.n_edges), event):
        return False  # not an increasing event
    gap = float(mu.weights[event].sum() - nu.weights[event].sum())
    return bool(gap >= cert.gap - 1e-12 and gap > 0.0)


def certificate_to_json(cert: DominationCertificate) -> dict:
    out = {"dominates": bool(cert.dominates), "flow": float(cert.flow),
           "n_edges": int(cert.n_edges)}
    if cert.dominates:
        out["coupling"] = [[int(x), int(y), float(w)]
                           for (x, y), w in sorted(cert.coupling.items())]
    else:
        out["gap"] = float(cert.gap)
        out["event_size"] = int(cert.event_mask.sum())
        out["event_min_elements"] = _minimal_elements(cert.event_mask, cert.n_edges)
    return out


def _minimal_elements(mask, n_edges):
    """The event's configurations with no neighbour below them in it, ascending."""
    minimal = mask.copy()
    for bit, flip in zip(_edge_bits(n_edges), _flips(n_edges)):
        minimal &= ~(bit & mask[flip])
    return np.nonzero(minimal)[0].tolist()
