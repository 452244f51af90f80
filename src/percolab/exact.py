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

import bisect
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
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
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
    """Every trace prefix of length 0 .. |E|-1 as (trace, next edge, the
    ascending configurations that extend it), depth first, closed branch
    first.  A child's array is its parent's split on the edge's bit, which
    keeps it ascending, so sums over it run in configuration order.  Built
    once per (ball, rule) for every weight vector; read-only."""
    _check_measure_cap(ball.n_edges, TRACE_CAP, "trace-indexed quantities")
    nodes = []

    def rec(trace, configs):
        e = rule.next_edge(ball, trace)
        if e is None:
            return
        configs.flags.writeable = False
        nodes.append((trace, e, configs))
        is_open = (configs >> e) & 1 == 1
        rec(trace.extend(e, 0), configs[~is_open])
        rec(trace.extend(e, 1), configs[is_open])

    rec(ExplorationTrace(), np.arange(1 << ball.n_edges))
    return tuple(nodes)


def reachable_traces(ball: GraphBall, rule, weights: np.ndarray) -> list:
    """(trace, next_edge, configurations) for every positive-probability
    prefix of length 0 .. |E|-1 under the nonnegative weight vector, in the
    exploration tree's order; see ``_exploration_tree``."""
    return [node for node in _exploration_tree(ball, rule)
            if float(weights[node[2]].sum()) > 0.0]


def make_conditional_oracle(ball: GraphBall, rule, p: float, h: float):
    """Trace -> P(next revealed edge is open) under the avoidance-conditioned
    law, given that the exploration so far matches the trace.

    Defined on the positive-probability prefixes of the exploration; any
    other trace raises ValueError.
    """
    weights = conditional_measure(ball, p, h).weights
    probs = {(trace.order, trace.values):
             float(weights[c[(c >> e) & 1 == 1]].sum()) / float(weights[c].sum())
             for trace, e, c in reachable_traces(ball, rule, weights)}

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
    for trace, e, configs in prefixes:
        num = float(piv_w[e][configs].sum())
        best = max(best, num / float(avoid_w[configs].sum()))
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
    for trace, e, configs in reachable_traces(ball, rule, avoid):
        i, j = ball.edges[e]
        cluster = _revealed_cluster(ball, trace)
        if (i in cluster) == (j in cluster):
            continue
        w = j if i in cluster else i
        excluded = sum(1 << k for k in trace.order) | (1 << e)
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

class _StrassenFlow:
    """Dinic's max flow on the Strassen network of two weight vectors.

    The vertices are the source, an x for every configuration with
    mu(x) > 0, a y for every configuration with nu(y) > 0, and the sink.
    Each vertex tries its arcs in one fixed order: the source its arcs to
    the x's by ascending x; an x its pair arcs to every y >= x by descending
    y; a y its arc to the sink, then its reverse pair arcs to the x's by
    ascending x.  That order fixes which of the maximum flows, and so which
    coupling, is found.

    Pair arcs have capacity 2 but carry at most mu(x) <= 1, since the
    source arc is the only arc into x, so they never saturate.  They are
    not stored: only the pairs that have carried flow are, each as its
    [forward, reverse] residual capacities, and every other pair is
    (2.0, 0.0).  The two residuals are updated one push at a time, so the
    coupling read back as 2.0 - forward is bit for bit the one a network of
    explicit arcs would give.  The arcs back into the source and out of the
    sink lie on no simple path from the source to the sink, so the source and sink
    arcs keep only their forward residuals.
    """

    def __init__(self, mu_w, nu_w, n_edges):
        self.n_edges = n_edges
        self.ypos = nu_w > 0
        self.scap = mu_w.tolist()  # source -> x
        self.tcap = nu_w.tolist()  # y -> sink
        self.pairs = {}  # x << E | y -> [forward, reverse] residuals
        self.below = [[] for _ in range(1 << n_edges)]  # y -> paired x's, ascending

    def max_flow(self):
        """(max flow, bool mask of the x's the source reaches in the final
        residual graph: the source side of a minimum cut)."""
        flow = 0.0
        while True:
            sink_level, graph = self._level_graph()
            if not sink_level:
                return flow, graph
            flow = self._blocking_flow(sink_level, *graph, flow)
            del graph  # one phase's lists must not outlive it into the next BFS

    def _level_graph(self):
        """(0, the x's the source reaches) when no residual path reaches the
        sink.  Otherwise a residual BFS runs up to the sink's level, and a
        backward pass from the sink cuts the level graph down to the
        vertices that reach it: (sink level, (sources, ylive, down)), where
        ylive holds each y's level or -1, and sources (the source's x's) and
        down[y] (y's x's one level up through residual reverse arcs, for the
        y's below the sink) descend, so the walk takes them from the end."""
        E, pairs, below, tcap = self.n_edges, self.pairs, self.below, self.tcap
        levx = np.full(1 << E, -1, dtype=np.int32)
        levy = np.full(1 << E, -1, dtype=np.int32)
        front = np.array(self.scap) > FLOW_EPS
        level = 1
        while True:
            levx[front] = level
            reached = _closure(front, E) & self.ypos & (levy < 0)
            ys = np.flatnonzero(reached).tolist()
            if not ys:
                return 0, levx >= 0
            levy[reached] = level + 1
            if any(tcap[y] > FLOW_EPS for y in ys):
                break
            front = np.zeros(1 << E, dtype=bool)
            for y in ys:
                for x in below[y]:
                    if pairs[x << E | y][1] > FLOW_EPS and levx[x] < 0:
                        front[x] = True
            level += 2
        sink_level = level + 2
        live = (levy == level + 1) & (np.array(tcap) > FLOW_EPS)
        ylive = np.where(live, level + 1, -1).tolist()
        down = {}
        for level in range(level, 1, -2):
            xlive = ((levx == level) & _closure(live[::-1], E)[::-1]).tolist()
            live = np.zeros(1 << E, dtype=bool)
            for y in np.flatnonzero(levy == level - 1).tolist():
                xs = [x for x in reversed(below[y])
                      if xlive[x] and pairs[x << E | y][1] > FLOW_EPS]
                if xs:
                    down[y], ylive[y], live[y] = xs, level - 1, True
        sources = np.flatnonzero((levx == 1) & _closure(live[::-1], E)[::-1])
        return sink_level, (sources[::-1].tolist(), ylive, down)

    def _blocking_flow(self, sink_level, sources, ylive, down, flow):
        """Augment along shortest paths until none is left; returns the flow.

        Only arcs that are admissible (residual, one level up) and lead to a
        vertex that reaches the sink in the level graph are tried: within a
        phase arcs only close, so no other arc could carry flow.  A vertex
        that runs out of arcs is dead for the rest of the phase (ylive -1,
        or xnext -1), and the lists drop an x once it is dead or its arc is
        full.  After an augmentation the path is cut back to the tail of its
        first saturated arc, where a walk from the source would arrive again.
        """
        E, pairs, scap, tcap = self.n_edges, self.pairs, self.scap, self.tcap
        full = (1 << E) - 1
        # xnext[x]: the s with y = x | s that x tries next, -1 once x is dead;
        # s runs down the subsets of ~x, so y runs down the supersets of x
        xnext = [full ^ x for x in range(1 << E)]
        path = []  # x, y, x, y, ...: path[k] sits at level k + 1
        while True:
            depth = len(path)
            if not depth:
                while sources and not (scap[sources[-1]] > FLOW_EPS
                                       and xnext[sources[-1]] >= 0):
                    sources.pop()
                if not sources:
                    return flow
                path.append(sources[-1])
            elif depth & 1:  # an x: its next useful pair arc
                x = path[-1]
                s, rest, up = xnext[x], full ^ x, depth + 1
                while s >= 0 and ylive[x | s] != up:
                    s = (s - 1) & rest if s else -1
                xnext[x] = s
                if s < 0:
                    path.pop()
                else:
                    path.append(x | s)
            elif depth < sink_level - 1:  # a y: its next useful reverse arc
                y = path[-1]
                xs = down[y]
                while xs and not (pairs[xs[-1] << E | y][1] > FLOW_EPS
                                  and xnext[xs[-1]] >= 0):
                    xs.pop()
                if xs:
                    path.append(xs[-1])
                else:
                    ylive[y] = -1
                    path.pop()
            elif not tcap[path[-1]] > FLOW_EPS:  # a y whose sink arc is full
                ylive[path.pop()] = -1
            else:
                flow = self._augment(path, flow)

    def _augment(self, path, flow):
        """Push the path's bottleneck from the source to the sink, then cut
        the path back to the tail of its first arc left with capacity
        <= FLOW_EPS; returns the new flow.  The bottleneck reads no forward
        pair arc, since those never saturate."""
        E, pairs, scap, tcap = self.n_edges, self.pairs, self.scap, self.tcap
        pushed = min(scap[path[0]], tcap[path[-1]])
        for k in range(2, len(path), 2):
            pushed = min(pushed, pairs[path[k] << E | path[k - 1]][1])
        scap[path[0]] -= pushed
        tcap[path[-1]] -= pushed
        cut = len(path) if scap[path[0]] > FLOW_EPS else 0
        for k in range(1, len(path)):
            if k & 1:  # x -> y
                key = path[k - 1] << E | path[k]
                caps = pairs.get(key)
                if caps is None:
                    caps = pairs[key] = [2.0, 0.0]
                    bisect.insort(self.below[path[k]], path[k - 1])
                caps[0] -= pushed
                caps[1] += pushed
            else:  # y -> x, against a pair arc
                caps = pairs[path[k] << E | path[k - 1]]
                caps[1] -= pushed
                caps[0] += pushed
                if caps[1] <= FLOW_EPS and k < cut:
                    cut = k
        del path[cut:]
        return flow + pushed

    def coupling(self):
        """{(x, y): flow carried} over the pairs carrying more than 1e-12,
        by ascending x, then descending y."""
        E = self.n_edges
        mask = (1 << E) - 1
        return {(key >> E, key & mask): 2.0 - caps[0]
                for key, caps in sorted(self.pairs.items(),
                                        key=lambda item: (item[0] >> E, -item[0]))
                if 2.0 - caps[0] > 1e-12}


def strassen_dominates(mu: ExplicitMeasure, nu: ExplicitMeasure) -> DominationCertificate:
    """Certify mu <= nu in the stochastic order, or exhibit a violating event."""
    if mu.n_edges != nu.n_edges:
        raise ValueError("measures live on different edge sets")
    E = mu.n_edges
    _check_measure_cap(E, FLOW_CAP, "flow certification")
    net = _StrassenFlow(mu.weights, nu.weights, E)
    flow, reached = net.max_flow()
    if flow >= 1.0 - FLOW_TOL:
        return DominationCertificate(True, flow, E, coupling=net.coupling())
    event = _closure(reached, E)
    gap = float(mu.weights[event].sum() - nu.weights[event].sum())
    return DominationCertificate(False, flow, E, event_mask=event, gap=gap)


def _closure(indicator: np.ndarray, n_edges: int) -> np.ndarray:
    """Smallest increasing event containing the marked configurations.
    Reversing a 2^E array complements every configuration, so
    ``_closure(m[::-1], E)[::-1]`` is the smallest decreasing one."""
    event = indicator.copy()
    for e in range(n_edges):
        halves = event.reshape(-1, 2, 1 << e)  # [:, 1] has edge e open
        halves[:, 1] |= halves[:, 0]
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
    if not np.array_equal(_closure(event, cert.n_edges), event):
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
