"""Brute-force references that the tests compare percolab against.

None of these is used by percolab's commands, demos or benchmark.  Each is
the direct, configuration-by-configuration definition of a quantity that
percolab computes some faster way (``grow_depth_first`` is the scalar loop
that the layered growth kernel replaced), except two.  ``tree_cluster_law``
is the exact cluster-size law of the infinite regular tree, in closed form,
against which the Monte Carlo estimators are checked.  ``strassen_dominates`` is the
recursive Dinic max flow that percolab.exact replaced by a levelled one;
percolab must return its certificates bit for bit.  The stream labels are fixed,
so every test input they draw is reproducible.
"""

import math

import numpy as np

from percolab.core import ClusterResult, _open_reach
from percolab.estimators import EstimateCI, wilson_interval
from percolab.exact import (
    FLOW_CAP,
    FLOW_EPS,
    FLOW_TOL,
    DominationCertificate,
    ExplicitMeasure,
    _check_measure_cap,
    _edge_bits,
    _flips,
)
from percolab.exploration import ExplorationTrace
from percolab.lattices import REGULAR_TREE, GraphBall, LatticeSpec, incident_edges, vertex_key
from percolab.streams import keyed_uniform, stream

# Stream labels: (seed, label, ...) paths keep experiments independent.
EXP_CONFIG = 1
EXP_GHOST = 2
EXP_BALL = 14


def edge_coords(ball: GraphBall, e: int) -> tuple:
    """Coordinates of the two endpoints of edge ``e``."""
    i, j = ball.edges[e]
    return ball.vertices[i], ball.vertices[j]


def edge_key(spec: LatticeSpec, va: tuple, vb: tuple) -> int:
    """Canonical integer key of the undirected lattice edge {va, vb}."""
    kb = vertex_key(spec, vb)
    for ek, w in incident_edges(spec)(vertex_key(spec, va)):
        if w == kb:
            return ek
    raise ValueError(f"{va} and {vb} are not lattice neighbors")


def sample_config(ball: GraphBall, p: float, rng_seed: int) -> np.ndarray:
    """I.i.d. Bernoulli(p) edge configuration, deterministic given the seed.

    The same seed reuses the same underlying uniforms for every p, so
    configurations at p <= p' are pointwise ordered.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    u = stream(rng_seed, EXP_CONFIG).random(ball.n_edges)
    return (u < p).astype(np.uint8)


def sample_ghost(ball: GraphBall, h: float, rng_seed: int) -> np.ndarray:
    """I.i.d. green markers with per-vertex probability 1 - exp(-h); h may be +inf."""
    if h < 0:
        raise ValueError("ghost intensity h must be nonnegative")
    u = stream(rng_seed, EXP_GHOST).random(ball.n_vertices)
    return (u < -math.expm1(-h)).astype(np.uint8)


def sample_config_keyed(ball: GraphBall, p: float, rkey: int) -> np.ndarray:
    """Edge configuration from per-edge keyed uniforms.

    Uses the same (replicate key, edge key) uniforms as lazy growth, so a
    ball configuration and a lazy run driven by the same key agree edge for
    edge.
    """
    bits = np.zeros(ball.n_edges, dtype=np.uint8)
    for e in range(ball.n_edges):
        va, vb = edge_coords(ball, e)
        if keyed_uniform(rkey, edge_key(ball.spec, va, vb)) < p:
            bits[e] = 1
    return bits


def cluster_of_origin(ball: GraphBall, config: np.ndarray) -> ClusterResult:
    """Maximal open cluster of the origin on a finite ball."""
    if len(config) != ball.n_edges:
        raise ValueError("configuration length does not match the ball")
    seen = _open_reach(ball.incidence, [ball.origin], config)
    return ClusterResult(frozenset(seen), len(seen), truncated=False)


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


def estimate_psi_on_ball(ball: GraphBall, p: float, n: int, samples: int,
                         rng_seed: int) -> EstimateCI:
    """Tail estimate on a fixed finite ball by direct configuration sampling.

    Companion to the exact enumeration on the same ball; used to calibrate
    interval coverage against exactly known values.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    u = stream(rng_seed, EXP_BALL).random((samples, ball.n_edges))
    configs = (u < p).astype(np.uint8)
    successes = 0
    for row in configs:
        if cluster_of_origin(ball, row).size >= n:
            successes += 1
    lo, hi = wilson_interval(successes, samples)
    return EstimateCI(successes / samples, lo, hi, samples)


def tree_cluster_law(d: int, p: float, s_max: int) -> np.ndarray:
    """P(|C| = s) for s = 0 .. s_max on the d-regular tree, 0 < p < 1.

    The origin has J ~ Bin(d, p) open edges and every other cluster vertex
    Bin(d - 1, p) open edges away from it, so by the hitting-time theorem
    P(|C| = 1 + n) = sum_j P(J = j) (j / n) P(Bin(n (d - 1), p) = n - j).
    Each binomial is evaluated in log-gamma.  The mass that the sum over
    every s misses is the probability that the cluster is infinite.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    log_p, log_q = math.log(p), math.log1p(-p)

    def log_binom(trials, k):
        return (math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                + k * log_p + (trials - k) * log_q)

    law = np.zeros(s_max + 1)
    law[1] = (1.0 - p) ** d
    for n in range(1, s_max):
        law[n + 1] = sum(j / n * math.exp(log_binom(d, j) + log_binom(n * (d - 1), n - j))
                         for j in range(1, min(d, n) + 1))
    return law


def grow_depth_first(spec: LatticeSpec, p: float, cap: int, rkey: int):
    """Member keys of the origin's cluster, grown depth-first one keyed
    uniform at a time until it is maximal or has ``cap`` vertices, and
    whether it reached ``cap``.

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


def bfs_layers(spec: LatticeSpec, p: float, rkey: int, count: int) -> list:
    """The origin's cluster breadth-first, as lists of vertex keys with the
    origin alone in the first, until they hold ``count`` vertices or the
    cluster is maximal.  A lattice layer is sorted by key; a tree layer goes
    by parent, then child digit, the order ``incident_edges`` reveals it."""
    incident = incident_edges(spec)
    layers = [[vertex_key(spec, spec.origin)]]
    seen = set(layers[0])
    while layers[-1] and len(seen) < count:
        layer = []
        for v in layers[-1]:
            for ek, w in incident(v):
                if w not in seen and keyed_uniform(rkey, ek) < p:
                    seen.add(w)
                    layer.append(w)
        layers.append(layer if spec.family == REGULAR_TREE else sorted(layer))
    return layers


# The recursive Dinic max flow and Strassen certificate that percolab.exact
# replaced; the certificates it returns are the ones percolab must return.

class Dinic:
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
    net = Dinic(sink + 1)
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
