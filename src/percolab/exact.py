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

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .exploration import ExplorationTrace, revealed_open_cluster
from .lattices import GraphBall

MEASURE_CAP = 20    # 2^E weight vectors
FLOW_CAP = 12       # ordered-pair flow networks
TRACE_CAP = 10      # trace-indexed enumerations
FLOW_TOL = 1e-9     # feasibility tolerance on max-flow values


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


def cluster_size_table(ball: GraphBall) -> np.ndarray:
    """|origin cluster| for every configuration integer."""
    labels = _cluster_labels(ball)
    return (labels == labels[:, [ball.origin]]).sum(axis=1, dtype=np.int32)


def cluster_members_table(ball: GraphBall) -> np.ndarray:
    """Origin-cluster membership, bool (2^E, V), for every configuration."""
    labels = _cluster_labels(ball)
    return labels == labels[:, [ball.origin]]


def product_measure(ball: GraphBall, p: float) -> ExplicitMeasure:
    """Independent Bernoulli(p) per edge: w(c) = p^{#open} (1-p)^{#closed}."""
    _check_measure_cap(ball.n_edges, MEASURE_CAP, "explicit measures")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    E = ball.n_edges
    pops = _popcounts(E)
    w = np.power(p, pops) * np.power(1.0 - p, E - pops)
    return ExplicitMeasure(w, E)


def _popcounts(n_edges):
    idx = np.arange(1 << n_edges, dtype=np.uint32)
    pops = np.zeros(1 << n_edges, dtype=np.int64)
    while idx.any():
        pops += idx & 1
        idx >>= 1
    return pops


def conditional_measure(ball: GraphBall, p: float, h: float) -> ExplicitMeasure:
    """Edge-marginal law conditioned on the avoidance event.

    Weights are proportional to the product weight times e^{-h |C_o|}; the
    normalizer equals one minus the magnetization of this ball.
    """
    prod = product_measure(ball, p)
    if h < 0:
        raise ValueError("h must be nonnegative")
    sizes = cluster_size_table(ball)
    w = prod.weights * np.exp(-h * sizes)
    z = float(w.sum())
    if z <= 0.0:
        raise ValueError("avoidance event has zero probability")
    return ExplicitMeasure(w / z, ball.n_edges)


def exact_magnetization(ball: GraphBall, p: float, h: float) -> float:
    """Probability that the origin cluster contains a green vertex."""
    prod = product_measure(ball, p)
    sizes = cluster_size_table(ball)
    return float(prod.weights @ -np.expm1(-h * sizes))


def magnetization_bound(ball: GraphBall, p: float, h: float) -> float:
    """Finite-ball magnetization bound: max over vertices v of P(cluster(v) meets green).

    On a transitive infinite graph all vertices give the same value; on a
    finite ball the maximum upper-bounds the probability that any fixed
    vertex reaches a green vertex, revealed edges removed or not.
    """
    prod = product_measure(ball, p)
    labels = _cluster_labels(ball)
    # |cluster(v)| per (configuration, vertex): count the labels of each row
    flat = labels + labels.shape[1] * np.arange(len(labels), dtype=np.int64)[:, None]
    sizes = np.bincount(flat.ravel(), minlength=labels.size)[flat]
    per_vertex = prod.weights @ -np.expm1(-h * sizes)
    return float(per_vertex.max())


def exact_psi(ball: GraphBall, p: float, n: int) -> float:
    """Probability that the origin cluster has at least n vertices."""
    prod = product_measure(ball, p)
    sizes = cluster_size_table(ball)
    return float(prod.weights[sizes >= n].sum())


def psi_table(ball: GraphBall, p: float) -> list:
    """Exact (n, psi_n) rows for n = 0 .. |V|."""
    prod = product_measure(ball, p)
    sizes = cluster_size_table(ball)
    return [(n, float(prod.weights[sizes >= n].sum()))
            for n in range(ball.n_vertices + 1)]


def magnetization_table(ball: GraphBall, p_list, h_list) -> list:
    """Exact (p, h, m) rows over a parameter grid."""
    return [(p, h, exact_magnetization(ball, p, h))
            for p in p_list for h in h_list]


def _cylinder_mask(n_edges, trace):
    mask = np.ones(1 << n_edges, dtype=bool)
    idx = np.arange(1 << n_edges, dtype=np.int64)
    for e, x in zip(trace.order, trace.values):
        mask &= ((idx >> e) & 1) == x
    return mask


def conditional_open_prob(ball: GraphBall, rule, p: float, h: float,
                          trace: ExplorationTrace) -> float:
    """P(next revealed edge is open) under the avoidance-conditioned law,
    given that the exploration so far matches ``trace``."""
    return make_conditional_oracle(ball, rule, p, h)(trace)


def make_conditional_oracle(ball: GraphBall, rule, p: float, h: float):
    """Memoized trace -> conditional open probability, for the coupler."""
    _check_measure_cap(ball.n_edges, TRACE_CAP, "trace-indexed quantities")
    weights = conditional_measure(ball, p, h).weights
    memo = {}

    def oracle(trace):
        key = (trace.order, trace.values)
        got = memo.get(key)
        if got is not None:
            return got
        e = rule.next_edge(ball, trace)
        if e is None:
            raise ValueError("trace is already exhausted")
        mask = _cylinder_mask(ball.n_edges, trace)
        den = float(weights[mask].sum())
        if den <= 0.0:
            raise ValueError("trace has zero probability under the conditional law")
        num = float(weights[_cylinder_mask(ball.n_edges, trace.extend(e, 1))].sum())
        memo[key] = num / den
        return memo[key]

    return oracle


def reachable_traces(ball: GraphBall, rule, weights: np.ndarray):
    """Yield (trace, next_edge, cylinder_mask) for every positive-probability
    trace prefix of length 0 .. |E|-1 under the given weight vector."""
    _check_measure_cap(ball.n_edges, TRACE_CAP, "trace-indexed quantities")
    n = 1 << ball.n_edges
    idx = np.arange(n, dtype=np.int64)
    bit = [((idx >> e) & 1) == 1 for e in range(ball.n_edges)]

    def rec(trace, mask):
        e = rule.next_edge(ball, trace)
        if e is None:
            return
        yield trace, e, mask
        for b in (0, 1):
            sub = mask & (bit[e] if b else ~bit[e])
            if float(weights[sub].sum()) > 0.0:
                yield from rec(trace.extend(e, b), sub)

    root = np.ones(n, dtype=bool)
    if float(weights.sum()) > 0.0:
        yield from rec(ExplorationTrace(), root)


def max_conditional_pivotal(ball: GraphBall, rule, p: float, h: float) -> float:
    """Largest conditional pivotal probability over reachable trace prefixes.

    For each reachable prefix with positive avoidance probability, computes
    P(next edge pivotal for avoidance | avoidance and the prefix) exactly,
    ghost integrated analytically, and returns the maximum.
    """
    _check_measure_cap(ball.n_edges, TRACE_CAP, "trace-indexed quantities")
    E = ball.n_edges
    prod = product_measure(ball, p).weights
    sizes = cluster_size_table(ball)
    idx = np.arange(1 << E, dtype=np.int64)
    avoid_w = prod * np.exp(-h * sizes)

    # Pivotal-and-avoid weight of configuration c with next edge e: zero when
    # e is open in c; otherwise the edge flip grows the cluster by d vertices
    # and contributes mu(c) e^{-h s-} (1 - e^{-h d}).
    piv_w = []
    for e in range(E):
        s_minus = sizes[np.asarray(idx & ~np.int64(1 << e), dtype=np.int64)]
        s_plus = sizes[np.asarray(idx | np.int64(1 << e), dtype=np.int64)]
        closed = ((idx >> e) & 1) == 0
        w = prod * np.exp(-h * s_minus) * -np.expm1(-h * (s_plus - s_minus))
        w[~closed] = 0.0
        piv_w.append(w)

    best = 0.0
    for trace, e, mask in reachable_traces(ball, rule, avoid_w):
        den = float(avoid_w[mask].sum())
        if den <= 0.0:
            continue
        num = float(piv_w[e][mask].sum())
        best = max(best, num / den)
    return best


def _fkg_tables(ball, p, h):
    """Per-configuration tables of the FKG step: product weight, avoidance
    weight, origin-cluster membership and cluster labels."""
    prod = product_measure(ball, p).weights
    members = cluster_members_table(ball)
    avoid = prod * np.exp(-h * members.sum(axis=1))
    return prod, avoid, members, _cluster_labels(ball)


def _fkg_step(ball, h, tables, trace, e, mask):
    """(lhs, rhs) of the FKG comparison at the prefix ``trace`` with next
    edge ``e`` and cylinder ``mask``; None when ``e`` does not join the
    revealed origin cluster to an outside vertex."""
    i, j = ball.edges[e]
    cluster = revealed_open_cluster(ball, trace)
    if (i in cluster) == (j in cluster):
        return None
    w = j if i in cluster else i
    prod, avoid, members, labels = tables
    excluded = sum(1 << k for k in trace.order) | (1 << e)
    configs = np.nonzero(mask)[0]
    # Closing the excluded edges leaves w's cluster as the reachable set.
    rows = labels[configs & ~excluded]
    reach = rows == rows[:, [w]]
    hit_all = -np.expm1(-h * reach.sum(axis=1))
    hit_outside = -np.expm1(-h * (reach & ~members[configs]).sum(axis=1))
    lhs_den = float(avoid[configs].sum())
    rhs_den = float(prod[configs].sum())
    if lhs_den <= 0.0 or rhs_den <= 0.0:
        raise ValueError("conditioning event has zero probability")
    return (float(avoid[configs] @ hit_outside) / lhs_den,
            float(prod[configs] @ hit_all) / rhs_den)


def fkg_step_check(ball: GraphBall, rule, p: float, h: float,
                   trace: ExplorationTrace):
    """Exact two-sided Harris-FKG comparison at one exploration step.

    The next edge must join a vertex of the revealed origin cluster to an
    outside vertex w.  B is the event that w reaches a green vertex through
    open edges other than the revealed ones and the next edge itself.
    Returns (lhs, rhs) = (P(B | avoidance, prefix), P(B | prefix)); positive
    association of the product law forces lhs <= rhs.
    """
    _check_measure_cap(ball.n_edges, TRACE_CAP, "trace-indexed quantities")
    e = rule.next_edge(ball, trace)
    if e is None:
        raise ValueError("trace is already exhausted")
    step = _fkg_step(ball, h, _fkg_tables(ball, p, h), trace, e,
                     _cylinder_mask(ball.n_edges, trace))
    if step is None:
        raise ValueError("next edge does not join the revealed cluster to its outside")
    return step


def fkg_sweep(ball: GraphBall, rule, p: float, h: float) -> list:
    """fkg_step_check over every reachable prefix whose next edge has the
    cluster-to-outside structure; rows of (trace, edge, lhs, rhs)."""
    tables = _fkg_tables(ball, p, h)
    rows = []
    for trace, e, mask in reachable_traces(ball, rule, tables[1]):
        step = _fkg_step(ball, h, tables, trace, e, mask)
        if step is not None:
            rows.append({"order": trace.order, "values": trace.values,
                         "edge": e, "lhs": step[0], "rhs": step[1]})
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
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def max_flow(self, s, t, eps=1e-15):
        """(max flow, BFS levels); vertices with a level >= 0 are those the
        source reaches in the final residual graph, the source side of a
        minimum cut."""
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            qi = 0
            while qi < len(queue):
                u = queue[qi]
                qi += 1
                for eid in self.head[u]:
                    v = self.to[eid]
                    if self.cap[eid] > eps and level[v] < 0:
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
                    if self.cap[eid] > eps and level[v] == level[u] + 1:
                        pushed = dfs(v, min(limit, self.cap[eid]))
                        if pushed > eps:
                            self.cap[eid] -= pushed
                            self.cap[eid ^ 1] += pushed
                            return pushed
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, float("inf"))
                if pushed <= eps:
                    break
                flow += pushed


def strassen_dominates(mu: ExplicitMeasure, nu: ExplicitMeasure) -> DominationCertificate:
    """Certify mu <= nu in the stochastic order, or exhibit a violating event."""
    if mu.n_edges != nu.n_edges:
        raise ValueError("measures live on different edge sets")
    E = mu.n_edges
    if E > FLOW_CAP:
        raise CapExceeded(f"flow certification limited to {FLOW_CAP} edges, got {E}")
    full = (1 << E) - 1
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
    nu_pos = nu.weights > 0
    for x in xs:
        rem = full ^ x
        sub = rem
        while True:
            y = x | sub
            if nu_pos[y]:
                net.add_edge(x_id[x], y_id[y], 2.0)
            if sub == 0:
                break
            sub = (sub - 1) & rem
    flow, level = net.max_flow(src, sink)
    if flow >= 1.0 - FLOW_TOL:
        coupling = {}
        for c in xs:
            u = x_id[c]
            for eid in net.head[u]:
                v = net.to[eid]
                # forward pair edges had capacity 2; shipped amount is 2 - cap
                if v != src and eid % 2 == 0 and v != sink:
                    shipped = 2.0 - net.cap[eid]
                    if shipped > 1e-12:
                        coupling[(c, ys[v - 1 - len(xs)])] = shipped
        return DominationCertificate(True, flow, E, coupling=coupling)
    seeds = [c for c in xs if level[x_id[c]] >= 0]
    event = np.zeros(1 << E, dtype=bool)
    event[seeds] = True
    event = _up_closure(event, E)
    gap = float(mu.weights[event].sum() - nu.weights[event].sum())
    return DominationCertificate(False, flow, E, event_mask=event, gap=gap)


def _up_closure(indicator: np.ndarray, n_edges: int) -> np.ndarray:
    """Smallest increasing event containing the marked configurations."""
    event = indicator.copy()
    idx = np.arange(1 << n_edges, dtype=np.int64)
    for e in range(n_edges):
        clear = np.nonzero(((idx >> e) & 1) == 0)[0]
        event[clear + (1 << e)] |= event[clear]
    return event


def verify_certificate(cert: DominationCertificate, mu: ExplicitMeasure,
                       nu: ExplicitMeasure, tol: float = 1e-8) -> bool:
    """Re-check a certificate from scratch, without trusting the flow solver."""
    if cert.dominates:
        row = np.zeros(1 << cert.n_edges)
        col = np.zeros(1 << cert.n_edges)
        for (x, y), wgt in cert.coupling.items():
            if wgt < -1e-12 or (x & ~y) != 0:
                return False
            row[x] += wgt
            col[y] += wgt
        return bool(np.abs(row - mu.weights).max() <= tol
                    and np.abs(col - nu.weights).max() <= tol)
    event = cert.event_mask
    idx = np.arange(1 << cert.n_edges, dtype=np.int64)
    for e in range(cert.n_edges):
        up = np.asarray(idx | np.int64(1 << e), dtype=np.int64)
        if np.any(event & ~event[up]):
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
    mins = []
    for c in np.nonzero(mask)[0]:
        c = int(c)
        if all(not mask[c & ~(1 << e)] for e in range(n_edges) if (c >> e) & 1):
            mins.append(c)
    return mins
