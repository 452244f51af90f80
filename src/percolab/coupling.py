"""Sequential monotone coupling between a product law and an explored target.

One uniform is drawn per exploration step.  The upper configuration opens
its next edge when the uniform falls below the target's conditional open
probability given the history; the lower opens when it falls below a fixed
q.  The upper trace drives the exploration (the conditional measure is the
one being explored).  The lower marginal is exactly product Bernoulli(q);
the upper marginal is the target; and whenever every conditional stays
above q the pair is pointwise ordered.  Steps where the conditional dips
below q are reported as structured violations instead of raising, because
probing where domination fails is a supported use.
"""

from dataclasses import dataclass

import numpy as np

from .exact import ExplicitMeasure, _exploration_tree, reachable_traces
from .exploration import ExplorationTrace
from .lattices import GraphBall
from .streams import stream

EXP_COUPLE = 4


@dataclass(frozen=True)
class StepViolation:
    """One step where the lower bit exceeded the upper bit."""

    step: int
    edge: int
    oracle_prob: float
    q: float
    uniform: float


@dataclass(frozen=True)
class CoupledPair:
    """Result of one coupled run: configurations, shared uniforms, audit trail."""

    lower: np.ndarray
    upper: np.ndarray
    uniforms: np.ndarray
    trace: ExplorationTrace
    step_probs: tuple
    violations: tuple

    @property
    def ordered(self) -> bool:
        return bool(np.all(self.lower <= self.upper))


def couple_sequential(ball: GraphBall, rule, q: float, oracle,
                      rng_seed: int) -> CoupledPair:
    """Run the shared-uniform coupling once.

    ``oracle`` maps a trace to the target's conditional probability that the
    next revealed edge is open; values outside [0, 1] abort with ValueError.
    The walk follows the ball's exploration tree, so it shares the tree's
    trace cap.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    E = ball.n_edges
    tree = _exploration_tree(ball, rule)
    uniforms = stream(rng_seed, EXP_COUPLE).random(E)
    lower = np.zeros(E, dtype=np.uint8)
    upper = np.zeros(E, dtype=np.uint8)
    trace = ExplorationTrace()
    step_probs = []
    violations = []
    node = 0
    for k in range(E):
        # the tree is a preorder with the closed branch first: from a node at
        # depth k, the closed child is next and the open child 2^(E-k-1) on
        trace, e, _mask = tree[node]
        pr = float(oracle(trace))
        if not 0.0 <= pr <= 1.0:
            raise ValueError(f"oracle returned {pr!r} outside [0, 1] at step {k}")
        u = float(uniforms[k])
        up = u <= pr
        lo = u <= q
        upper[e] = up
        lower[e] = lo
        step_probs.append(pr)
        if lo and not up:
            violations.append(StepViolation(k, e, pr, q, u))
        node += 1 << (E - k - 1) if up else 1
    if E:
        trace = trace.extend(e, up)
    return CoupledPair(lower, upper, uniforms, trace, tuple(step_probs),
                       tuple(violations))


def domination_margin(ball: GraphBall, rule, oracle,
                      target: ExplicitMeasure) -> float:
    """Exact minimum of the oracle over positive-probability trace prefixes.

    This is the largest q for which the sequential coupling is ordered for
    every realization: the coupling hypothesis holds iff margin >= q.
    """
    margin = 1.0
    for trace, _e, _mask in reachable_traces(ball, rule, target.weights):
        margin = min(margin, float(oracle(trace)))
    return margin


def exhaustive_order_check(ball: GraphBall, rule, q: float, oracle,
                           target: ExplicitMeasure) -> list:
    """All trace prefixes where a uniform could order the pair the wrong way.

    Exhausts every reachable threshold pattern rather than sampling seeds: a
    violation is possible at a prefix iff the conditional there is below q.
    An empty result proves no seed can ever produce an order violation.
    """
    bad = []
    for trace, e, _mask in reachable_traces(ball, rule, target.weights):
        pr = float(oracle(trace))
        if pr < q - 1e-12:
            bad.append({"order": trace.order, "values": trace.values,
                        "edge": e, "oracle_prob": pr, "q": q})
    return bad


def pair_to_json(pair: CoupledPair) -> dict:
    return {
        "lower": [int(b) for b in pair.lower],
        "upper": [int(b) for b in pair.upper],
        "uniforms": [float(u) for u in pair.uniforms],
        "order": [int(e) for e in pair.trace.order],
        "revealed": [int(x) for x in pair.trace.values],
        "step_probs": [float(p) for p in pair.step_probs],
        "violations": [
            {"step": v.step, "edge": v.edge, "oracle_prob": v.oracle_prob,
             "q": v.q, "uniform": v.uniform}
            for v in pair.violations
        ],
        "ordered": pair.ordered,
    }
