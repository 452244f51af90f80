import numpy as np
import pytest
from scipy.stats import chisquare

from percolab.coupling import (
    EXP_COUPLE,
    couple_sequential,
    domination_margin,
    exhaustive_order_check,
    pair_to_json,
)
from percolab.exact import (
    conditional_measure,
    exact_magnetization,
    make_conditional_oracle,
    max_conditional_pivotal,
    product_measure,
)
from percolab.errors import CapExceeded
from percolab.exploration import CLUSTER_FIRST, ClusterFirstRule, ExplorationTrace
from percolab.lattices import LatticeSpec, build_ball
from percolab.streams import stream


def _config_int(bits):
    out = 0
    for e, b in enumerate(bits):
        out |= int(b) << e
    return out


def test_q_zero_lower_all_closed(z1_ball2):
    oracle = lambda trace: 0.9
    for seed in range(20):
        pair = couple_sequential(z1_ball2, CLUSTER_FIRST, 0.0, oracle, seed)
        assert not pair.lower.any()
        assert pair.ordered


def test_constant_oracle_equal_thresholds(z1_ball2):
    p = 0.55
    oracle = lambda trace: p
    for seed in range(20):
        pair = couple_sequential(z1_ball2, CLUSTER_FIRST, p, oracle, seed)
        assert np.array_equal(pair.lower, pair.upper)
        assert not pair.violations


def test_oracle_contract_violation(z1_ball2):
    with pytest.raises(ValueError):
        couple_sequential(z1_ball2, CLUSTER_FIRST, 0.5, lambda t: 1.7, 1)
    with pytest.raises(ValueError):
        couple_sequential(z1_ball2, CLUSTER_FIRST, 1.5, lambda t: 0.5, 1)


def test_coupled_run_marginals_z1_ball1(z1_ball1):
    # exact conditional oracle with q = p(1 - m): ordered every run, and both
    # empirical marginals pass a chi-square test against their exact laws
    p, h = 0.5, 0.6
    m = exact_magnetization(z1_ball1, p, h)
    q = p * (1.0 - m)
    oracle = make_conditional_oracle(z1_ball1, CLUSTER_FIRST, p, h)
    cond = conditional_measure(z1_ball1, p, h)
    prod_q = product_measure(z1_ball1, q)
    n = 10_000
    upper_counts = np.zeros(4)
    lower_counts = np.zeros(4)
    for seed in range(n):
        pair = couple_sequential(z1_ball1, CLUSTER_FIRST, q, oracle, seed)
        assert pair.ordered and not pair.violations
        upper_counts[_config_int(pair.upper)] += 1
        lower_counts[_config_int(pair.lower)] += 1
    up_p = chisquare(upper_counts, cond.weights * n).pvalue
    lo_p = chisquare(lower_counts, prod_q.weights * n).pvalue
    assert up_p > 0.001
    assert lo_p > 0.001


def test_domination_margin_product_target(z1_ball2):
    # unconditioned product law: every conditional equals p exactly
    p = 0.35
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, p, 0.0)
    target = product_measure(z1_ball2, p)
    assert domination_margin(z1_ball2, CLUSTER_FIRST, oracle, target) == pytest.approx(p, abs=1e-12)


def test_domination_margin_h_zero_conditional(z1_ball2):
    p = 0.65
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, p, 0.0)
    target = conditional_measure(z1_ball2, p, 0.0)
    assert domination_margin(z1_ball2, CLUSTER_FIRST, oracle, target) == pytest.approx(p, abs=1e-12)


def test_domination_margin_meets_pivotal_bound(z1_ball1):
    p, h = 0.5, 0.5
    eps = max_conditional_pivotal(z1_ball1, CLUSTER_FIRST, p, h)
    oracle = make_conditional_oracle(z1_ball1, CLUSTER_FIRST, p, h)
    target = conditional_measure(z1_ball1, p, h)
    margin = domination_margin(z1_ball1, CLUSTER_FIRST, oracle, target)
    assert margin >= p * (1.0 - eps) - 1e-12


def test_exhaustive_check_clean_at_valid_q(z1_ball2):
    p, h = 0.5, 0.8
    eps = max_conditional_pivotal(z1_ball2, CLUSTER_FIRST, p, h)
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, p, h)
    target = conditional_measure(z1_ball2, p, h)
    assert exhaustive_order_check(z1_ball2, CLUSTER_FIRST, p * (1 - eps),
                                  oracle, target) == []


def test_exhaustive_check_finds_inflated_q(z1_ball2):
    # q close to 1 exceeds some conditional: the walker names the bad trace
    p, h = 0.5, 0.8
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, p, h)
    target = conditional_measure(z1_ball2, p, h)
    bad = exhaustive_order_check(z1_ball2, CLUSTER_FIRST, 0.99, oracle, target)
    assert bad
    assert all(row["oracle_prob"] < 0.99 for row in bad)
    # and sampled runs eventually reproduce a violation
    seen = 0
    for seed in range(200):
        pair = couple_sequential(z1_ball2, CLUSTER_FIRST, 0.99, oracle, seed)
        seen += len(pair.violations)
    assert seen > 0


def test_pair_json(z1_ball1):
    oracle = make_conditional_oracle(z1_ball1, CLUSTER_FIRST, 0.5, 0.5)
    pair = couple_sequential(z1_ball1, CLUSTER_FIRST, 0.3, oracle, 42)
    doc = pair_to_json(pair)
    assert doc["ordered"] == pair.ordered
    assert len(doc["uniforms"]) == z1_ball1.n_edges
    assert len(doc["step_probs"]) == z1_ball1.n_edges


def _couple_step_by_step(ball, q, oracle, rng_seed):
    """Reference coupler: ask the rule for each next edge and extend the
    trace one step at a time; (lower, upper, order, values, step_probs)."""
    E = ball.n_edges
    uniforms = stream(rng_seed, EXP_COUPLE).random(E)
    lower = np.zeros(E, dtype=np.uint8)
    upper = np.zeros(E, dtype=np.uint8)
    trace = ExplorationTrace()
    probs = []
    for k in range(E):
        e = CLUSTER_FIRST.next_edge(ball, trace)
        pr = oracle(trace)
        probs.append(pr)
        upper[e] = uniforms[k] <= pr
        lower[e] = uniforms[k] <= q
        trace = trace.extend(e, upper[e])
    return lower, upper, trace.order, trace.values, tuple(probs)


def test_tree_walk_matches_step_by_step_exploration(z1_ball2, z2_ball1, tree3_ball1):
    for ball in (z1_ball2, z2_ball1, tree3_ball1):
        exact = make_conditional_oracle(ball, CLUSTER_FIRST, 0.5, 0.5)
        for oracle in (exact, lambda trace: 0.3):
            for seed in range(50):
                pair = couple_sequential(ball, CLUSTER_FIRST, 0.4, oracle, seed)
                lower, upper, order, values, probs = _couple_step_by_step(
                    ball, 0.4, oracle, seed)
                assert np.array_equal(pair.lower, lower)
                assert np.array_equal(pair.upper, upper)
                assert (pair.trace.order, pair.trace.values) == (order, values)
                assert pair.step_probs == probs


def test_coupler_draws_the_stream_uniforms(z1_ball2, z2_ball1, tree3_ball1):
    point = build_ball(LatticeSpec.hypercubic(1), 0)
    for ball in (z1_ball2, z2_ball1, tree3_ball1, point):
        for seed in range(4096):
            pair = couple_sequential(ball, CLUSTER_FIRST, 0.4, lambda trace: 0.5, seed)
            assert np.array_equal(pair.uniforms,
                                  stream(seed, EXP_COUPLE).random(ball.n_edges))
    # each pair owns its uniforms: a later draw does not overwrite them
    first = couple_sequential(tree3_ball1, CLUSTER_FIRST, 0.4, lambda trace: 0.5, 0)
    kept = first.uniforms.copy()
    couple_sequential(tree3_ball1, CLUSTER_FIRST, 0.4, lambda trace: 0.5, 1)
    assert np.array_equal(first.uniforms, kept)


def test_coupler_reuses_the_exploration_tree(z1_ball2, monkeypatch):
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, 0.5, 0.5)
    couple_sequential(z1_ball2, CLUSTER_FIRST, 0.4, oracle, 0)
    calls = []
    next_edge = ClusterFirstRule.next_edge

    def counted(self, ball, trace):
        calls.append(trace)
        return next_edge(self, ball, trace)

    monkeypatch.setattr(ClusterFirstRule, "next_edge", counted)
    for seed in range(100):
        couple_sequential(z1_ball2, CLUSTER_FIRST, 0.4, oracle, seed)
    assert calls == []


def test_coupler_trace_cap_and_empty_ball():
    tri = build_ball(LatticeSpec.triangular(), 1)  # 12 edges > trace cap
    with pytest.raises(CapExceeded):
        couple_sequential(tri, CLUSTER_FIRST, 0.5, lambda trace: 0.5, 0)
    point = build_ball(LatticeSpec.hypercubic(1), 0)
    pair = couple_sequential(point, CLUSTER_FIRST, 0.5, lambda trace: 0.5, 0)
    assert pair.lower.size == pair.upper.size == pair.uniforms.size == 0
    assert pair.trace == ExplorationTrace()
    assert pair.step_probs == () and pair.violations == () and pair.ordered
