import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab.errors import CapExceeded
from percolab.exact import (
    ExplicitMeasure,
    _ball_tables,
    _closure,
    _StrassenFlow,
    _vertex_cluster_sizes,
    certificate_to_json,
    cluster_members_table,
    cluster_size_table,
    conditional_measure,
    exact_magnetization,
    fkg_sweep,
    magnetization_bound,
    make_conditional_oracle,
    max_conditional_pivotal,
    product_measure,
    psi_table,
    reachable_traces,
    strassen_dominates,
    verify_certificate,
)
from percolab.exploration import CLUSTER_FIRST, ExplorationTrace
from percolab.lattices import LatticeSpec, build_ball
from reference import cluster_of_origin, pivotal_ghost_weight, run_exploration
from reference import strassen_dominates as recursive_strassen_dominates


def test_product_measure_single_edge(single_edge_ball):
    mu = product_measure(single_edge_ball, 0.3)
    assert np.allclose(mu.weights, [0.7, 0.3])


def test_product_measure_degenerate(z1_ball1, z1_ball2):
    mu = product_measure(z1_ball2, 0.0)
    assert mu.weights[0] == 1.0 and mu.weights[1:].sum() == 0.0
    # two edges at p = 1/2: uniform over the four configurations
    uniform = product_measure(z1_ball1, 0.5)
    assert np.allclose(uniform.weights, 0.25)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0))
def test_product_measure_normalized(p):
    ball = build_ball(LatticeSpec.hypercubic(1), 2)
    mu = product_measure(ball, p)
    assert abs(float(mu.weights.sum()) - 1.0) <= 1e-12


def test_explicit_measure_validation():
    with pytest.raises(ValueError):
        ExplicitMeasure(np.array([0.5, 0.25]), 1)  # does not sum to 1
    with pytest.raises(ValueError):
        ExplicitMeasure(np.array([1.5, -0.5]), 1)
    with pytest.raises(ValueError):
        ExplicitMeasure(np.array([1.0]), 1)  # wrong length


def test_conditional_measure_h_zero_is_product(z1_ball2):
    cond = conditional_measure(z1_ball2, 0.4, 0.0)
    assert np.allclose(cond.weights, product_measure(z1_ball2, 0.4).weights)


def test_conditional_measure_single_edge(single_edge_ball):
    p, h = 0.35, 0.8
    cond = conditional_measure(single_edge_ball, p, h)
    raw = np.array([(1 - p) * math.exp(-h), p * math.exp(-2 * h)])
    assert np.allclose(cond.weights, raw / raw.sum())


def test_conditional_measure_p_zero(z1_ball2):
    cond = conditional_measure(z1_ball2, 0.0, 1.3)
    assert cond.weights[0] == 1.0


def test_magnetization_values(single_edge_ball, z1_ball1):
    h = 0.9
    assert abs(exact_magnetization(z1_ball1, 0.0, h) - (1 - math.exp(-h))) < 1e-14
    assert exact_magnetization(z1_ball1, 0.7, 0.0) == 0.0
    p = 0.25
    expected = (1 - p) * (1 - math.exp(-h)) + p * (1 - math.exp(-2 * h))
    assert abs(exact_magnetization(single_edge_ball, p, h) - expected) < 1e-14


def test_normalizer_equals_one_minus_magnetization(z1_ball2):
    for p in (0.2, 0.5, 0.8):
        for h in (0.1, 0.5, 1.0):
            prod = product_measure(z1_ball2, p)
            sizes = cluster_size_table(z1_ball2)
            z = float((prod.weights * np.exp(-h * sizes)).sum())
            m = exact_magnetization(z1_ball2, p, h)
            assert abs(z - (1.0 - m)) < 1e-12


def test_psi_table_values(single_edge_ball, z1_ball2):
    rows = psi_table(z1_ball2, 0.37)
    assert [n for n, _ in rows] == list(range(z1_ball2.n_vertices + 1))
    assert rows[0][1] == 1.0 and rows[1][1] == 1.0
    assert abs(psi_table(single_edge_ball, 0.42)[2][1] - 0.42) < 1e-14
    # the whole ball is the origin's cluster only when every edge is open
    assert abs(psi_table(z1_ball2, 0.9)[-1][1] - 0.9 ** 4) < 1e-14


def test_psi_table_matches_pointwise(z1_ball2, tree3_ball1):
    # psi_n summed configuration by configuration from the origin cluster
    p = 0.55
    for ball in (z1_ball2, tree3_ball1):
        E = ball.n_edges
        prod = product_measure(ball, p).weights
        sizes = [cluster_of_origin(ball, np.array([(c >> e) & 1 for e in range(E)],
                                                  dtype=np.uint8)).size
                 for c in range(1 << E)]
        for n, value in psi_table(ball, p):
            brute = sum(w for w, size in zip(prod, sizes) if size >= n)
            assert value == pytest.approx(brute, abs=1e-14)


def test_magnetization_table_matches_pointwise(z1_ball2):
    # m(p, h) over a grid, each summed configuration by configuration
    E = z1_ball2.n_edges
    sizes = [cluster_of_origin(z1_ball2, np.array([(c >> e) & 1 for e in range(E)],
                                                  dtype=np.uint8)).size
             for c in range(1 << E)]
    for p in (0.2, 0.5):
        prod = product_measure(z1_ball2, p).weights
        for h in (0.1, 1.0):
            brute = sum(w * (1.0 - math.exp(-h * size)) for w, size in zip(prod, sizes))
            assert exact_magnetization(z1_ball2, p, h) == pytest.approx(brute, abs=1e-14)


def test_cluster_tables_are_shared_and_read_only(z2_ball1):
    # one table set per ball, handed to every caller, which cannot write it
    assert cluster_size_table(z2_ball1) is cluster_size_table(z2_ball1)
    assert cluster_members_table(z2_ball1) is cluster_members_table(z2_ball1)
    # the per-vertex sizes behind magnetization_bound: one table per ball too
    assert _vertex_cluster_sizes(z2_ball1) is _vertex_cluster_sizes(z2_ball1)
    for table in _ball_tables(z2_ball1) + (_vertex_cluster_sizes(z2_ball1),):
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("routine", [
    conditional_measure, exact_magnetization, magnetization_bound,
    make_conditional_oracle, max_conditional_pivotal, fkg_sweep,
], ids=lambda f: f.__name__)
def test_exact_routines_reject_negative_h(z1_ball1, routine):
    args = (z1_ball1, 0.5, -0.05)
    if routine in (make_conditional_oracle, max_conditional_pivotal, fkg_sweep):
        args = (z1_ball1, CLUSTER_FIRST, 0.5, -0.05)
    with pytest.raises(ValueError, match="nonnegative"):
        routine(*args)


def test_conditional_open_prob_product_case(z1_ball2):
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, 0.3, 0.0)
    for trace in (ExplorationTrace(), ExplorationTrace((0,), (1,)),
                  ExplorationTrace((0, 1), (0, 1))):
        assert abs(oracle(trace) - 0.3) < 1e-12


def test_conditional_open_prob_single_edge(single_edge_ball):
    p, h = 0.6, 0.7
    got = make_conditional_oracle(single_edge_ball, CLUSTER_FIRST, p, h)(
        ExplorationTrace())
    expected = (p * math.exp(-2 * h)
                / ((1 - p) * math.exp(-h) + p * math.exp(-2 * h)))
    assert abs(got - expected) < 1e-14


def test_conditional_open_prob_p_one(z1_ball2):
    got = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, 1.0, 0.5)(
        ExplorationTrace((0,), (1,)))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_conditional_open_prob_zero_probability_trace(z1_ball2):
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, 0.0, 0.5)
    with pytest.raises(ValueError):
        oracle(ExplorationTrace((0,), (1,)))


def test_oracle_rejects_exhausted_and_off_rule_traces(z1_ball2):
    oracle = make_conditional_oracle(z1_ball2, CLUSTER_FIRST, 0.5, 0.5)
    with pytest.raises(ValueError, match="exhausted"):
        oracle(ExplorationTrace((0, 1, 2, 3), (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="rule"):
        oracle(ExplorationTrace((1,), (0,)))  # the rule reveals edge 0 first


def test_oracle_matches_pointwise(z1_ball2, z2_ball1, tree3_ball1):
    # P(next edge open | prefix) by summing the conditional weight of every
    # configuration whose full exploration starts with the prefix
    p, h = 0.45, 0.6
    for ball in (z1_ball2, z2_ball1, tree3_ball1):
        weights = conditional_measure(ball, p, h).weights
        num, den = {}, {}
        for c in range(1 << ball.n_edges):
            config = [(c >> e) & 1 for e in range(ball.n_edges)]
            trace = run_exploration(ball, CLUSTER_FIRST, config)
            for k in range(ball.n_edges):
                key = (trace.order[:k], trace.values[:k])
                den[key] = den.get(key, 0.0) + weights[c]
                num[key] = num.get(key, 0.0) + weights[c] * trace.values[k]
        oracle = make_conditional_oracle(ball, CLUSTER_FIRST, p, h)
        prefixes = reachable_traces(ball, CLUSTER_FIRST, weights)
        assert {(t.order, t.values) for t, _e, _mask in prefixes} == set(den)
        for trace, _e, _mask in prefixes:
            key = (trace.order, trace.values)
            assert abs(oracle(trace) - num[key] / den[key]) < 1e-12


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_reachable_traces_prune_to_one_path(z1_ball2, p):
    # at p = 0 only the all-closed configuration has weight, at p = 1 only
    # the all-open one: one prefix of each length 0 .. |E|-1
    prefixes = reachable_traces(z1_ball2, CLUSTER_FIRST,
                                product_measure(z1_ball2, p).weights)
    assert [t.k for t, _e, _mask in prefixes] == list(range(z1_ball2.n_edges))
    assert all(t.values == (int(p),) * t.k for t, _e, _mask in prefixes)


def test_max_conditional_pivotal_h_zero(z1_ball2):
    assert max_conditional_pivotal(z1_ball2, CLUSTER_FIRST, 0.5, 0.0) == 0.0


def test_max_conditional_pivotal_p_zero_single_edge(single_edge_ball):
    # only the all-closed configuration is reachable: the conditional
    # pivotal probability at the first step is 1 - e^{-h} by hand
    h = 0.45
    got = max_conditional_pivotal(single_edge_ball, CLUSTER_FIRST, 0.0, h)
    assert abs(got - (1 - math.exp(-h))) < 1e-14


def test_pivotal_bounded_by_magnetization(z1_ball2, z2_ball1):
    for ball in (z1_ball2, z2_ball1):
        for p in (0.2, 0.5, 0.8):
            for h in (0.1, 0.5, 1.0):
                eps = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
                assert eps <= exact_magnetization(ball, p, h) + 1e-12
                assert eps <= magnetization_bound(ball, p, h) + 1e-12


@pytest.mark.parametrize("ball_name", ["z1_ball2", "z2_ball1", "tree3_ball1"])
def test_max_conditional_pivotal_matches_brute_force(ball_name, request):
    # P(next edge pivotal and avoidance | prefix) / P(avoidance | prefix),
    # summed configuration by configuration over each prefix's cylinder; the
    # pair of events needs the next edge closed, since C- is inside C+.
    # At every reachable prefix the oracle then equals p(1 - that ratio).
    ball = request.getfixturevalue(ball_name)
    E = ball.n_edges
    for p, h in ((0.2, 0.1), (0.5, 0.5), (0.8, 1.0)):
        prod = product_measure(ball, p).weights
        avoid = prod * np.exp(-h * cluster_size_table(ball))
        num, den = {}, {}
        for c in range(1 << E):
            config = np.array([(c >> e) & 1 for e in range(E)], dtype=np.uint8)
            trace = run_exploration(ball, CLUSTER_FIRST, config)
            for k, e in enumerate(trace.order):
                key = (trace.order[:k], trace.values[:k])
                piv = pivotal_ghost_weight(ball, config, e, h) * (1 - config[e])
                num[key] = num.get(key, 0.0) + prod[c] * piv
                den[key] = den.get(key, 0.0) + avoid[c]
        brute = max(num[key] / den[key] for key in den if den[key] > 0)
        got = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
        assert abs(got - brute) < 1e-15
        oracle = make_conditional_oracle(ball, CLUSTER_FIRST, p, h)
        for (order, values), d in den.items():
            if d > 0:
                trace = ExplorationTrace(order, values)
                assert abs(oracle(trace) - p * (1 - num[(order, values)] / d)) <= 1e-12


def _fkg_row(ball, p, h, trace):
    """The fkg_sweep row at ``trace``, or None when the sweep has none."""
    for row in fkg_sweep(ball, CLUSTER_FIRST, p, h):
        if (row["order"], row["values"]) == (trace.order, trace.values):
            return row
    return None


def test_fkg_step_h_zero(z1_ball1):
    row = _fkg_row(z1_ball1, 0.5, 0.0, ExplorationTrace())
    assert row["lhs"] == 0.0 and row["rhs"] == 0.0


def test_fkg_step_p_zero(z1_ball1):
    # with every edge closed, B reduces to "the outside endpoint is green",
    # independent of the avoidance conditioning
    h = 0.7
    row = _fkg_row(z1_ball1, 0.0, h, ExplorationTrace())
    assert abs(row["lhs"] - (1 - math.exp(-h))) < 1e-12
    assert abs(row["rhs"] - (1 - math.exp(-h))) < 1e-12


def test_fkg_step_strict_inequality(z1_ball1):
    row = _fkg_row(z1_ball1, 0.5, 0.5, ExplorationTrace())
    assert row["lhs"] < row["rhs"] - 1e-6


def test_fkg_step_requires_structure(z1_ball2):
    # after both origin edges come up closed, the next edge has no endpoint
    # in the revealed cluster: the prefix is reachable but gets no row
    trace = ExplorationTrace((0, 1), (0, 0))
    weights = product_measure(z1_ball2, 0.5).weights
    assert any(t == trace for t, _e, _mask in
               reachable_traces(z1_ball2, CLUSTER_FIRST, weights))
    assert _fkg_row(z1_ball2, 0.5, 0.5, trace) is None


def test_fkg_sweep_ordered(z2_ball1):
    rows = fkg_sweep(z2_ball1, CLUSTER_FIRST, 0.6, 0.8)
    assert rows
    for row in rows:
        assert row["lhs"] <= row["rhs"] + 1e-12


def test_strassen_identity(z1_ball2):
    mu = product_measure(z1_ball2, 0.37)
    cert = strassen_dominates(mu, mu)
    assert cert.dominates
    assert verify_certificate(cert, mu, mu)


def test_strassen_product_pair_fails(tree3_ball1):
    # |E| = 3: p = 0.6 cannot be dominated by p = 0.4
    hi = product_measure(tree3_ball1, 0.6)
    lo = product_measure(tree3_ball1, 0.4)
    cert = strassen_dominates(hi, lo)
    assert not cert.dominates
    assert cert.gap is not None and cert.gap >= 0.2 - 1e-9
    assert verify_certificate(cert, hi, lo)
    # the named witness {first edge open} is itself a violating increasing event
    idx = np.arange(1 << 3)
    event = (idx & 1) == 1
    assert float(hi.weights[event].sum()) > float(lo.weights[event].sum())


def test_strassen_product_pair_dominates(tree3_ball1):
    lo = product_measure(tree3_ball1, 0.4)
    hi = product_measure(tree3_ball1, 0.6)
    cert = strassen_dominates(lo, hi)
    assert cert.dominates
    assert verify_certificate(cert, lo, hi)
    doc = certificate_to_json(cert)
    assert doc["dominates"] and doc["n_edges"] == 3


def test_strassen_failure_witness_is_increasing(tree3_ball1):
    hi = product_measure(tree3_ball1, 0.7)
    lo = product_measure(tree3_ball1, 0.2)
    cert = strassen_dominates(hi, lo)
    assert not cert.dominates
    event = cert.event_mask
    for c in np.nonzero(event)[0]:
        for e in range(3):
            assert event[int(c) | (1 << e)]
    doc = certificate_to_json(cert)
    assert doc["event_min_elements"]


def test_strassen_cap(tree3):
    ball = build_ball(tree3, 3)  # 21 edges
    with pytest.raises(CapExceeded):
        cluster_size_table(ball)
    big = build_ball(LatticeSpec.regular_tree(4), 2)  # 16 edges
    with pytest.raises(CapExceeded):
        strassen_dominates(product_measure(big, 0.4), product_measure(big, 0.5))


def test_strassen_mismatched_edge_sets(z1_ball1, z1_ball2):
    with pytest.raises(ValueError):
        strassen_dominates(product_measure(z1_ball1, 0.4),
                           product_measure(z1_ball2, 0.5))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_strassen_products_ordered_iff(p_lo, p_hi):
    ball = build_ball(LatticeSpec.hypercubic(1), 1)
    mu = product_measure(ball, p_lo)
    nu = product_measure(ball, p_hi)
    cert = strassen_dominates(mu, nu)
    assert cert.dominates == (p_lo <= p_hi + 1e-9)


def _same_certificate(got, want):
    """Bit for bit: JSON, flow and gap, the coupling in its order, the event."""
    assert certificate_to_json(got) == certificate_to_json(want)
    assert got.flow.hex() == want.flow.hex()
    if want.dominates:
        assert list(got.coupling.items()) == list(want.coupling.items())
    else:
        assert got.gap.hex() == want.gap.hex()
        assert np.array_equal(got.event_mask, want.event_mask)


@pytest.mark.parametrize("lattice, radius", [
    (LatticeSpec.hypercubic(1), 1), (LatticeSpec.hypercubic(1), 2),
    (LatticeSpec.hypercubic(1), 3), (LatticeSpec.hypercubic(2), 1),
    (LatticeSpec.regular_tree(3), 1),
    pytest.param(LatticeSpec.regular_tree(3), 2, marks=pytest.mark.slow),
], ids=["z1-1", "z1-2", "z1-3", "z2-1", "tree3-1", "tree3-2"])
def test_strassen_matches_the_recursive_reference(lattice, radius):
    # the conditional law at (p, h) against the product law at q = p(1 - eps),
    # p, min(1, 1.3p) and 0: dominating and failing certificates both
    ball = build_ball(lattice, radius)
    verdicts = set()
    for p in (0.2, 0.35, 0.5, 0.65, 0.8, 1.0):
        for h in (0.1, 0.5, 1.0):
            eps = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
            nu = conditional_measure(ball, p, h)
            for q in (p * (1.0 - eps), p, min(1.0, 1.3 * p), 0.0):
                mu = product_measure(ball, q)
                want = recursive_strassen_dominates(mu, nu)
                _same_certificate(strassen_dominates(mu, nu), want)
                verdicts.add(want.dominates)
    assert verdicts == {True, False}


def test_strassen_matches_the_recursive_reference_on_a_deep_level_graph(tree3):
    # tree3 r=2, the benchmark's largest ball: at q = p(1 - eps) the last
    # augmenting paths have 35 arcs; q = 0.26 fails
    ball = build_ball(tree3, 2)
    nu = conditional_measure(ball, 0.2, 0.1)
    eps = max_conditional_pivotal(ball, CLUSTER_FIRST, 0.2, 0.1)
    for q in (0.2 * (1.0 - eps), 0.26):
        mu = product_measure(ball, q)
        _same_certificate(strassen_dominates(mu, nu), recursive_strassen_dominates(mu, nu))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda E: st.tuples(
    st.just(E), *[st.lists(st.integers(0, 3), min_size=1 << E, max_size=1 << E)
                  .filter(any) for _ in range(2)])))
def test_strassen_matches_the_recursive_reference_on_tied_weights(case):
    # small integer weights: zeros, equal capacities and point masses
    E, *counts = case
    mu, nu = (ExplicitMeasure(np.array(c, dtype=float) / sum(c), E) for c in counts)
    _same_certificate(strassen_dominates(mu, nu), recursive_strassen_dominates(mu, nu))


@pytest.mark.slow
@pytest.mark.parametrize("p_lo, p_hi", [(0.4, 0.5), (0.5, 0.4)])
def test_strassen_matches_the_recursive_reference_on_twelve_edges(p_lo, p_hi):
    ball = build_ball(LatticeSpec.triangular(), 1)
    mu, nu = product_measure(ball, p_lo), product_measure(ball, p_hi)
    _same_certificate(strassen_dominates(mu, nu), recursive_strassen_dominates(mu, nu))


def test_closure_and_its_reversed_form_match_brute_force():
    # every mask for E <= 4 and random masks up to E = 8, against the
    # definitions: c is in the up-closure when some marked c' is a subset of
    # c, in the down-closure when some marked c' is a superset of c; the
    # reversed form is the down-closure the flow's backward pass takes
    rng = np.random.default_rng(4)
    for E in range(9):
        configs = np.arange(1 << E)
        subset = (configs[:, None] & ~configs) == 0  # [c', c]: c' is a subset of c
        if E <= 4:
            masks = (np.arange(1 << (1 << E))[:, None] >> configs & 1).astype(bool)
        else:
            density = rng.choice([0.005, 0.02, 0.1, 0.5], size=(40, 1))
            masks = rng.random((40, 1 << E)) < density
        for mask, up, down in zip(masks, masks @ subset, masks @ subset.T):
            assert np.array_equal(_closure(mask, E), up)
            assert np.array_equal(_closure(mask[::-1], E)[::-1], down)


@pytest.mark.parametrize("lattice, radius", [
    (LatticeSpec.hypercubic(1), 1), (LatticeSpec.hypercubic(1), 2),
    (LatticeSpec.hypercubic(1), 3), (LatticeSpec.hypercubic(2), 1),
    (LatticeSpec.regular_tree(3), 1),
], ids=["z1-1", "z1-2", "z1-3", "z2-1", "tree3-1"])
def test_strassen_pair_arcs_carry_at_most_mu(lattice, radius):
    # the flow's bottleneck skips the pair arcs (capacity 2): each carries at
    # most mu(x) <= 1, since the source arc is the only arc into x
    ball = build_ball(lattice, radius)
    E = ball.n_edges
    for p in (0.2, 0.35, 0.5, 0.65, 0.8, 1.0):
        for h in (0.1, 0.5, 1.0):
            eps = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
            nu = conditional_measure(ball, p, h)
            for q in (p * (1.0 - eps), p, min(1.0, 1.3 * p), 0.0):
                mu = product_measure(ball, q)
                net = _StrassenFlow(mu.weights, nu.weights, E)
                net.max_flow()
                assert net.pairs
                for key, (forward, _) in net.pairs.items():
                    assert 2.0 - forward <= mu.weights[key >> E] + 1e-12


def test_trace_enumeration_cap():
    ball = build_ball(LatticeSpec.triangular(), 1)  # 12 edges > trace cap
    with pytest.raises(CapExceeded):
        list(reachable_traces(ball, CLUSTER_FIRST,
                              np.ones(1 << 12) / (1 << 12)))


def _failure_witness(ball):
    # q = 0.99 is far above the conditional law at p = h = 0.5
    cond = conditional_measure(ball, 0.5, 0.5)
    prod = product_measure(ball, 0.99)
    cert = strassen_dominates(prod, cond)
    assert not cert.dominates
    return cert, prod, cond


@pytest.mark.parametrize("ball_name", ["z1_ball2", "tree3_ball1"])
def test_failure_witness_matches_brute_force(ball_name, request):
    cert, prod, cond = _failure_witness(request.getfixturevalue(ball_name))
    event = cert.event_mask
    configs = range(1 << cert.n_edges)
    minimal = [c for c in configs if event[c] and not any(
        event[d] for d in configs if d & c == d and d != c)]
    assert certificate_to_json(cert)["event_min_elements"] == minimal
    closure = [any(c & m == m for m in minimal) for c in configs]
    assert event.tolist() == closure
    assert verify_certificate(cert, prod, cond)


def test_verify_certificate_rejects_bad_failure_witnesses(tree3_ball1):
    cert, prod, cond = _failure_witness(tree3_ball1)
    assert verify_certificate(cert, prod, cond)
    overstated = dataclasses.replace(cert, gap=cert.gap + 0.01)
    assert not verify_certificate(overstated, prod, cond)
    # {edge e closed} has lo - hi = 0.5 > gap but decreases along edge e, so
    # only the increasing-event check, made along every edge, rejects it
    hi = product_measure(tree3_ball1, 0.7)
    lo = product_measure(tree3_ball1, 0.2)
    cert = strassen_dominates(hi, lo)
    for e in range(tree3_ball1.n_edges):
        closed = (np.arange(1 << tree3_ball1.n_edges) >> e) & 1 == 0
        decreasing = dataclasses.replace(cert, event_mask=closed, gap=0.4)
        assert not verify_certificate(decreasing, lo, hi)


def test_verify_certificate_rejects_bad_couplings(tree3_ball1, z1_ball1):
    lo = product_measure(tree3_ball1, 0.4)
    hi = product_measure(tree3_ball1, 0.6)
    cert = strassen_dominates(lo, hi)
    assert verify_certificate(cert, lo, hi)
    assert not verify_certificate(cert, lo, lo)  # wrong second marginal
    assert not verify_certificate(cert, hi, hi)  # wrong first marginal
    # right marginals, but the pairs (1, 2) and (2, 1) are not ordered
    mu = product_measure(z1_ball1, 0.5)
    unordered = {(0, 0): 0.25, (1, 2): 0.25, (2, 1): 0.25, (3, 3): 0.25}
    swapped = dataclasses.replace(strassen_dominates(mu, mu), coupling=unordered)
    assert not verify_certificate(swapped, mu, mu)
