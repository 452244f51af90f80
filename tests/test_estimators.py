import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import percolab.estimators
from percolab.core import MAX_CLUSTER_CAP, replicate_key
from percolab.errors import CapExceeded
from percolab.estimators import (
    DEFAULT_CONFIDENCE,
    EXP_PSI,
    Z,
    EstimateCI,
    _collect_sizes,
    crossing_probability,
    decay_fit,
    estimate_magnetization,
    meanfield_verdict,
    psi_curve,
    tail_bound_verdict,
    wilson_interval,
)
from percolab.exact import psi_table
from percolab.lattices import LatticeSpec, build_ball
from reference import estimate_psi_on_ball, grow_depth_first, tree_cluster_law


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 500), st.integers(1, 500))
def test_wilson_interval_bounds(k, n):
    if k > n:
        k = n
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.15
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and lo > 0.85


def test_estimate_psi_trivial(z1, z2):
    est = psi_curve(z2, 0.37, [1], 200, rng_seed=1)[1]
    assert est.point == 1.0 and est.hi == pytest.approx(1.0)
    est = psi_curve(z2, 0.0, [2], 200, rng_seed=1)[2]
    assert est.point == 0.0 and est.lo == 0.0


def test_estimate_psi_z1_exact_value(z1):
    # P(|cluster| >= 2) = 1 - (1-p)^2 = 3/4 on the line at p = 1/2
    est = psi_curve(z1, 0.5, [2], 100_000, rng_seed=7)[2]
    assert est.lo <= 0.75 <= est.hi


def test_psi_monotone_in_n_and_p(z2):
    curve = psi_curve(z2, 0.4, [2, 5, 10, 20], 4000, rng_seed=5)
    points = [curve[n].point for n in (2, 5, 10, 20)]
    assert points == sorted(points, reverse=True)
    # shared replicate keys couple the runs: monotone in p pointwise
    lo = psi_curve(z2, 0.35, [10], 4000, rng_seed=5)[10]
    hi = psi_curve(z2, 0.45, [10], 4000, rng_seed=5)[10]
    assert lo.point <= hi.point


def test_magnetization_p_zero(z2):
    h = 0.8
    mag = estimate_magnetization(z2, 0.0, h, samples=500, rng_seed=3)
    truth = 1 - math.exp(-h)
    assert mag.lower.point == pytest.approx(truth, abs=1e-12)
    assert mag.upper.point == pytest.approx(truth, abs=1e-12)
    assert mag.lower.truncated_fraction == 0.0


def test_magnetization_large_h_bounds(z2):
    mag = estimate_magnetization(z2, 0.3, 20.0, samples=300, rng_seed=9)
    assert 1 - math.exp(-20.0) <= mag.lower.point <= 1.0
    assert mag.lower.point <= mag.upper.point


def test_magnetization_gap_bound(z2):
    # upper - lower == truncated_fraction * e^{-h * effective cap}, exactly
    # where growth stops at the saturation size ceil(-ln(1e-15) / h)
    mag = estimate_magnetization(z2, 0.7, 0.05, samples=300, rng_seed=4)
    gap = mag.upper.point - mag.lower.point
    bound = mag.lower.truncated_fraction * math.exp(-0.05 * mag.effective_cap)
    assert gap == pytest.approx(bound, abs=1e-12)
    assert mag.effective_cap == math.ceil(-math.log(1e-15) / 0.05) == 691


@pytest.mark.parametrize("h", [3e-4, 1e-320])
def test_magnetization_growth_stops_at_100000_below_saturation(z2, h):
    # -ln(1e-15) / h exceeds 100,000 here; at 1e-320 it overflows to inf
    mag = estimate_magnetization(z2, 0.0, h, samples=4, rng_seed=0)
    assert mag.effective_cap == 100_000
    assert mag.lower.point == pytest.approx(-math.expm1(-h), rel=1e-9)


def test_magnetization_needs_two_samples(z2):
    # one draw has no spread, so its interval would have zero width
    with pytest.raises(ValueError, match="at least 2 samples"):
        estimate_magnetization(z2, 0.5, 0.1, samples=1, rng_seed=0)


def test_magnetization_monotone_in_p_and_h(z2):
    # common random numbers: the coupled estimates are ordered pointwise
    m1 = estimate_magnetization(z2, 0.30, 0.2, 400, rng_seed=8)
    m2 = estimate_magnetization(z2, 0.45, 0.2, 400, rng_seed=8)
    assert m1.lower.point <= m2.lower.point + 1e-12
    m3 = estimate_magnetization(z2, 0.30, 0.4, 400, rng_seed=8)
    assert m1.lower.point <= m3.lower.point + 1e-12


def test_decay_fit_exact_exponential():
    table = [(n, EstimateCI(0.8 * math.exp(-0.1 * n),
                            0.8 * math.exp(-0.1 * n),
                            0.8 * math.exp(-0.1 * n), 1000))
             for n in range(10, 80, 10)]
    fit = decay_fit(table)
    assert fit.rate == pytest.approx(0.1, abs=1e-9)
    assert fit.prefactor == pytest.approx(0.8, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_decay_fit_constant_input():
    table = [(n, EstimateCI(0.5, 0.49, 0.51, 1000)) for n in range(10, 80, 10)]
    fit = decay_fit(table)
    assert fit.rate == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_needs_five_points():
    table = [(n, EstimateCI(0.5, 0.4, 0.6, 100)) for n in (1, 2, 3)]
    with pytest.raises(ValueError):
        decay_fit(table)
    zeros = [(n, EstimateCI(0.0, 0.0, 0.1, 100)) for n in range(10)]
    with pytest.raises(ValueError):
        decay_fit(zeros)


def test_tail_bound_verdict_never_fails_on_line(z1):
    # the line is subcritical at every p < 1, and n = 1 exercises the
    # boundary case where the inequality reduces to m >= 1 - e^{-h}
    report = tail_bound_verdict(z1, 0.3, 0.3, [1, 2, 5, 10], 2000, rng_seed=6)
    assert not report.failed
    assert report.q <= 0.3
    assert report.rows[0]["n"] == 1
    assert report.magnetization.upper.hi >= 1 - math.exp(-0.3) - 0.05


def test_tail_bound_tiny_h_near_identity(z2):
    # h -> 0: the right side approaches psi_n(p) and q approaches p
    report = tail_bound_verdict(z2, 0.25, 0.01, [2, 5, 10], 2000, rng_seed=6)
    assert not report.failed
    assert report.q >= 0.2


def test_empty_n_list_is_rejected_before_any_growth(z2, monkeypatch):
    # an empty list would check nothing, and the tail bound would pass
    def no_growth(*args):
        raise AssertionError("grew a cluster")
    monkeypatch.setattr(percolab.estimators, "grow_sizes", no_growth)
    with pytest.raises(ValueError, match="n_list"):
        psi_curve(z2, 0.4, [], 100, rng_seed=1)
    with pytest.raises(ValueError, match="n_list"):
        tail_bound_verdict(z2, 0.4, 0.1, [], 100, rng_seed=1)


def test_cap_is_checked_before_any_pool_starts(z2, pool_sizes):
    # a cap past the budget fails here, not once in every worker
    with pytest.raises(CapExceeded):
        psi_curve(z2, 0.4, [MAX_CLUSTER_CAP + 10], 10, rng_seed=0, threads=2)
    with pytest.raises(ValueError, match="cap"):
        _collect_sizes(z2, 0.4, 0, 10, 0, EXP_PSI, threads=2)
    assert pool_sizes == []


@pytest.mark.parametrize("samples", [581, 1])
def test_collected_blocks_match_scalar_growth(z2, pool_sizes, samples):
    # the second of two blocks starts at replicate 291, off the batch
    # kernel's 273-replicate chunks at cap 120, and keeps each replicate's
    # key; one replicate is one block, grown here with no pool
    sizes, trunc = _collect_sizes(z2, 0.45, 120, samples, 3, EXP_PSI, threads=2)
    grown = (grow_depth_first(z2, 0.45, 120, replicate_key(3, EXP_PSI, rep))
             for rep in range(samples))
    scalar = [(len(keys), t) for keys, t in grown]
    assert [(int(s), bool(t)) for s, t in zip(sizes, trunc)] == scalar
    assert pool_sizes == ([2] if samples > 1 else [])


def test_growth_kernel_by_lattice(z2, monkeypatch, pool_sizes):
    # z2 grows in batches; hypercubic(4), whose edge keys alias mod 2^64, is
    # refused before any replicate grows or any pool starts
    def no_growth(*args):
        raise AssertionError("grew a cluster")
    z4 = LatticeSpec.hypercubic(4)
    assert psi_curve(z2, 0.4, [1, 5], 50, rng_seed=1)[1].point == 1.0
    monkeypatch.setattr(percolab.estimators, "grow_sizes", no_growth)
    with pytest.raises(CapExceeded, match="key encoding range"):
        psi_curve(z4, 0.1, [5], 50, rng_seed=1, threads=2)
    with pytest.raises(CapExceeded, match="key encoding range"):
        estimate_magnetization(z4, 0.1, 0.05, 50, rng_seed=1, threads=2)
    assert pool_sizes == []


def test_pool_starts_one_worker_per_block(z2, monkeypatch, pool_sizes):
    # fork starts every worker on the first submit, so an idle one is a
    # wasted process; four CPUs leave the block count the only bound
    monkeypatch.setattr(percolab.estimators.os, "cpu_count", lambda: 4)
    serial = psi_curve(z2, 0.4, [1, 3], 3, rng_seed=2)
    assert psi_curve(z2, 0.4, [1, 3], 3, rng_seed=2, threads=8) == serial
    assert psi_curve(z2, 0.4, [1, 3], 3, rng_seed=2, threads=2) == serial
    # one replicate is one block, which runs here with no pool at all
    serial = psi_curve(z2, 0.4, [1, 3], 1, rng_seed=2)
    assert psi_curve(z2, 0.4, [1, 3], 1, rng_seed=2, threads=2) == serial
    assert pool_sizes == [3, 2]


@pytest.mark.parametrize("cpus, workers", [(2, 2), (1, 1), (None, 1)])
def test_pool_starts_at_most_one_worker_per_cpu(z2, monkeypatch, pool_sizes, cpus,
                                                workers):
    # a large --threads keeps its blocks, and so its outputs, but starts no
    # more CPU-bound workers than there are CPUs; an unknown count means one
    monkeypatch.setattr(percolab.estimators.os, "cpu_count", lambda: cpus)
    serial = psi_curve(z2, 0.4, [1, 3], 64, rng_seed=2)
    assert psi_curve(z2, 0.4, [1, 3], 64, rng_seed=2, threads=64) == serial
    assert pool_sizes == [workers]


def test_meanfield_requires_z2(z1):
    with pytest.raises(ValueError):
        meanfield_verdict(z1, [0.5], 0.05, 50, rng_seed=1)


def test_meanfield_checks_every_p_before_any_growth(z2, monkeypatch):
    def no_growth(*args):
        raise AssertionError("grew a cluster")
    monkeypatch.setattr(percolab.estimators, "grow_sizes", no_growth)
    with pytest.raises(ValueError, match="p must lie"):
        meanfield_verdict(z2, [0.6, 1.5], 0.05, 50, rng_seed=1)


def test_meanfield_trivial_endpoints(z2):
    rows = meanfield_verdict(z2, [0.0, 1.0], 0.05, samples=60, rng_seed=2)
    assert all(r["verdict"] == "PASS" for r in rows)
    assert rows[0]["q_upper"] == 0.0
    assert rows[1]["q_upper"] < 0.05  # p = 1: magnetization is essentially 1


def test_crossing_probe_at_reference_threshold():
    # (n+1) x n box crosses the long way with probability exactly 1/2 at p = 1/2
    est = crossing_probability(0.5, 13, 12, 600, rng_seed=11)
    assert est.lo <= 0.5 <= est.hi


@pytest.mark.parametrize("args, successes", [
    ((0.5, 13, 12, 800, 9), 413),  # the demo's call
    ((0.5, 2, 1, 300, 1), 153),
    ((0.9, 5, 1, 300, 2), 196),
    ((0.3, 3, 7, 300, 3), 174),
])
def test_crossing_probe_is_pinned(args, successes):
    # literal counts pin how each replicate's uniforms map onto the box's
    # edges; one-row boxes have no vertical edge
    est = crossing_probability(*args)
    assert est.point == successes / args[3]
    assert (est.lo, est.hi) == wilson_interval(successes, args[3])


@pytest.mark.parametrize("p, point", [(0.0, 0.0), (1.0, 1.0)])
def test_crossing_probe_at_the_trivial_p(p, point):
    assert crossing_probability(p, 4, 4, 50, rng_seed=5).point == point


@pytest.mark.parametrize("p, samples", [(1.7, 10), (-0.1, 10), (0.5, 0)])
def test_crossing_probe_rejects_bad_p_and_samples(p, samples):
    # the same checks as the cluster estimators, not a clipped p or a
    # division by zero
    with pytest.raises(ValueError):
        crossing_probability(p, 3, 2, samples, rng_seed=0)


def test_estimate_psi_on_ball_single_edge(single_edge_ball):
    est = estimate_psi_on_ball(single_edge_ball, 0.3, 2, 2000, rng_seed=3)
    assert est.lo <= 0.3 <= est.hi


def test_z_value_matches_gaussian():
    assert DEFAULT_CONFIDENCE == 0.999
    assert Z == pytest.approx(3.2905267314919255, abs=1e-9)


# The exact cluster-size law on the 3-regular tree (p_c = 1/2) as an oracle.

def test_tree_law_mass_and_mean():
    # subcritical: no mass is missing, and E|C| = 1 + d p / (1 - (d - 1) p)
    law = tree_cluster_law(3, 0.45, 20_000)
    assert abs(float(law.sum()) - 1.0) < 1e-12
    assert float(law @ np.arange(len(law))) == pytest.approx(14.5, rel=1e-12)


def test_tree_law_missing_mass_is_theta():
    # eta = (1 - p + p eta)^2 has the root 4/9 at p = 0.6, so the cluster is
    # infinite with probability 1 - (1 - p + p eta)^3 = 19/27
    law = tree_cluster_law(3, 0.6, 20_000)
    assert abs(1.0 - float(law.sum()) - 19 / 27) < 1e-12


def test_tree_law_matches_the_exact_ball(tree3):
    # a cluster of s <= R vertices and its boundary edges lie in the radius-R ball
    law = tree_cluster_law(3, 0.45, 2)
    psi = dict(psi_table(build_ball(tree3, 2), 0.45))
    for n in (2, 3):
        assert psi[n] == pytest.approx(1.0 - float(law[:n].sum()), abs=1e-14)


def test_tree_psi_curve_covers_the_exact_law(tree3):
    law = tree_cluster_law(3, 0.45, 120)
    curve = psi_curve(tree3, 0.45, range(20, 121, 10), 20_000, rng_seed=0)
    assert len(curve) == 11
    for n, est in curve.items():
        assert est.lo <= 1.0 - float(law[:n].sum()) <= est.hi


@pytest.mark.parametrize("p, h", [
    (0.45, 0.05),
    pytest.param(0.6, 0.05, marks=pytest.mark.slow),
    pytest.param(0.9, 0.05, marks=pytest.mark.slow),
    (0.3, 0.5),
])
def test_tree_magnetization_covers_the_exact_law(tree3, p, h):
    # an infinite cluster always meets a green vertex, so m = 1 - E[e^{-h |C|}; |C| < inf]
    law = tree_cluster_law(3, p, 2_000)
    exact = 1.0 - float(law @ np.exp(-h * np.arange(len(law))))
    est = estimate_magnetization(tree3, p, h, 2_000, rng_seed=4242)
    assert est.lower.lo <= exact <= est.upper.hi


def _tree3_psi(p, s_max=20_000):
    """psi_n = P(|C| >= n) on the 3-regular tree for n = 0 .. s_max, summed
    from the top of the law, not as 1 - P(|C| < n), which cancels in deep
    tails; theta = 1 - ((1 - p) / p)^3 is the infinite cluster's mass."""
    law = tree_cluster_law(3, p, s_max)
    theta = max(0.0, 1.0 - ((1.0 - p) / p) ** 3)
    return law, np.cumsum(law[::-1])[::-1] + theta, theta


@pytest.mark.parametrize("p", [0.2, 0.3, 0.45, 0.6, 0.9])
def test_tail_inequality_holds_exactly_on_the_tree(p):
    # psi_n(q) <= psi_n(p) e^{-h n} / (1 - m) with q = p (1 - m), where an
    # infinite cluster always meets a green vertex; at p = 1/2 the law cut
    # at s_max misses mass of order s_max^{-1/2}, so it is left out
    law, psi_p, theta = _tree3_psi(p)
    n = np.arange(1, 150)
    for h in (0.01, 0.1, 1.0):
        m = float(law @ -np.expm1(-h * np.arange(len(law)))) + theta
        psi_q = _tree3_psi(p * (1.0 - m))[1]
        ratio = psi_q[n] / (psi_p[n] * np.exp(-h * n) / (1.0 - m))
        assert ratio.max() <= 1.0, (p, h, int(n[ratio.argmax()]))


@pytest.mark.slow
def test_tree_psi_curve_coverage_over_many_seeds(tree3):
    # each interval misses with probability 1e-3; even at twice that rate,
    # more than 4 misses in 300 seeds has probability about 4e-4
    psi = _tree3_psi(0.45)[1]
    ns = (5, 20, 60, 120)
    misses = dict.fromkeys(ns, 0)
    for seed in range(300):
        for n, est in psi_curve(tree3, 0.45, ns, 2_000, rng_seed=seed).items():
            misses[n] += not est.lo <= psi[n] <= est.hi
    assert max(misses.values()) <= 4, misses
