import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import percolab.estimators
from percolab.estimators import (
    DEFAULT_CONFIDENCE,
    Z,
    EstimateCI,
    crossing_probability,
    decay_fit,
    estimate_magnetization,
    meanfield_verdict,
    psi_curve,
    tail_bound_verdict,
    wilson_interval,
)
from percolab.exact import psi_table
from percolab.lattices import build_ball
from reference import estimate_psi_on_ball, tree_cluster_law


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
    monkeypatch.setattr(percolab.estimators, "grow_cluster_size", no_growth)
    with pytest.raises(ValueError, match="n_list"):
        psi_curve(z2, 0.4, [], 100, rng_seed=1)
    with pytest.raises(ValueError, match="n_list"):
        tail_bound_verdict(z2, 0.4, 0.1, [], 100, rng_seed=1)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every pool the estimators open.  The stand-in
    runs the blocks serially here and starts no process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(percolab.estimators, "ProcessPoolExecutor", SerialPool)
    return sizes


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
