"""Acceptance suite: one test per criterion, one printed verdict line each.

Exact criteria run on every ball in {line n<=3, square n=1, 3-tree n<=2}
over the (p, h) grid {0.2, 0.5, 0.8} x {0.1, 0.5, 1.0}; Monte Carlo criteria
run on the square lattice with fixed seeds.  Run with ``pytest -s`` to see
the verdict lines on passing runs.
"""

import math
import time

import numpy as np
import pytest

from percolab.cli import main as cli_main
from percolab.coupling import couple_sequential, domination_margin, exhaustive_order_check
from percolab.estimators import (
    decay_fit,
    meanfield_verdict,
    psi_curve,
    tail_bound_verdict,
)
from percolab.exact import (
    conditional_measure,
    exact_magnetization,
    fkg_sweep,
    magnetization_bound,
    make_conditional_oracle,
    max_conditional_pivotal,
    product_measure,
    psi_table,
    strassen_dominates,
    verify_certificate,
)
from percolab.exploration import CLUSTER_FIRST
from percolab.lattices import GraphBall, LatticeSpec, build_ball
from percolab.streams import derive_key
from reference import estimate_psi_on_ball

P_GRID = (0.2, 0.5, 0.8)
H_GRID = (0.1, 0.5, 1.0)


def _test_balls():
    z1 = LatticeSpec.hypercubic(1)
    z2 = LatticeSpec.hypercubic(2)
    tree3 = LatticeSpec.regular_tree(3)
    balls = [(f"line n={n}", build_ball(z1, n)) for n in (1, 2, 3)]
    balls.append(("square n=1", build_ball(z2, 1)))
    balls.extend((f"3-tree n={n}", build_ball(tree3, n)) for n in (1, 2))
    assert all(ball.n_edges <= 10 for _, ball in balls)
    return balls


def _verdict(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_exact_domination_certificates():
    t0 = time.time()
    checked = 0
    for name, ball in _test_balls():
        for p in P_GRID:
            for h in H_GRID:
                eps = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
                m_hat = magnetization_bound(ball, p, h)
                assert eps <= m_hat + 1e-12, (name, p, h)
                mu = product_measure(ball, p * (1.0 - eps))
                nu = conditional_measure(ball, p, h)
                cert = strassen_dominates(mu, nu)
                assert cert.dominates, (name, p, h)
                assert cert.flow >= 1.0 - 1e-9, (name, p, h)
                assert verify_certificate(cert, mu, nu), (name, p, h)
                # finite-ball form with the magnetization bound in place of eps*
                mu_hat = product_measure(ball, p * (1.0 - m_hat))
                cert_hat = strassen_dominates(mu_hat, nu)
                assert cert_hat.dominates, (name, p, h)
                assert verify_certificate(cert_hat, mu_hat, nu), (name, p, h)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _verdict(1, True, f"{checked} domination certificates verified "
                      f"(flow tolerance 1e-9) in {elapsed:.1f}s")


def test_criterion_2_conditional_open_probability_floor():
    worst = 1e9
    for name, ball in _test_balls():
        for p in P_GRID:
            for h in H_GRID:
                eps = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
                oracle = make_conditional_oracle(ball, CLUSTER_FIRST, p, h)
                target = conditional_measure(ball, p, h)
                margin = domination_margin(ball, CLUSTER_FIRST, oracle, target)
                slack = margin - p * (1.0 - eps)
                worst = min(worst, slack)
                assert margin >= p * (1.0 - eps) - 1e-12, (name, p, h)
                # pointwise P(e open | A, F) = p(1 - P(e pivotal, closed | A, F))
                assert abs(slack) <= 1e-12, (name, p, h)
    _verdict(2, True, f"min conditional open probability >= p(1-eps*) on the "
                      f"whole grid (worst slack {worst:.3e}, tolerance 1e-12)")


def test_criterion_3_exact_tail_inequality():
    worst = 1e9
    count = 0
    for name, ball in _test_balls():
        for p in P_GRID:
            for h in H_GRID:
                m = exact_magnetization(ball, p, h)
                q = p * (1.0 - m)
                for (n, lhs), (_, psi_p) in zip(psi_table(ball, q), psi_table(ball, p)):
                    rhs = psi_p * math.exp(-h * n) / (1.0 - m)
                    worst = min(worst, rhs - lhs)
                    assert lhs <= rhs + 1e-12, (name, p, h, n)
                    count += 1
    _verdict(3, True, f"{count} exact tail comparisons hold "
                      f"(worst slack {worst:.3e}, tolerance 1e-12)")


def test_criterion_4_fkg_step_ordering():
    count = 0
    worst = 1e9
    for name, ball in _test_balls():
        for p in P_GRID:
            for h in H_GRID:
                for row in fkg_sweep(ball, CLUSTER_FIRST, p, h):
                    worst = min(worst, row["rhs"] - row["lhs"])
                    assert row["lhs"] <= row["rhs"] + 1e-12, (name, p, h, row)
                    count += 1
    _verdict(4, True, f"{count} Harris-FKG steps ordered lhs <= rhs "
                      f"(worst slack {worst:.3e}, tolerance 1e-12)")


@pytest.mark.slow
def test_criterion_5_coupling_correctness():
    p, h = 0.5, 0.5
    z1 = LatticeSpec.hypercubic(1)
    z2 = LatticeSpec.hypercubic(2)
    tree3 = LatticeSpec.regular_tree(3)
    balls = [("line n=2", build_ball(z1, 2)),
             ("square n=1", build_ball(z2, 1)),
             ("3-tree n=1", build_ball(tree3, 1))]
    assert all(ball.n_edges <= 8 for _, ball in balls)
    details = []
    for name, ball in balls:
        eps = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
        q = p * (1.0 - eps)
        oracle = make_conditional_oracle(ball, CLUSTER_FIRST, p, h)
        cond = conditional_measure(ball, p, h)
        assert exhaustive_order_check(ball, CLUSTER_FIRST, q, oracle, cond) == []
        violations = 0
        counts = np.zeros(1 << ball.n_edges)
        for seed in range(100_000):
            pair = couple_sequential(ball, CLUSTER_FIRST, q, oracle, seed)
            if seed < 10_000:
                violations += len(pair.violations)
            idx = 0
            for e, b in enumerate(pair.upper):
                idx |= int(b) << e
            counts[idx] += 1
        assert violations == 0, name
        tv = 0.5 * float(np.abs(counts / 100_000 - cond.weights).sum())
        assert tv <= 0.01, (name, tv)
        details.append(f"{name} TV={tv:.4f}")
    _verdict(5, True, "zero order violations (1e4 seeds + exhaustive); "
                      "upper-marginal TV at 1e5 seeds: " + ", ".join(details))


@pytest.mark.slow
def test_criterion_6_monte_carlo_tail_bound_square():
    t0 = time.time()
    spec = LatticeSpec.hypercubic(2)
    report = tail_bound_verdict(spec, 0.45, 0.1, list(range(10, 101, 10)),
                                samples=100_000, rng_seed=20240801)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert not report.failed, report.rows
    tally = {v: report.verdicts.count(v) for v in ("PASS", "MARGINAL", "FAIL")}
    _verdict(6, True, f"no FAIL at p=0.45, h=0.1, n=10..100, 1e5 samples "
                      f"({tally['PASS']} PASS, {tally['MARGINAL']} MARGINAL) "
                      f"in {elapsed:.0f}s (budget 600s)")


@pytest.mark.slow
def test_criterion_7_meanfield_reduced_parameter():
    spec = LatticeSpec.hypercubic(2)
    rows = meanfield_verdict(spec, [0.55, 0.6, 0.7, 0.8, 0.9, 1.0], 0.05,
                             samples=2_000, rng_seed=4242)
    worst = max(r["q_upper"] for r in rows)
    for r in rows:
        assert r["verdict"] == "PASS", r
        assert r["q_upper"] <= 0.5 + 0.01, r
    _verdict(7, True, f"q upper bound <= 0.51 for all p (worst {worst:.4f}; "
                      f"reference threshold 1/2, h=0.05, growth cap 691)")


@pytest.mark.slow
def test_criterion_8_exponential_decay_fit():
    t0 = time.time()
    spec = LatticeSpec.hypercubic(2)
    n_list = list(range(20, 121, 10))
    curve = psi_curve(spec, 0.40, n_list, samples=1_000_000, rng_seed=11)
    fit = decay_fit([(n, curve[n]) for n in n_list])
    elapsed = time.time() - t0
    assert fit.r_squared >= 0.99, fit
    assert fit.rate > 0.0, fit
    assert fit.rate_lo > 0.0, fit
    _verdict(8, True, f"log-linear fit R^2={fit.r_squared:.4f} >= 0.99, "
                      f"c={fit.rate:.5f} with CI [{fit.rate_lo:.5f}, "
                      f"{fit.rate_hi:.5f}] excluding 0 ({elapsed:.0f}s)")


def test_criterion_9_calibration_and_reproducibility(tmp_path):
    # interval coverage on the single-edge ball, where the tail is exactly p
    ball = GraphBall(LatticeSpec.hypercubic(1), 1, [(0,), (1,)], [(0, 1)], [0, 1])
    p = 0.3
    trials = 1000
    covered = 0
    for t in range(trials):
        est = estimate_psi_on_ball(ball, p, 2, samples=500,
                                   rng_seed=derive_key(31337, t))
        covered += est.lo <= p <= est.hi
    coverage = covered / trials
    assert coverage >= 0.995, coverage

    # identical manifests reproduce byte-identical outputs
    args = ["verify-domination", "--lattice", "z1", "--radius", "2",
            "--seed", "7"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    payload1 = (out1 / "domination_report.json").read_bytes()
    payload2 = (out2 / "domination_report.json").read_bytes()
    assert payload1 == payload2
    _verdict(9, True, f"interval coverage {coverage:.3f} >= 0.995 over "
                      f"{trials} meta-trials; CLI reruns byte-identical")
