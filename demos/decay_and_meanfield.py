"""Subcritical tail decay and the reduced-parameter threshold check.

First: estimate the cluster-volume tail on the square lattice at p = 0.40
and fit log psi_n against n.  The weighted fit recovers a positive decay
rate with a tight confidence interval.  Second: verify that p(1 - m_h(p))
stays below the square lattice's exact bond threshold 1/2 across the
supercritical range, and probe that threshold with a crossing probability.
"""

from percolab import (
    LatticeSpec,
    crossing_probability,
    decay_fit,
    meanfield_verdict,
    psi_curve,
)

spec = LatticeSpec.hypercubic(2)

print("tail curve at p = 0.40 (50k samples):")
n_list = list(range(20, 121, 10))
curve = psi_curve(spec, 0.40, n_list, samples=50_000, rng_seed=3)
for n in n_list:
    est = curve[n]
    print(f"  n={n:3d}  psi={est.point:.5f}  [{est.lo:.5f}, {est.hi:.5f}]")
fit = decay_fit([(n, curve[n]) for n in n_list])
print(f"fit: psi_n ~ {fit.prefactor:.3f} * exp(-{fit.rate:.5f} n), "
      f"R^2 = {fit.r_squared:.4f}, rate CI [{fit.rate_lo:.5f}, {fit.rate_hi:.5f}]")

print("\nreduced parameter vs the exact threshold 1/2 (h = 0.05):")
rows = meanfield_verdict(spec, [0.55, 0.7, 0.9, 1.0], 0.05, samples=400, rng_seed=5)
for r in rows:
    print(f"  p={r['p']:.2f}  m in [{r['m_lo']:.4f}, {r['m_hi']:.4f}]  "
          f"q_upper={r['q_upper']:.4f}  {r['verdict']}")

probe = crossing_probability(0.5, 13, 12, samples=800, rng_seed=9)
print(f"\ncrossing probe at p = 1/2 on a 13x12 box: {probe.point:.3f} "
      f"[{probe.lo:.3f}, {probe.hi:.3f}] (duality says exactly 1/2)")
