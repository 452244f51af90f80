"""Grow origin clusters lazily on the infinite lattice.

The grower reveals each incident edge once with a fresh Bernoulli(p) value,
so no ball is ever built; a cap bounds the work and marks runs that hit it.
Because edge uniforms are keyed by (seed, edge), the same seed at a larger p
grows a superset cluster: the runs are coupled monotonely.
"""

import collections

from percolab import LatticeSpec, lazy_cluster

z2 = LatticeSpec.hypercubic(2)

print("one subcritical cluster at p = 0.45:")
res = lazy_cluster(z2, 0.45, cap=500, rng_seed=12)
print(f"  size {res.size}, truncated={res.truncated}, "
      f"farthest member {max(sum(map(abs, v)) for v in res.members)} steps out")

print("\nsame seed across p: nested clusters (common random numbers)")
for p in (0.30, 0.40, 0.50, 0.60):
    res = lazy_cluster(z2, p, cap=2000, rng_seed=12)
    print(f"  p={p:.2f}: size {res.size:5d}  truncated={res.truncated}")

print("\nsize histogram at p = 0.40 (200 seeds, cap 200):")
hist = collections.Counter()
for seed in range(200):
    size = lazy_cluster(z2, 0.40, cap=200, rng_seed=seed).size
    hist[min(size, 50) // 10 * 10] += 1
for bucket in sorted(hist):
    label = f"{bucket:3d}-{bucket + 9:3d}" if bucket < 50 else "  50+  "
    print(f"  {label}: {'#' * hist[bucket]}")

# on the line the law is fully explicit: P(size >= 2) = 1 - (1-p)^2
z1 = LatticeSpec.hypercubic(1)
n, hits = 20_000, 0
for seed in range(n):
    hits += lazy_cluster(z1, 0.5, cap=2, rng_seed=seed).size >= 2
print(f"\nline at p=1/2: P(size >= 2) = {hits / n:.4f} (exact 0.75)")
