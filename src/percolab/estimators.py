"""Monte Carlo estimation of cluster-volume tails and magnetization.

All estimators derive per-replicate randomness from (master seed,
experiment label, replicate index), so runs are reproducible regardless of
scheduling and different parameter values share uniforms replicate for
replicate.  Shared uniforms couple the runs monotonely: raising p can only
grow each replicate's cluster, so estimated tails and magnetizations are
pointwise monotone in p (and in h), not just up to noise.

Bernoulli frequencies carry Wilson score intervals, which stay honest at
the extreme frequencies exponential tails produce; the bounded
magnetization statistic carries a normal-approximation interval.  Verdict
logic always uses interval endpoints adversarially: PASS and FAIL both mean
something at the stated confidence, and MARGINAL is reported as its own
outcome, never folded into PASS.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from .core import _open_reach, check_cap, grow_sizes
# Unused here: perfbench/tracer.py wraps these two names, so they stay until
# the tracer changes with the benchmark.
from .core import grow_cluster_size, replicate_key  # noqa: F401
from .lattices import HYPERCUBIC, LatticeSpec
from .streams import derive_key, stream_random

EXP_PSI = 11
EXP_MAG = 12
EXP_CROSS = 13

# Every interval is two-sided at this level; Z is its standard normal quantile.
DEFAULT_CONFIDENCE = 0.999
Z = NormalDist().inv_cdf(0.5 + DEFAULT_CONFIDENCE / 2.0)

# The square lattice's exact bond threshold, and the slack meanfield_verdict
# allows q above it.
MEANFIELD_REFERENCE_PC = 0.5
MEANFIELD_TOLERANCE = 0.01

# Growth beyond this many multiples of 1/h changes 1 - e^{-h size} by less
# than 1e-15, i.e. below double precision of the estimate itself.  It stops
# at _MAX_MAGNETIZATION_CAP vertices all the same, which binds for h < 3.5e-4.
_SATURATION_LOG = -math.log(1e-15)
_MAX_MAGNETIZATION_CAP = 100_000


@dataclass(frozen=True)
class EstimateCI:
    """Point estimate with a two-sided confidence interval."""

    point: float
    lo: float
    hi: float
    samples: int
    truncated_fraction: float = 0.0


@dataclass(frozen=True)
class MagnetizationInterval:
    """Enclosure of the magnetization under size-capped sampling.

    ``lower`` scores a truncated run as 1 - e^{-h cap} (an underestimate),
    ``upper`` scores it as 1 (an overestimate); the truth lies between.
    """

    lower: EstimateCI
    upper: EstimateCI
    effective_cap: int


def wilson_interval(successes: int, samples: int):
    """Wilson score interval for a binomial proportion."""
    if samples <= 0:
        return 0.0, 1.0
    phat = successes / samples
    denom = 1.0 + Z * Z / samples
    center = (phat + Z * Z / (2 * samples)) / denom
    half = (Z / denom) * math.sqrt(phat * (1 - phat) / samples
                                   + Z * Z / (4 * samples * samples))
    # the exact endpoints are 0 and 1 at empty / full success counts
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == samples else min(1.0, center + half)
    return lo, hi


def _normal_ci(values: np.ndarray):
    n = len(values)
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    half = Z * sd / math.sqrt(n)
    return mean, max(0.0, mean - half), min(1.0, mean + half)


def _check_sampling(p, samples):
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if samples < 1:
        raise ValueError("samples must be at least 1")


def _collect_sizes(spec, p, cap, samples, rng_seed, experiment, threads=1):
    """Per-replicate cluster sizes (capped) and truncation flags from
    ``core.grow_sizes``, grown in at most ``threads`` blocks: one block runs
    here, more in a pool of one worker per block up to one per CPU, or here
    in turn when no process can start."""
    _check_sampling(p, samples)
    check_cap(spec, cap)
    grow = partial(grow_sizes, spec, p, cap, derive_key(rng_seed, experiment))
    blocks = _split_blocks(samples, threads)
    if len(blocks) == 1:
        return grow(0, samples)
    los, his = zip(*blocks)
    try:
        with ProcessPoolExecutor(max_workers=min(len(blocks), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(grow, los, his))
    except OSError:
        parts = list(map(grow, los, his))
    return np.concatenate([s for s, _ in parts]), np.concatenate([t for _, t in parts])


def _split_blocks(n, k):
    step = (n + k - 1) // k
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _n_values(n_list):
    """The distinct sizes in ``n_list``, increasing; there must be one."""
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list:
        raise ValueError("n_list names no size")
    return n_list


def psi_curve(spec: LatticeSpec, p: float, n_list, samples: int,
              rng_seed: int, threads: int = 1) -> dict:
    """Estimate psi_n = P(|origin cluster| >= n) for each n in ``n_list``.

    One batch is grown to max(n_list): each replicate's capped size decides
    {size >= n} exactly for every n up to the cap, so the batch yields a
    marginally valid Wilson interval at each n, keyed by n (the estimates
    share randomness across n).
    """
    n_list = _n_values(n_list)
    cap = max(max(n_list), 1)
    sizes, trunc = _collect_sizes(spec, p, cap, samples, rng_seed, EXP_PSI, threads)
    trunc_frac = float(trunc.mean())
    out = {}
    for n in n_list:
        successes = int((sizes >= n).sum())
        lo, hi = wilson_interval(successes, samples)
        out[n] = EstimateCI(successes / samples, lo, hi, samples, trunc_frac)
    return out


def estimate_magnetization(spec: LatticeSpec, p: float, h: float, samples: int,
                           rng_seed: int, threads: int = 1) -> MagnetizationInterval:
    """Two-sided magnetization estimate from capped cluster growth.

    Growth stops at min(100,000, ceil(-ln(1e-15) / h)) vertices: beyond ~35/h
    vertices the statistic 1 - e^{-h size} is within 1e-15 of 1, so stopping
    early leaves the lower field a valid underestimate and the upper field
    (truncated runs scored as 1) a valid overestimate, while keeping
    supercritical runs cheap.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if samples < 2:
        raise ValueError("a magnetization interval needs at least 2 samples")
    eff_cap = max(1, math.ceil(min(_MAX_MAGNETIZATION_CAP, _SATURATION_LOG / h)))
    sizes, trunc = _collect_sizes(spec, p, eff_cap, samples, rng_seed, EXP_MAG, threads)
    low_stat = -np.expm1(-h * sizes)
    up_stat = np.where(trunc, 1.0, low_stat)
    tf = float(trunc.mean())
    lower = EstimateCI(*_normal_ci(low_stat), samples, tf)
    upper = EstimateCI(*_normal_ci(up_stat), samples, tf)
    return MagnetizationInterval(lower, upper, eff_cap)


@dataclass(frozen=True)
class TailBoundReport:
    """Per-n verdicts for the ghost-tilted tail inequality
    psi_n(q) <= psi_n(p) e^{-h n} / (1 - m) with q = p (1 - m)."""

    p: float
    h: float
    samples: int
    magnetization: MagnetizationInterval
    q: float
    q_alt: float
    rows: tuple

    @property
    def verdicts(self):
        return tuple(r["verdict"] for r in self.rows)

    @property
    def failed(self) -> bool:
        return any(v == "FAIL" for v in self.verdicts)


def tail_bound_verdict(spec: LatticeSpec, p: float, h: float, n_list,
                       samples: int, rng_seed: int, threads: int = 1) -> TailBoundReport:
    """Monte Carlo check of the tail inequality, adversarial at both ends.

    The reduced parameter is set from the magnetization interval's low end
    (q = p(1 - m_lo) >= the true reduced parameter, inflating the left side)
    and the right side uses the tail estimate's upper bound and the
    magnetization's upper bound.  PASS means the inflated left side stays
    below that inflated right side; FAIL means the left interval lies
    entirely above it; anything straddling is MARGINAL.
    """
    n_list = _n_values(n_list)
    mag = estimate_magnetization(spec, p, h, samples, rng_seed, threads)
    m_lo = mag.lower.lo
    m_hi = min(mag.upper.hi, 1.0 - 1e-12)
    q = p * (1.0 - m_lo)
    q_alt = p * (1.0 - m_hi)
    psi_q = psi_curve(spec, q, n_list, samples, rng_seed, threads)
    psi_p = psi_curve(spec, p, n_list, samples, rng_seed, threads)
    rows = []
    for n in n_list:
        rhs = psi_p[n].hi * math.exp(-h * n) / (1.0 - m_hi)
        lhs = psi_q[n]
        if lhs.hi <= rhs:
            verdict = "PASS"
        elif lhs.lo > rhs:
            verdict = "FAIL"
        else:
            verdict = "MARGINAL"
        rows.append({"n": n, "lhs": lhs.point, "lhs_lo": lhs.lo,
                     "lhs_hi": lhs.hi, "psi_p": psi_p[n].point,
                     "psi_p_hi": psi_p[n].hi, "rhs": rhs, "verdict": verdict})
    return TailBoundReport(p, h, samples, mag, q, q_alt, tuple(rows))


@dataclass(frozen=True)
class DecayFit:
    """Weighted log-linear fit psi_n ~ C e^{-c n}."""

    rate: float
    prefactor: float
    r_squared: float
    rate_se: float
    rate_lo: float
    rate_hi: float
    points_used: int


def decay_fit(psi_table) -> DecayFit:
    """Fit log(point) against n by least squares weighted from CI widths.

    ``psi_table`` is a sequence of (n, EstimateCI); entries with point 0 are
    dropped; at least five positive entries are required.
    """
    pts = [(int(n), est) for n, est in psi_table if est.point > 0.0]
    if len(pts) < 5:
        raise ValueError("decay fit needs at least 5 entries with positive point")
    x = np.array([n for n, _ in pts], dtype=float)
    y = np.log(np.array([est.point for _, est in pts]))
    widths = np.array([
        (math.log(est.hi) - math.log(est.lo)) / (2 * Z)
        if est.lo > 0.0 and est.hi > est.lo else 0.0
        for _, est in pts
    ])
    w = 1.0 / np.maximum(widths, 1e-12) ** 2
    sw = w.sum()
    xb = float((w * x).sum() / sw)
    yb = float((w * y).sum() / sw)
    sxx = float((w * (x - xb) ** 2).sum())
    slope = float((w * (x - xb) * (y - yb)).sum() / sxx)
    intercept = yb - slope * xb
    resid = y - (intercept + slope * x)
    ss_res = float((w * resid ** 2).sum())
    ss_tot = float((w * (y - yb) ** 2).sum())
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    se = math.sqrt(1.0 / sxx)
    rate = -slope
    return DecayFit(rate, math.exp(intercept), r2, se,
                    rate - Z * se, rate + Z * se, len(pts))


def meanfield_verdict(spec: LatticeSpec, p_list, h: float, samples: int,
                      rng_seed: int, threads: int = 1) -> list:
    """Check q = p(1 - m_h(p)) against the square lattice's known threshold.

    Only supports the two-dimensional hypercubic lattice, whose bond
    threshold 1/2 is an externally known exact value.  The verdict uses the
    adversarially large q (magnetization interval's low end): PASS iff that
    q stays below MEANFIELD_REFERENCE_PC + MEANFIELD_TOLERANCE.
    """
    if spec.family != HYPERCUBIC or spec.dimension != 2:
        raise ValueError("reference threshold is wired in for hypercubic d=2 only")
    for p in p_list:
        _check_sampling(p, samples)
    rows = []
    for p in p_list:
        mag = estimate_magnetization(spec, p, h, samples, rng_seed, threads)
        q_upper = p * (1.0 - mag.lower.lo)
        q_lower = p * (1.0 - mag.upper.hi)
        verdict = ("PASS" if q_upper <= MEANFIELD_REFERENCE_PC + MEANFIELD_TOLERANCE
                   else "FAIL")
        rows.append({"p": p, "m_lo": mag.lower.lo, "m_hi": mag.upper.hi,
                     "q_upper": q_upper, "q_lower": q_lower,
                     "truncated_fraction": mag.lower.truncated_fraction,
                     "verdict": verdict})
    return rows


def crossing_probability(p: float, nx: int, ny: int, samples: int,
                         rng_seed: int) -> EstimateCI:
    """Left-right open crossing probability of an nx-by-ny vertex box.

    Bond percolation on the square grid; by duality, an (n+1)-by-n box
    crosses the long way with probability exactly 1/2 at p = 1/2, which
    makes this a cheap probe of the wired-in reference threshold.
    """
    if nx < 2 or ny < 1:
        raise ValueError("box must be at least 2 x 1 vertices")
    _check_sampling(p, samples)
    # Vertex (i, j) is i * ny + j; each replicate's uniforms hold the
    # horizontal edges, then the vertical ones, both in row-major order.
    n_h = (nx - 1) * ny
    edges = [(v, v + ny) for v in range(n_h)]
    edges += [(v, v + 1) for v in range(nx * ny) if (v + 1) % ny]
    incidence = [[] for _ in range(nx * ny)]
    for e, (a, b) in enumerate(edges):
        incidence[a].append((e, b))
        incidence[b].append((e, a))
    successes = 0
    for rep in range(samples):
        config = (stream_random(rng_seed, EXP_CROSS, rep, size=len(edges)) < p).tolist()
        if not _open_reach(incidence, range(ny), config).isdisjoint(range(n_h, nx * ny)):
            successes += 1
    lo, hi = wilson_interval(successes, samples)
    return EstimateCI(successes / samples, lo, hi, samples)
