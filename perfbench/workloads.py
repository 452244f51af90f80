"""The benchmark's workloads: parameters, rationale, and one timed iteration.

Every workload drives percolab only through ``percolab.cli.main`` and public
library functions, in one process, as a closed loop of one client: each
command starts after the previous one returns.  The workload seed reaches the
program only through ``--seed`` and ``rng_seed``.

An iteration writes its outputs under a fresh directory, is timed from the
first command to the last return, and is then digested and checked outside
the timed region.
"""

import csv
import hashlib
import json
import os
import resource
import time
import traceback
from dataclasses import dataclass, field

import percolab.cli
import percolab.coupling
import percolab.exact
import percolab.lattices
from percolab.exploration import CLUSTER_FIRST
from percolab.streams import derive_key

# Label of the stream that turns a workload seed into coupling seeds.
_COUPLE_SEED_PATH = 1

ACCEPTANCE_BALLS = (("z1", 1), ("z1", 2), ("z1", 3), ("z2", 1),
                    ("tree3", 1), ("tree3", 2))
CRITERION5_BALLS = (("z1", 2), ("z2", 1), ("tree3", 1))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind selects how an iteration runs ("decay", "meanfield" or "exact");
    params holds every size and parameter, so a smaller copy runs the same
    code.
    """

    name: str
    kind: str
    why: str
    rationale: str
    params: dict = field(default_factory=dict)

    @property
    def balls(self):
        """(lattice, radius) of every finite ball the workload builds."""
        if self.kind != "exact":
            return ()
        return tuple(dict.fromkeys(tuple(b) for b in
                                   self.params["balls"] + self.params["couple_balls"]))

    @property
    def input_size(self):
        """Replicates per iteration and, for exact work, ball edge counts."""
        if self.kind == "decay":
            return {"replicates": sum(r["samples"] for r in self.params["runs"])}
        if self.kind == "meanfield":
            n_p = len(self.params["p"].split(","))
            return {"replicates": self.params["samples"] * n_p, "p_values": n_p}
        lat = percolab.cli.LATTICES
        edges = {f"{l}:{r}": percolab.lattices.build_ball(lat[l], r).n_edges
                 for l, r in self.balls}
        return {"replicates": self.params["couple_seeds"] * len(self.params["couple_balls"]),
                "ball_edges": edges}


WORKLOADS = (
    Workload(
        "decay-z2", "decay",
        "subcritical decay fit on z2 at p=0.40: many small clusters, so the z2 growth "
        "kernel and its inlined keyed uniforms are nearly all the time",
        "The README's headline command (acceptance criterion 8) scaled down. Clusters "
        "are small (mean capped size about 30, about 6% truncated at 120), so "
        "per-replicate overhead and the growth kernel dominate and the exact layer is "
        "idle. This is the workload a z2 batch kernel or cheaper edge keys target.",
        {"runs": [{"lattice": "z2", "p": 0.40, "n_max": 120, "samples": 10_000}]},
    ),
    Workload(
        "decay-lattices", "decay",
        "the same decay fit on tri, z3 and tree3: the growth layer through the other "
        "offset tables and the tree kernel, which a z2-only kernel must leave flat",
        "Decay fits on the triangular and cubic offset tables and on the separate "
        "regular-tree kernel, at subcritical p. A z2-only batch kernel skips all "
        "three, so the prediction there is no change; a one-kernel merge must hold "
        "them flat.",
        {"runs": [{"lattice": "tri", "p": 0.30, "n_max": 120, "samples": 2_000},
                  {"lattice": "z3", "p": 0.20, "n_max": 120, "samples": 4_000},
                  {"lattice": "tree3", "p": 0.45, "n_max": 120, "samples": 10_000}]},
    ),
    Workload(
        "meanfield-z2-mp", "meanfield",
        "supercritical magnetization on z2 with a 2-worker pool: clusters of about "
        "700 vertices and the only workload that runs the estimators' process pool",
        "Acceptance criterion 7 with fewer samples. Most replicates reach the "
        "effective cap of 691 at h=0.05, the opposite use of the growth kernel from "
        "the decay workloads, and one process pool is created for every p.",
        {"lattice": "z2", "p": "0.55,0.6,0.7,0.8,0.9,1.0", "h": "0.05",
         "samples": 200, "threads": 2},
    ),
    Workload(
        "exact-certify", "exact",
        "exact certificates on the six acceptance balls plus seeded sequential "
        "couplings: the exact, exploration and coupling layers with no lazy growth",
        "verify-domination on every acceptance ball at the four corners of the "
        "default 3x3 (p, h) grid (the 3-tree n=2 ball dominates: FKG sweep and "
        "Dinic flow), then exhaustive_order_check and couple_sequential over "
        "seeded runs on the criterion-5 balls at p=h=0.5. The corners, not the "
        "whole grid, keep an iteration near 3 s, so a run gets enough iterations "
        "for a steady median.",
        {"balls": [list(b) for b in ACCEPTANCE_BALLS],
         "p": "0.2,0.8", "h": "0.1,1.0",
         "couple_balls": [list(b) for b in CRITERION5_BALLS],
         "couple_p": 0.5, "couple_h": 0.5, "couple_seeds": 4_000},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    wall_s: float
    cpu_s: float
    replicates: int
    replicate_s: float
    digests: dict
    problems: list
    output_bytes: int


def _cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def commands(workload, seed):
    """(label, argv without --out) for every CLI command of one iteration."""
    p = workload.params
    s = str(seed)
    if workload.kind == "decay":
        return [(f"decay.{r['lattice']}",
                 ["decay", "--lattice", r["lattice"], "--p", repr(r["p"]),
                  "--n-max", str(r["n_max"]), "--samples", str(r["samples"]),
                  "--seed", s])
                for r in p["runs"]]
    if workload.kind == "meanfield":
        return [(f"meanfield.{p['lattice']}",
                 ["meanfield", "--lattice", p["lattice"], "--p", p["p"],
                  "--h", p["h"], "--samples", str(p["samples"]),
                  "--threads", str(p["threads"]), "--seed", s])]
    return [(f"verify-domination.{lat}.r{r}",
             ["verify-domination", "--lattice", lat, "--radius", str(r),
              "--p", p["p"], "--h", p["h"], "--seed", s])
            for lat, r in p["balls"]]


def _call_cli(argv, tracer):
    """One CLI command; an exception counts as a failed command."""
    try:
        if tracer is None:
            return percolab.cli.main(argv)
        with tracer.span("cli.command." + argv[0]):
            return percolab.cli.main(argv)
    except Exception:  # the loop must go on; the failure is counted
        traceback.print_exc()
        return -1


def _coupling_phase(workload, seed, out_dir):
    """exhaustive_order_check and seeded couple_sequential runs.

    Calls go through module attributes so the tracer's wrappers see them.
    Returns the time spent in the seeded runs and the number of runs.
    """
    p = workload.params
    pp, hh = p["couple_p"], p["couple_h"]
    seeds = [derive_key(seed, _COUPLE_SEED_PATH, j) for j in range(p["couple_seeds"])]
    exact, coupling = percolab.exact, percolab.coupling
    report = []
    run_s = 0.0
    for lat, r in p["couple_balls"]:
        ball = percolab.lattices.build_ball(percolab.cli.LATTICES[lat], r)
        eps = exact.max_conditional_pivotal(ball, CLUSTER_FIRST, pp, hh)
        q = pp * (1.0 - eps)
        oracle = exact.make_conditional_oracle(ball, CLUSTER_FIRST, pp, hh)
        cond = exact.conditional_measure(ball, pp, hh)
        bad = coupling.exhaustive_order_check(ball, CLUSTER_FIRST, q, oracle, cond)
        counts = [0] * (1 << ball.n_edges)
        violations = 0
        t0 = time.perf_counter()
        for rng_seed in seeds:
            pair = coupling.couple_sequential(ball, CLUSTER_FIRST, q, oracle, rng_seed)
            violations += len(pair.violations)
            counts[sum(int(b) << e for e, b in enumerate(pair.upper))] += 1
        run_s += time.perf_counter() - t0
        report.append({"ball": f"{lat}:{r}", "q": q, "order_violations": len(bad),
                       "violations": violations, "upper_counts": counts})
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "coupling.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return run_s, len(seeds) * len(p["couple_balls"])


def run_iteration(workload, seed, out_dir, tracer=None):
    """Run one iteration, time it, then digest and check its outputs."""
    problems = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for label, argv in commands(workload, seed):
        rc = _call_cli(argv + ["--out", os.path.join(out_dir, label)], tracer)
        if rc != 0:
            problems.append(f"{label}: exit code {rc}")
    if workload.kind == "exact":
        try:
            replicate_s, replicates = _coupling_phase(
                workload, seed, os.path.join(out_dir, "coupling"))
        except Exception:  # counted as a failed iteration
            traceback.print_exc()
            problems.append("coupling phase raised")
            replicate_s, replicates = 0.0, 0
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if workload.kind != "exact":
        replicates, replicate_s = workload.input_size["replicates"], wall
    digests, output_bytes = digest_tree(out_dir)
    problems.extend(verdict_problems(workload, out_dir))
    return Iteration(wall, cpu, replicates, replicate_s, digests, problems,
                     output_bytes)


def digest_tree(out_dir):
    """SHA-256 of every output file except manifest.json, and total bytes.

    Manifests carry timestamps, so they are sized but not digested.
    """
    digests = {}
    total = 0
    for dirpath, _dirs, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            total += os.path.getsize(path)
            if name != "manifest.json":
                with open(path, "rb") as fh:
                    rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items())), total


def verdict_problems(workload, out_dir):
    """Scientific checks that hold on every seed; [] when all pass."""
    problems = []
    try:
        if workload.kind == "decay":
            for label, _ in commands(workload, 0):
                with open(os.path.join(out_dir, label, "decay_fit.json")) as fh:
                    fit = json.load(fh)
                if not fit["rate_lo"] > 0.0:
                    problems.append(f"{label}: rate_lo {fit['rate_lo']} is not > 0")
        elif workload.kind == "meanfield":
            for label, _ in commands(workload, 0):
                with open(os.path.join(out_dir, label, "meanfield.csv"), newline="") as fh:
                    rows = list(csv.DictReader(fh))
                if not rows or any(r["verdict"] != "PASS" for r in rows):
                    problems.append(f"{label}: not every meanfield row is PASS")
        else:
            for label, _ in commands(workload, 0):
                with open(os.path.join(out_dir, label, "domination_report.json")) as fh:
                    if json.load(fh)["ok"] is not True:
                        problems.append(f"{label}: domination report not ok")
            with open(os.path.join(out_dir, "coupling", "coupling.json")) as fh:
                for ball in json.load(fh):
                    if ball["violations"] or ball["order_violations"]:
                        problems.append(f"coupling {ball['ball']}: order violations")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"missing or malformed output: {exc!r}")
    return problems
