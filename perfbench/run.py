"""percolab benchmark: end-to-end timings, output-digest gates, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decay-z2 --seed 0 --seconds 28 --trace 0

The run repeats rounds while another round fits in ``--seconds`` seconds.  A
round is one iteration of the workload and then one fresh interpreter's
set-up.  With ``--trace 0`` tracing is off and the run reports the end-to-end
metrics: median wall, CPU, replicate throughput and set-up time, and peak
RSS.  With ``--trace 1`` it spends half the time untraced and half traced,
and reports the per-layer metrics plus the tracing overhead.  Either way every
iteration's output files are digested: they must match each other, the
untraced and traced iterations must match, and on a seed listed in
``reference.json`` they must match the recorded digests.  The scientific
verdicts (exit 0, decay rate_lo > 0, every meanfield row PASS, no coupling
order violation) are checked on every seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A detailed report
(quartiles, sample counts, environment, digests, span table) is written under
``.perfbench/results/`` in the checkout.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"

# Seeds whose output digests reference.json records.
REFERENCE_SEEDS = range(16)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("replicates_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# A fresh interpreter imports the CLI and builds the workload's balls.
_SETUP_PROBE = """
import sys
import percolab.cli
from percolab.lattices import build_ball
for item in sys.argv[1:]:
    lattice, radius = item.split(":")
    build_ball(percolab.cli.LATTICES[lattice], int(radius))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def _import_program():
    """Import percolab from this checkout's src/, or explain why not."""
    if not (SRC / "percolab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no percolab sources under {SRC}; run it "
                         "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import percolab
    if SRC.resolve() not in Path(percolab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported percolab from {percolab.__file__}, "
                         f"not from {SRC}")


def environment():
    """Where and with what the numbers were measured."""
    import numpy
    import scipy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "machine": platform.machine(),
    }


def measure(workload, seed, seconds, work_dir, tracer, first_run=0):
    """Closed loop of rounds, at least one, while another round as long as
    the last still ends within ``seconds``; returns the iterations and the
    set-up seconds.

    Each round runs one iteration and then times one fresh interpreter's
    set-up, so the set-up samples are as many as the iterations and come
    from the same stretch of time.
    """
    import workloads
    iterations, setup_times = [], []
    start = time.perf_counter()
    with tracer.installed():
        while True:
            t0 = time.perf_counter()
            tracer.run = first_run + len(iterations)
            out = os.path.join(work_dir, f"it{tracer.run}")
            it = workloads.run_iteration(workload, seed, out,
                                         tracer if tracer.spans_on else None)
            tracer.add("cli.output_bytes", it.output_bytes)
            shutil.rmtree(out, ignore_errors=True)
            iterations.append(it)
            setup_times.append(measure_setup(workload, it.problems))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return iterations, setup_times


def measure_setup(workload, problems):
    """Wall seconds of one fresh interpreter's set-up; a failure is
    appended to ``problems``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    balls = [f"{lat}:{r}" for lat, r in workload.balls]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, *balls],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        problems.append("setup probe timed out")
    else:
        if proc.returncode != 0:
            problems.append("setup probe failed: "
                            + proc.stderr.decode(errors="replace")[-500:])
    return time.perf_counter() - t0


def keyed_uniform_ns(calls=50_000, repeats=5):
    """Median ns per ``keyed_uniform`` call with a fixed replicate key."""
    import percolab.streams
    fn = percolab.streams.keyed_uniform
    rkey = percolab.streams.derive_key(0, 1)
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for ekey in range(calls):
            fn(rkey, ekey)
        per_call.append((time.perf_counter() - t0) / calls * 1e9)
    return statistics.median(per_call)


def _load_reference(name, seed):
    if seed not in REFERENCE_SEEDS:
        return None
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)[name][str(seed)]


def check_outputs(iterations, reference):
    """Mark iterations whose digests differ from the reference, or from the
    first iteration when the seed has no reference; return failed count."""
    expected = reference if reference is not None else iterations[0].digests
    failed = 0
    for k, it in enumerate(iterations):
        if it.digests != expected:
            what = "reference.json" if reference is not None else "iteration 0"
            changed = sorted(set(it.digests.items()) ^ set(expected.items()))
            it.problems.append(f"iteration {k}: output digests differ from {what}: "
                               f"{sorted({name for name, _ in changed})}")
        failed += bool(it.problems)
    return failed


def _summary(values, unit):
    """Median with quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def run_benchmark(workload, seed, seconds, trace):
    """One benchmark run; returns (result line dict, detailed report dict)."""
    import tracer as tracing
    STATE_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    work_dir = STATE_DIR / f"work-{tag}-{os.getpid()}"
    try:
        timed_tracer = tracing.Tracer(spans=False)
        budget = seconds / 2 if trace else seconds
        timed, setup_times = measure(workload, seed, budget, work_dir, timed_tracer)
        traced, traced_tracer = [], None
        if trace:
            traced_tracer = tracing.Tracer(spans=True)
            traced, _ = measure(workload, seed, budget, work_dir, traced_tracer,
                                first_run=len(timed))
        # Pool workers' peak is read in the pool wrapper, because the
        # children's rusage would also hold the set-up probes'.
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      timed_tracer.pool_peak_rss_kb)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    iterations = timed + traced
    failed = check_outputs(iterations, _load_reference(workload.name, seed))
    problems = [p for it in iterations for p in it.problems]

    walls = [it.wall_s for it in timed]
    if trace:
        runs = range(len(timed), len(iterations))
        costs = tracing.wrapper_costs()
        per_run = [traced_tracer.layer_metrics(r, costs) for r in runs]
        values = {name: [m[name] for m in per_run] for name in per_run[0]}
        values["streams.keyed_uniform_ns"] = [keyed_uniform_ns()]
        values["trace.wall_s"] = [it.wall_s for it in traced]
        values["trace.overhead"] = [statistics.median(values["trace.wall_s"])
                                    / statistics.median(walls)]
        metrics = tracing.PER_LAYER
    else:
        values = {
            "wall_s": walls,
            "setup_s": setup_times,
            "replicates_per_s": [it.replicates / it.replicate_s if it.replicate_s else 0.0
                                 for it in timed],
            "cpu_s": [it.cpu_s for it in timed],
            "peak_rss_mb": [peak_kb / 1024.0],
        }
        metrics = END_TO_END
    detail = {name: _summary(values[name], unit) for name, unit in metrics}

    pool = {"attempts": timed_tracer.total("estimators.pool_attempts"),
            "sessions": timed_tracer.total("estimators.pool_sessions")}
    env = environment()
    env["pool"] = dict(pool, ran=pool["sessions"] > 0,
                       fell_back=pool["attempts"] > pool["sessions"])
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload.why, "rationale": workload.rationale,
        "params": workload.params, "input_size": workload.input_size,
        "environment": env,
        "iterations": {"timed": len(timed), "traced": len(traced),
                       "first_wall_s": walls[0]},
        "failed_fraction": failed / len(iterations),
        "problems": problems,
        "digests": iterations[0].digests,
        "metrics": detail,
    }
    if trace:
        report["spans"] = traced_tracer.span_table()
        # One spans file per workload, overwritten by each traced run.
        spans_path = STATE_DIR / "results" / f"{workload.name}.spans.csv.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        traced_tracer.write_spans(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": not problems,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in detail.items()},
    }
    return result, report


def main(argv=None):
    args = _parse_args(argv)
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    if args.workload not in workloads.BY_NAME:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose "
                         f"from {sorted(workloads.BY_NAME)}")
    workload = workloads.BY_NAME[args.workload]
    result, report = run_benchmark(workload, args.seed, args.seconds, args.trace)

    path = STATE_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    env = report["environment"]
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"iterations={report['iterations']} pool={env['pool']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} start={env['start_method']} sha={env['git_sha']}")
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']:6s} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] n={m['n']}")
    for problem in report["problems"]:
        print(f"PROBLEM {problem}")
    print(f"# failed_fraction={report['failed_fraction']} report={path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
