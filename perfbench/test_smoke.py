"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that each
metric BENCHMARK.json names is emitted with its unit, that the run is judged
correct, and that every wrapper is gone afterwards.  From the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# A seed with no recorded reference, so tiny outputs are checked by verdicts.
SEED = 987_654_321

TINY = {
    "decay-z2": {"runs": [
        {"lattice": "z2", "p": 0.40, "n_max": 60, "samples": 1000}]},
    "decay-lattices": {"runs": [
        {"lattice": "tri", "p": 0.30, "n_max": 60, "samples": 1000},
        {"lattice": "z3", "p": 0.20, "n_max": 60, "samples": 1000},
        {"lattice": "tree3", "p": 0.45, "n_max": 60, "samples": 1000}]},
    "meanfield-z2-mp": {"p": "0.8,1.0", "samples": 20},
    "exact-certify": {"balls": [["z1", 1], ["z2", 1]], "p": "0.5", "h": "0.5",
                      "couple_balls": [["z1", 2]], "couple_seeds": 20},
}

# Every (owner, attribute) the tracer may replace.
TARGETS = [t for targets in tracer.WRAPPED.values() for t in targets] + [tracer.POOL_ATTR]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)
    assert set(TINY) == set(workloads.BY_NAME)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert reference.keys() == workloads.BY_NAME.keys()
    assert all(set(seeds) == {str(s) for s in run.REFERENCE_SEEDS}
               for seeds in reference.values())
    assert SEED not in run.REFERENCE_SEEDS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, trace):
    before = {target: getattr(*target) for target in TARGETS}
    full = workloads.BY_NAME[name]
    workload = dataclasses.replace(full, params={**full.params, **TINY[name]})
    result, report = run.run_benchmark(workload, SEED, 0, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert report["environment"]["pool"]["ran"] == (name == "meanfield-z2-mp")

    after = {target: getattr(*target) for target in TARGETS}
    assert all(after[t] is before[t] for t in before)


def test_summary_is_median_with_quartiles():
    assert run._summary([4.0, 1.0, 3.0, 2.0, 5.0], "s") == \
        {"value": 3.0, "unit": "s", "q1": 1.5, "q3": 4.5, "n": 5}
    assert run._summary([2.0], "s") == {"value": 2.0, "unit": "s", "q1": 2.0, "q3": 2.0, "n": 1}


def _iterations(*digests):
    return [workloads.Iteration(1.0, 1.0, 1, 1.0, {"a.csv": d * 64}, [], 1)
            for d in digests]


def test_digest_mismatch_fails_the_iteration():
    assert run.check_outputs(_iterations("0", "1", "0"), None) == 1
    assert run.check_outputs(_iterations("0", "1", "0"), {"a.csv": "1" * 64}) == 2
    assert run.check_outputs(_iterations("0", "0"), {"a.csv": "0" * 64}) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-z2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrapper_costs_are_positive():
    plain_s, grow_s = tracer.wrapper_costs()
    assert 0 < plain_s < 1e-3 and 0 < grow_s < 1e-3
