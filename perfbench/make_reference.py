"""Record the reference output digests the benchmark gates on.

Runs one untraced iteration of every workload for each seed in
``run.REFERENCE_SEEDS`` and writes ``perfbench/reference.json``.  It refuses to
write when any iteration fails its scientific checks.  Regenerate only when
a change moves seeded outputs on purpose, and say why in that change.

    python3 perfbench/make_reference.py
"""

import json
import shutil
import sys

import run


def main():
    run._import_program()
    import workloads
    reference = {}
    problems = []
    work = run.STATE_DIR / "reference-work"
    for workload in workloads.WORKLOADS:
        reference[workload.name] = {}
        for seed in run.REFERENCE_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            it = workloads.run_iteration(workload, seed, str(work))
            problems.extend(f"{workload.name} seed {seed}: {p}" for p in it.problems)
            reference[workload.name][str(seed)] = it.digests
            print(f"{workload.name} seed {seed}: {it.wall_s:.2f}s "
                  f"{len(it.digests)} files", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.BENCH_DIR / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
