#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

    python3 perfbench/selftest.py

Runs sweep8 once at seed 1 and checks its outputs three ways:
against the seed-1 reference (no entry may fail), against the checks that
hold for any seed (none may fail), and as if they were the outputs asked for
at seed 0 (every entry must fail, and the reference comparison alone must
already flag each one). Exits 0 when all three hold.
"""

import shutil
import sys

import run

WORKLOAD = "sweep8"


def main():
    run.prepare_process()
    import checks
    from cohsync import cli

    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = {}
        for seed in (0, 1):  # each job writes its own sweep config
            (workdir / f"seed{seed}").mkdir()
            jobs[seed] = run.Job(WORKLOAD, seed, workdir / f"seed{seed}")
        expected = {seed: job.expected(job.build(cli)) for seed, job in jobs.items()}
        reference = {seed: checks.load_reference(WORKLOAD, seed) for seed in jobs}
        if None in reference.values():
            print(f"selftest: {WORKLOAD} needs committed references for seeds 0 and 1", file=sys.stderr)
            return 1
        outdir = workdir / "out"
        code, *_ = run.invoke(jobs[1].command(outdir, workdir / "peak_rss"), workdir / "log.txt", run.RUN_LIMIT_S)

        def fail_ratio(expected_entries, ref):
            problems, observed = checks.check_invocation(jobs[1].verb, code, outdir, expected_entries, ref)
            return sum(1 for p in problems if p) / len(problems), observed

        same, observed = fail_ratio(expected[1], reference[1])
        fallback, _ = fail_ratio(expected[1], None)
        other, _ = fail_ratio(expected[0], reference[0])
        flagged = [bool(p) for p in checks.compare_with_reference(observed, reference[0])]
        print(f"seed-1 outputs vs seed-1 reference: fail_ratio {same}")
        print(f"seed-1 outputs vs seed-independent checks: fail_ratio {fallback}")
        print(f"seed-1 outputs vs seed-0 request and reference: fail_ratio {other}")
        print(f"entries the seed-0 reference comparison alone flags: {sum(flagged)} of {len(flagged)}")
        ok = same == 0 and fallback == 0 and other == 1 and all(flagged)
        print("selftest " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
