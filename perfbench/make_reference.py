#!/usr/bin/env python3
"""Record the committed correctness reference of a workload.

    python3 perfbench/make_reference.py --workload fig3c --seeds 0-15

For each seed, runs one untraced invocation exactly as run.py does, requires
it to pass the seed-independent checks, and stores the exit status and the
per-entry digest (report.csv row, trajectory.csv header, row count and
per-column fingerprint) in perfbench/reference/<workload>.json, keeping the
seeds already recorded there. Regenerate only when the program's outputs are
meant to change.
"""

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-15 or 0,3,7")
    args = parser.parse_args(argv)
    run.prepare_process()
    import checks
    from cohsync import cli

    path = checks.REFERENCE_DIR / f"{args.workload}.json"
    if path.exists():
        with open(path) as fh:
            reference = json.load(fh)
    else:
        reference = {"workload": args.workload, "seeds": {}}
    reference["tolerance"] = checks.TOLERANCE

    workdir = run.WORK / f"reference-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for seed in args.seeds:
            job = run.Job(args.workload, seed, workdir)
            expected = job.expected(job.build(cli))
            outdir = workdir / f"out{seed}"
            code, wall, *_ = run.invoke(job.command(outdir, workdir / "peak_rss"), workdir / "log.txt", run.RUN_LIMIT_S)
            problems, observed = checks.check_invocation(job.verb, code, outdir, expected)
            if any(problems):
                print(f"seed {seed}: refusing to record: {problems}", file=sys.stderr)
                return 1
            reference["seeds"][str(seed)] = observed
            shutil.rmtree(outdir)
            print(f"{args.workload} seed {seed}: exit {code}, {len(expected)} entries, {wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    seeds = sorted(reference.pop("seeds").items(), key=lambda kv: int(kv[0]))
    with open(path, "w") as fh:  # one line per seed
        fh.write(json.dumps(reference, sort_keys=True)[:-1] + ', "seeds": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in seeds))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
