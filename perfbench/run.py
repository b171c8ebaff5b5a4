#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cohsync CLI.

    python3 perfbench/run.py --workload fig3c --seed 0 --seconds 40 --trace 0

Each measured invocation is one fresh `cohsync run` or `cohsync sweep`
process, started one at a time from this process, with its artifacts
checked against the committed reference (see checks.py). With --trace 0 the
invocations repeat for --seconds and the end-to-end metrics are reported;
with --trace 1 pairs of untraced and traced (traced_cli.py) invocations
repeat for --seconds and give the per-layer metrics and the tracing
overhead. `--workload all` runs every workload in turn. Metric names and
units come from BENCHMARK.json. Progress and metric lines go to stdout; the
last line is the JSON result.
"""

import argparse
import copy
import functools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

# NumPy's OpenBLAS is threaded (MAX_THREADS=64). One thread, which is at or
# below any machine's nproc, keeps timings steady on a shared machine: at
# 121 agents the products are too small to split, and on fractal601 (8 s
# horizon, 2 vCPUs) a second thread bought 20% of wall time for 50% more
# CPU time.
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# set-up is timed in chunks of about this many seconds between invocations,
# so that its median spans the run as the invocations do: on a shared
# virtual machine CPU speed drifts by tens of percent over seconds to minutes
SETUP_CHUNK_S = 0.3
# calibration_kernel() does CALIBRATION_STEPS RK4 steps, in about
# CALIBRATION_REF_S of CPU time at the reference speed: about its median on
# the 2-vCPU Xeon VM where the benchmark was written. Each timing is scaled by
# CALIBRATION_REF_S over the median kernel time measured alongside it, which
# cancels the drift of the machine's speed.
CALIBRATION_STEPS = 8
CALIBRATION_REF_S = 0.0013
PROBE_INTERVAL_S = 0.1

# workload -> (verb, config source as the CLI sees it from the checkout root)
WORKLOADS = {
    "fig3c": ("run", "fig3c"),
    "fractal601": ("run", "perfbench/fractal601.yaml"),
    "sweep8": ("sweep", "perfbench/sweep8.yaml"),
}
SWEEP_D = (0.5, 0.2)
SWEEP_SEEDS_PER_D = 4


def sweep_overrides(seed):
    """The sweep entries generated from the benchmark seed."""
    return [
        {"integration": {"seed": SWEEP_SEEDS_PER_D * seed + k}, "protocol": {"d": d}}
        for d in SWEEP_D
        for k in range(SWEEP_SEEDS_PER_D)
    ]


def deep_merge(base, override):
    """How `cohsync sweep` lays an entry over the base config.

    A copy of the CLI's private helper, so that the benchmark relies only on
    the public load_config, normalize_config and build_experiment.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class Job:
    """One workload at one seed: the CLI arguments and what each entry must show."""

    def __init__(self, workload, seed, workdir):
        self.seed = seed
        self.verb, source = WORKLOADS[workload]
        if self.verb == "run":
            self.source = source
            self.args = [self.verb, source, "--seed", str(seed)]
            self.seeds = [seed]
        else:
            with open(ROOT / source) as fh:
                config = yaml.safe_load(fh)
            config["sweep"] = sweep_overrides(seed)
            path = workdir / f"{workload}.yaml"
            with open(path, "w") as fh:
                yaml.safe_dump(config, fh, sort_keys=True)
            self.source = str(path.relative_to(ROOT))
            self.args = [self.verb, self.source]
            self.seeds = [entry["integration"]["seed"] for entry in config["sweep"]]

    def build(self, cli):
        """load_config -> normalize_config -> build_experiment for every entry, as the CLI does."""
        source = str(ROOT / self.source) if (ROOT / self.source).is_file() else self.source
        raw, name = cli.load_config(source)
        norm = cli.normalize_config(raw, name)
        entries = norm.pop("sweep", None)
        if self.verb == "run":
            norm["integration"]["seed"] = self.seed  # what --seed does
            return [cli.build_experiment(norm)[0]]
        base = {k: v for k, v in raw.items() if k != "sweep"}
        cfgs = []
        for idx, overrides in enumerate(entries):
            entry = cli.normalize_config(deep_merge(base, overrides), f"{name}_{idx:02d}")
            entry.pop("sweep", None)
            cfgs.append(cli.build_experiment(entry)[0])
        return cfgs

    def command(self, outdir, report_path, traced=False):
        """argv of one invocation; the child writes its peak RSS, or its trace stats, to report_path."""
        child = HERE / ("traced_cli.py" if traced else "plain_cli.py")
        return [sys.executable, str(child), str(report_path)] + self.args + ["--out", str(outdir)]

    def expected(self, cfgs):
        stem = Path(self.source).stem
        out = []
        for idx, (cfg, seed) in enumerate(zip(cfgs, self.seeds)):
            steps = int(round(cfg.t_end / cfg.dt))
            out.append({
                "dir": "." if self.verb == "run" else f"{stem}_{idx:02d}",
                "seed": seed,
                "d": cfg.params.spec.d,
                "agents": cfg.graph.n_nodes,
                "steps": steps,
                "samples": len(range(0, steps, int(cfg.record_every))) + 1,
            })
        return out


def child_env():
    env = dict(os.environ)
    env.pop("COHSYNC_OUT", None)
    env.update(
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def invoke(argv, log_path, limit_s):
    """Run one process to completion; returns (exit code, wall s, CPU s, probe CPU times).

    The CPU time is the child's user plus system time from wait4. While the
    child runs, this process wakes every PROBE_INTERVAL_S and times one
    calibration_kernel() call on the same CPU, which samples the speed the
    machine gives the child as it drifts.
    """
    probes = []
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    status = None
    try:
        while not select.select([pidfd], [], [], PROBE_INTERVAL_S)[0] or not probes:
            if time.perf_counter() - t0 > limit_s:
                proc.kill()
            c0 = time.process_time()
            calibration_kernel()
            probes.append(time.process_time() - c0)
        wall = time.perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
        if status is None:  # interrupted: stop the child and reap it
            proc.kill()
            os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, probes


@functools.cache
def _calibration_state():
    import numpy as np

    rng = np.random.default_rng(0)
    M = rng.standard_normal((121, 121)) / 121
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
    return M, A, rng.standard_normal((121, 3))


def calibration_kernel():
    """Fixed work shaped like the CLI's: RK4 steps of small NumPy products, then CSV text.

    It uses NumPy only, so no change to cohsync moves it; what moves it is
    the speed the machine gives this process.
    """
    import numpy as np

    M, A, x = _calibration_state()
    g, h = np.ones(len(x)), 1e-3

    def f(x, g):
        z = M @ x
        r = np.einsum("ij,ij->i", z, z)
        return x @ A.T - g[:, None] * z + np.sin(0.1 * g)[:, None], np.where(r > 0.5, r, 0.0)

    for _ in range(CALIBRATION_STEPS):
        k1, r1 = f(x, g)
        k2, r2 = f(x + 0.5 * h * k1, g + 0.5 * h * r1)
        k3, r3 = f(x + 0.5 * h * k2, g + 0.5 * h * r2)
        k4, r4 = f(x + h * k3, g + h * r3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        g = g + h / 6 * (r1 + 2 * r2 + 2 * r3 + r4)
    return len(",".join(repr(float(v)) for v in x[:20].ravel()))


def time_setup(job, cli, cpu_times, ref_times):
    """Repeat the set-up for about SETUP_CHUNK_S, at least once, each time after one calibration_kernel().

    Appends each set-up's CPU time, and the same scaled to the reference
    speed by the kernel's CPU time just before it.
    """
    start = time.perf_counter()
    while True:
        c0 = time.process_time()
        calibration_kernel()
        c1 = time.process_time()
        job.build(cli)
        c2 = time.process_time()
        cpu_times.append(c2 - c1)
        ref_times.append((c2 - c1) * CALIBRATION_REF_S / (c1 - c0))
        if time.perf_counter() - start >= SETUP_CHUNK_S:
            return


def zeta_microbenchmark(cfg):
    """Median µs per protocol.zeta(L, x) call at the workload's size, timed in isolation."""
    import numpy as np
    from cohsync import graph, protocol

    L = graph.laplacian(cfg.graph)
    x = np.random.default_rng(0).standard_normal((cfg.graph.n_nodes, cfg.model.n))

    def block(number):
        t0 = time.perf_counter()
        for _ in range(number):
            protocol.zeta(L, x)
        return time.perf_counter() - t0

    number = 1
    while block(number) < 0.02:
        number *= 2
    return 1e6 * statistics.median(block(number) for _ in range(7)) / number


def layer_metrics(stats, verb, zeta_us, overhead_s, untraced_wall_s):
    fns, extra = stats["functions"], stats["extra"]

    def total(name):
        return fns.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def us_per_call(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    steps, samples = extra["steps"], extra["samples"]
    simulate_self = total("sim.simulate") - fns.get("sim.simulate", {}).get("child_s", 0.0)
    return {
        "cli.import_s": stats["import_s"],
        "cli.normalize_config_s": total("cli.normalize_config"),
        "cli.build_experiment_s": total("cli.build_experiment"),
        "cli.sweep_entries": calls("sim.simulate") if verb == "sweep" else 0,
        "graph.build_s": total("graph.vicsek_fractal"),
        "graph.spanning_tree_s": total("sim.has_directed_spanning_tree"),
        "graph.zeta_us": zeta_us,
        # computed, not counted: simulate forms L @ x once per RK4 stage and once per sample
        "graph.zeta_calls": 4 * steps + samples,
        "linalg.solve_care_s": total("linalg.solve_care"),
        "linalg.solve_care_calls": calls("linalg.solve_care"),
        "protocol.gain_rates_calls": calls("sim.gain_rates"),
        "protocol.gain_rates_us": us_per_call("sim.gain_rates"),
        "protocol.control_all_calls": calls("sim.control_all"),
        "protocol.control_all_us": us_per_call("sim.control_all"),
        "protocol.active_fraction": extra["active_agent_stages"] / max(extra["agent_stages"], 1),
        "signals.evaluate_all_calls": calls("signals.evaluate_all"),
        "signals.evaluate_all_us": us_per_call("signals.evaluate_all"),
        "sim.steps": steps,
        "sim.samples": samples,
        "sim.simulate_s": total("sim.simulate"),
        "sim.step_us": 1e6 * total("sim.simulate") / max(steps, 1),
        "sim.self_us_per_step": 1e6 * simulate_self / max(steps, 1),
        "sim.trajectory_mb": extra["trajectory_bytes_max"] / 2**20,
        "sim.write_trajectory_csv_s": total("sim.write_trajectory_csv"),
        "sim.csv_mb": extra["csv_bytes"] / 2**20,
        "analysis.summarize_s": total("analysis.summarize"),
        "trace.overhead_s": overhead_s,
        "trace.untraced_wall_s": untraced_wall_s,
    }


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            sha = out.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "openblas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_workload(workload, seed, seconds, trace, deadline):
    """Measure one workload; returns (metrics, attempted, failed)."""
    import checks
    from cohsync import cli

    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        job = Job(workload, seed, workdir)
        cfgs = job.build(cli)  # also warms up lazy imports and first-touch allocations
        expected = job.expected(cfgs)
        reference = checks.load_reference(workload, seed)
        attempted = failed = 0

        def one(k, traced):
            nonlocal attempted, failed
            outdir = workdir / f"out{k}"
            report_path = workdir / f"report{k}"
            argv = job.command(outdir, report_path, traced)
            code, wall, cpu, probes = invoke(argv, workdir / f"log{k}.txt", deadline - time.monotonic())
            problems, _ = checks.check_invocation(job.verb, code, outdir, expected, reference)
            for entry, found in zip(expected, problems):
                for problem in found:
                    print(f"{workload} seed {seed} invocation {k} {entry['dir']}: {problem}", file=sys.stderr)
            attempted += len(problems)
            failed += sum(1 for found in problems if found)
            shutil.rmtree(outdir, ignore_errors=True)
            report = None
            if report_path.exists():
                with open(report_path) as fh:
                    report = json.load(fh)  # trace stats, or peak RSS in KiB
            return wall, cpu, probes, report

        if trace:
            # pairs of untraced and traced invocations, in alternating order
            plain, traced, stats = [], [], []
            start = time.monotonic()
            while not stats or time.monotonic() + plain[-1] + traced[-1] < min(start + seconds, deadline - 5):
                for is_traced in (False, True) if len(stats) % 2 == 0 else (True, False):
                    wall, _, _, report = one(len(plain) + len(traced), is_traced)
                    if not is_traced:
                        plain.append(wall)
                    elif report is None:
                        raise RuntimeError(f"traced invocation of {workload} wrote no stats")
                    else:
                        traced.append(wall)
                        stats.append(report)
            overhead_s = statistics.median(traced) - statistics.median(plain)
            zeta_us = zeta_microbenchmark(cfgs[0])
            per_run = [layer_metrics(s, job.verb, zeta_us, overhead_s, statistics.median(plain)) for s in stats]
            metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
            print(f"{workload} seed {seed}: {len(stats)} pairs, untraced {[round(w, 3) for w in plain]}, traced {[round(w, 3) for w in traced]}")
            return metrics, attempted, failed

        # start another invocation while it is expected to end within --seconds
        walls, cpus, ref_cpus, rss, setups, ref_setups = [], [], [], [], [], []
        start = time.monotonic()
        while not walls or time.monotonic() + statistics.median(walls) < min(start + seconds, deadline - 5):
            time_setup(job, cli, setups, ref_setups)
            wall, cpu, probes, peak_kib = one(len(walls), traced=False)
            walls.append(wall)
            cpus.append(cpu)
            ref_cpus.append(cpu * CALIBRATION_REF_S / statistics.median(probes))
            if peak_kib is not None:
                rss.append(peak_kib / 1024.0)
        if not rss:
            raise RuntimeError(f"no invocation of {workload} reported its peak RSS")
        ref_cpu_s = statistics.median(ref_cpus)
        agent_steps = sum(e["agents"] * e["steps"] for e in expected)
        metrics = {
            "ref_cpu_s": ref_cpu_s,
            "setup_s": statistics.median(ref_setups),
            "agent_steps_per_ref_cpu_s": agent_steps / ref_cpu_s,
            "peak_rss_mb": statistics.median(rss),
        }
        print(f"{workload} seed {seed}: {len(walls)} invocations; wall {[round(w, 3) for w in walls]} s, "
              f"CPU {[round(c, 3) for c in cpus]} s, at reference speed {[round(c, 3) for c in ref_cpus]} s; "
              f"set-up CPU median {statistics.median(setups):.6g} s over {len(setups)}")
        return metrics, attempted, failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def prepare_process():
    """Pin this process, and so its children, to one CPU; pin BLAS threads; import cohsync from this checkout.

    Call before numpy is imported. On a shared virtual machine each vCPU
    drifts in speed on its own, so the calibration kernel, timed here, must
    run on the CPU the invocations run on.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cohsync" / "cli.py").is_file():
        print(f"no cohsync sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    prepare_process()
    with open(SPEC) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("env " + json.dumps(environment(), sort_keys=True))

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S
        values, tried, bad = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        attempted += tried
        failed += bad
        prefix = f"{workload}." if args.workload == "all" else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
        print(f"{workload} fail_ratio = {bad / tried:.6g} ({bad} of {tried} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
