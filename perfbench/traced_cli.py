"""Run the cohsync CLI with timing wrappers around each module's public functions.

Usage: python3 perfbench/traced_cli.py STATS_JSON CLI_ARGS...

The wrappers are installed from here; the package is not modified. Each one
replaces a module attribute that the CLI or the simulator looks up at call
time, and records per function the number of calls, their total time and
the part of it spent in wrapped callees, so that a function's self time is
total minus child time. The tracer's own bookkeeping after a call lands in
the caller's self time. Counters stay in memory and are written to
STATS_JSON when the CLI returns; the process exits with the CLI's status.
"""

import dataclasses
import json
import os
import sys
import time

perf = time.perf_counter
np = None  # imported in main() once the CLI import, which loads it, has been timed

# (module, attribute): the callers look these names up in that module
TARGETS = (
    ("cli", "normalize_config"),
    ("cli", "build_experiment"),
    ("graph", "vicsek_fractal"),
    ("sim", "has_directed_spanning_tree"),
    ("linalg", "solve_care"),
    ("sim", "simulate"),
    ("sim", "gain_rates"),
    ("sim", "control_all"),
    ("signals", "evaluate_all"),
    ("sim", "write_trajectory_csv"),
    ("analysis", "summarize"),
)


def _observe_gain_rates(extra, args, kwargs, result):
    # a rate is exactly 0.0 inside the deadzone
    extra["active_agent_stages"] += int(np.count_nonzero(result))
    extra["agent_stages"] += int(result.size)


def _observe_simulate(extra, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    extra["steps"] += int(round(cfg.t_end / cfg.dt))
    extra["samples"] += int(result.n_samples)
    nbytes = sum(
        getattr(result, f.name).nbytes
        for f in dataclasses.fields(result)
        if hasattr(getattr(result, f.name), "nbytes")
    )
    extra["trajectory_bytes_max"] = max(extra["trajectory_bytes_max"], nbytes)


def _observe_csv(extra, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    extra["csv_bytes"] += os.path.getsize(path)


OBSERVERS = {
    "sim.gain_rates": _observe_gain_rates,
    "sim.simulate": _observe_simulate,
    "sim.write_trajectory_csv": _observe_csv,
}


class Tracer:
    """Call counts and inclusive/child times per wrapped function."""

    def __init__(self):
        self.functions = {}
        self.extra = dict.fromkeys(
            ("active_agent_stages", "agent_stages", "steps", "samples", "trajectory_bytes_max", "csv_bytes"), 0
        )
        self._stack = []

    def wrap(self, name, fn):
        stat = self.functions.setdefault(name, {"calls": 0, "total_s": 0.0, "child_s": 0.0})
        stack = self._stack
        observe = OBSERVERS.get(name)
        extra = self.extra

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                child = stack.pop()
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["child_s"] += child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(extra, args, kwargs, result)
            return result

        return traced


def main(argv):
    global np
    stats_path, cli_args = argv[0], argv[1:]
    t0 = perf()
    from cohsync import analysis, cli, graph, linalg, signals, sim

    import_s = perf() - t0
    import numpy as np
    modules = {"analysis": analysis, "cli": cli, "graph": graph, "linalg": linalg, "signals": signals, "sim": sim}
    tracer = Tracer()
    for module, attr in TARGETS:
        fn = getattr(modules[module], attr, None)
        if fn is None:
            print(f"traced_cli: cohsync.{module} has no {attr}; not traced", file=sys.stderr)
            continue
        setattr(modules[module], attr, tracer.wrap(f"{module}.{attr}", fn))
    try:
        return cli.main(cli_args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump({"import_s": import_s, "functions": tracer.functions, "extra": tracer.extra}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
