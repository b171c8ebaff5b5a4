"""Config-driven experiment runner with presets for the benchmark scenarios.

Verbs: run, sweep, list-presets, table1, check. Exit codes: 0 all checks
passed, 1 run finished but a requested check failed, 2 config/schema
error, 3 violated model or graph assumption, 4 numerical divergence.
"""

import argparse
import copy
import csv
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from . import __version__, analysis
from . import graph as graphmod
from . import linalg, protocol
from . import signals as sigs
from . import sim
from .linalg import AssumptionError

ENV_OUT = "COHSYNC_OUT"

GRAPH_KINDS = ("vicsek", "circulant", "edge-list")
FORMATS = ("trajectory", "report")


class SchemaError(ValueError):
    """Config rejected; the message leads with the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


# what a verb may raise on refusing to run or finish: exit status and stderr prefix
REFUSALS = {
    SchemaError: (2, "config error"),
    AssumptionError: (3, "assumption violated"),
    sim.DivergenceError: (4, "simulation diverged"),
}


def _vicsek_preset(generation, directed, d=0.5, kind="chirp", t_end=30.0, record_every=10):
    return {
        "model": {"preset": "triple-integrator"},
        "graph": {"kind": "vicsek", "generation": generation, "directed": directed},
        "protocol": {"d": d},
        "disturbance": {"kind": kind},
        "integration": {"dt": 1e-3, "t_end": t_end, "record_every": record_every, "seed": 7},
    }


PRESETS = {
    "fig3a": (
        "5 agents, directed fractal star, swept-sine disturbance, d=0.5",
        _vicsek_preset(1, True),
    ),
    "fig3b": (
        "25 agents, directed fractal, swept-sine disturbance, d=0.5",
        _vicsek_preset(2, True, record_every=20),
    ),
    "fig3c": (
        "121 agents, directed fractal, swept-sine disturbance, d=0.5",
        _vicsek_preset(3, True, record_every=50),
    ),
    "fig4a": (
        "5 agents, undirected fractal star, swept-sine disturbance, d=0.5",
        _vicsek_preset(1, False),
    ),
    "fig4b": (
        "25 agents, undirected fractal, swept-sine disturbance, d=0.5",
        _vicsek_preset(2, False, record_every=20),
    ),
    "fig4c": (
        "121 agents, undirected fractal, swept-sine disturbance, d=0.5; "
        "long horizon because the slowest graph mode needs ~100 s to settle",
        _vicsek_preset(3, False, t_end=150.0, record_every=50),
    ),
    "fig7": (
        "121 agents, directed ring with skip links (offsets 1 and 2), swept-sine disturbance, d=0.5",
        {
            "model": {"preset": "triple-integrator"},
            "graph": {"kind": "circulant", "n": 121, "offsets": [1, 2], "directed": True},
            "protocol": {"d": 0.5},
            "disturbance": {"kind": "chirp"},
            "integration": {"dt": 1e-3, "t_end": 30.0, "record_every": 50, "seed": 7},
        },
    ),
    "fig8": (
        "121 agents, directed fractal, sawtooth disturbance, d=0.5",
        _vicsek_preset(3, True, kind="sawtooth", record_every=50),
    ),
    "fig9": (
        "121 agents, directed fractal, swept-sine disturbance, tighter deadzone d=0.2",
        _vicsek_preset(3, True, d=0.2, record_every=50),
    ),
}


def preset_config(name):
    """Deep copy of a preset's raw config dict."""
    if name not in PRESETS:
        raise SchemaError("config", f"unknown preset {name!r}; see `cohsync list-presets`")
    return copy.deepcopy(PRESETS[name][1])


def load_config(source):
    """Raw config from a YAML file path or a preset name; returns (dict, default name)."""
    path = Path(source)
    if path.is_file():
        try:
            raw = yaml.safe_load(path.read_bytes())  # bytes: a bad encoding is a YAML error
        except yaml.YAMLError as exc:
            raise SchemaError("config", f"not valid YAML: {exc}") from None
        if not isinstance(raw, dict):
            raise SchemaError("config", "top level must be a mapping")
        return raw, path.stem
    if source in PRESETS:
        return preset_config(source), source
    raise SchemaError("config", f"{source!r} is neither a config file nor a preset name")


def _require_mapping(value, path):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(path, "must be a mapping")
    return value


def _reject_unknown(section, allowed, path):
    for key in section:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", f"unknown field (allowed: {', '.join(allowed)})")


def _as_float(value, path, minimum=None, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError(path, f"must be finite, got {value}")
    if positive and value <= 0:
        raise SchemaError(path, f"must be positive, got {value}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise SchemaError(path, f"must be true or false, got {value!r}")
    return value


def _as_matrix_rows(value, path):
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise SchemaError(path, "must be a list of rows")
    width = len(value[0])
    out = []
    for r, row in enumerate(value):
        if len(row) != width:
            raise SchemaError(path, f"row {r + 1} has {len(row)} entries, expected {width}")
        out.append([_as_float(v, f"{path}[{r}]") for v in row])
    return out


def normalize_config(raw, default_name="run"):
    """Validate a raw config mapping and fill every default.

    Normalization is idempotent: feeding the result back in reproduces it,
    which is what lets the metadata sidecar reconstruct the experiment.
    """
    raw = _require_mapping(raw, "config")
    _reject_unknown(
        raw,
        ("name", "model", "graph", "protocol", "disturbance", "integration", "output", "checks", "sweep"),
        "config",
    )
    out = {}
    name = raw.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise SchemaError("name", "must be a nonempty string")
    out["name"] = name

    model = _require_mapping(raw.get("model"), "model")
    _reject_unknown(model, ("preset", "A", "B", "E"), "model")
    if "preset" in model:
        if model.get("preset") != "triple-integrator":
            raise SchemaError("model.preset", f"unknown model preset {model.get('preset')!r} (available: triple-integrator)")
        if any(k in model for k in ("A", "B", "E")):
            raise SchemaError("model", "give either a preset or inline matrices, not both")
        out["model"] = {"preset": "triple-integrator"}
    elif model:
        missing = [k for k in ("A", "B", "E") if k not in model]
        if missing:
            raise SchemaError("model", f"inline model needs A, B, and E (missing {', '.join(missing)})")
        out["model"] = {k: _as_matrix_rows(model[k], f"model.{k}") for k in ("A", "B", "E")}
    else:
        out["model"] = {"preset": "triple-integrator"}

    graph = _require_mapping(raw.get("graph"), "graph")
    kind = graph.get("kind")
    if kind not in GRAPH_KINDS:
        raise SchemaError("graph.kind", f"must be one of {', '.join(GRAPH_KINDS)}, got {kind!r}")
    if kind == "vicsek":
        _reject_unknown(graph, ("kind", "generation", "directed"), "graph")
        out["graph"] = {
            "kind": "vicsek",
            "generation": _as_int(graph.get("generation", 1), "graph.generation", minimum=1),
            "directed": _as_bool(graph.get("directed", True), "graph.directed"),
        }
    elif kind == "circulant":
        _reject_unknown(graph, ("kind", "n", "offsets", "directed"), "graph")
        n = _as_int(graph.get("n", 0), "graph.n", minimum=2)
        offsets = graph.get("offsets", [1, 2])
        if not isinstance(offsets, list) or not offsets:
            raise SchemaError("graph.offsets", "must be a nonempty list of integers")
        offsets = [_as_int(k, "graph.offsets", minimum=1) for k in offsets]
        out["graph"] = {
            "kind": "circulant",
            "n": n,
            "offsets": offsets,
            "directed": _as_bool(graph.get("directed", True), "graph.directed"),
        }
    else:
        _reject_unknown(graph, ("kind", "path"), "graph")
        path = graph.get("path")
        if not isinstance(path, str) or not path:
            raise SchemaError("graph.path", "edge-list graphs need a file path")
        out["graph"] = {"kind": "edge-list", "path": path}

    proto = _require_mapping(raw.get("protocol"), "protocol")
    _reject_unknown(proto, ("d", "delta", "rho0"), "protocol")
    d = proto.get("d")
    delta = proto.get("delta")
    if d is None and delta is None:
        raise SchemaError("protocol", "needs d, delta, or both")
    norm_proto = {}
    if d is not None:
        norm_proto["d"] = _as_float(d, "protocol.d", positive=True)
    if delta is not None:
        norm_proto["delta"] = _as_float(delta, "protocol.delta", positive=True)
    rho0 = proto.get("rho0", 0.0)
    if isinstance(rho0, list):
        norm_proto["rho0"] = [_as_float(v, "protocol.rho0", minimum=0.0) for v in rho0]
    else:
        norm_proto["rho0"] = _as_float(rho0, "protocol.rho0", minimum=0.0)
    out["protocol"] = norm_proto

    dist = _require_mapping(raw.get("disturbance"), "disturbance")
    _reject_unknown(dist, ("kind", "path"), "disturbance")
    dkind = dist.get("kind", "zero")
    if dkind not in sigs.KINDS:
        raise SchemaError("disturbance.kind", f"must be one of {', '.join(sigs.KINDS)}, got {dkind!r}")
    if dkind == "custom-table":
        dpath = dist.get("path")
        if not isinstance(dpath, str) or not dpath:
            raise SchemaError("disturbance.path", "custom-table disturbances need a CSV path")
        out["disturbance"] = {"kind": dkind, "path": dpath}
    else:
        if "path" in dist:
            raise SchemaError("disturbance.path", f"only custom-table signals take a path, not {dkind}")
        out["disturbance"] = {"kind": dkind}

    integ = _require_mapping(raw.get("integration"), "integration")
    _reject_unknown(integ, ("dt", "t_end", "record_every", "seed"), "integration")
    dt = _as_float(integ.get("dt", 1e-3), "integration.dt", positive=True)
    t_end = _as_float(integ.get("t_end", 30.0), "integration.t_end", positive=True)
    if t_end < dt:
        raise SchemaError("integration.t_end", f"must be at least dt={dt}")
    out["integration"] = {
        "dt": dt,
        "t_end": t_end,
        "record_every": _as_int(integ.get("record_every", 10), "integration.record_every", minimum=1),
        "seed": _as_int(integ.get("seed", 7), "integration.seed", minimum=0),
    }

    output = _require_mapping(raw.get("output"), "output")
    _reject_unknown(output, ("directory", "formats"), "output")
    directory = output.get("directory")
    if directory is not None and (not isinstance(directory, str) or not directory):
        raise SchemaError("output.directory", "must be a nonempty string")
    formats = output.get("formats", list(FORMATS))
    if not isinstance(formats, list) or not formats:
        raise SchemaError("output.formats", "must be a nonempty list")
    for f in formats:
        if f not in FORMATS:
            raise SchemaError("output.formats", f"unknown format {f!r} (allowed: {', '.join(FORMATS)})")
    out["output"] = {"directory": directory, "formats": list(dict.fromkeys(formats))}

    checks = _require_mapping(raw.get("checks"), "checks")
    _reject_unknown(checks, ("bound", "tol", "tail_fraction", "require_settled"), "checks")
    bound = checks.get("bound")
    norm_checks = {
        "bound": None if bound is None else _as_float(bound, "checks.bound", positive=True),
        "tol": _as_float(checks.get("tol", 1e-3), "checks.tol", positive=True),
        "tail_fraction": _as_float(checks.get("tail_fraction", 0.2), "checks.tail_fraction", positive=True),
        "require_settled": _as_bool(checks.get("require_settled", False), "checks.require_settled"),
    }
    if not norm_checks["tail_fraction"] < 1:
        raise SchemaError("checks.tail_fraction", "must lie in (0, 1)")
    out["checks"] = norm_checks

    if "sweep" in raw:
        entries = raw["sweep"]
        if not isinstance(entries, list):
            raise SchemaError("sweep", "must be a list of override mappings")
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise SchemaError(f"sweep[{k}]", "must be a mapping")
        out["sweep"] = copy.deepcopy(entries)

    return out


@contextmanager
def _refused(path):
    """Turn a bad value or an unreadable file met inside into a SchemaError on path."""
    try:
        yield
    except AssumptionError:  # a ValueError too, but exit 3
        raise
    except (ValueError, OSError) as exc:
        raise SchemaError(path, str(exc)) from None


def _build_model(mcfg):
    if mcfg.get("preset") == "triple-integrator":
        return linalg.triple_integrator()
    with _refused("model"):
        return linalg.AgentModel(np.array(mcfg["A"]), np.array(mcfg["B"]), np.array(mcfg["E"]))


def _build_graph(gcfg):
    kind = gcfg["kind"]
    if kind == "edge-list":
        with _refused("graph.path"):
            return graphmod.read_edge_list(gcfg["path"])
    with _refused("graph"):
        if kind == "vicsek":
            return graphmod.vicsek_fractal(gcfg["generation"], gcfg["directed"])
        return graphmod.circulant(gcfg["n"], gcfg["offsets"], gcfg["directed"])


def _build_signal(dcfg):
    if dcfg["kind"] == "custom-table":
        with _refused("disturbance.path"):
            return sigs.load_table(dcfg["path"])
    return {"zero": sigs.zero_signal, "chirp": sigs.chirp_signal, "sawtooth": sigs.sawtooth_signal}[dcfg["kind"]]()


def build_experiment(norm):
    """Resolve a normalized config into a ready SimConfig.

    Solves the design equation once per model; the SimConfig checks
    itself as it is built. Raises SchemaError for value problems (exit 2)
    and AssumptionError for violated standing assumptions (exit 3).
    Returns (SimConfig, checks dict, name).
    """
    model = _build_model(norm["model"])
    graph = _build_graph(norm["graph"])
    try:
        riccati = linalg.solve_care(model.A, model.B)
    except RuntimeError as exc:
        raise AssumptionError(
            f"no certified stabilizing Riccati solution (residual {exc.residual:.3e})"
        ) from None
    proto = norm["protocol"]
    if proto.get("delta") is None:
        spec = protocol.spec_from_deadzone(proto["d"], riccati.P)
    else:
        with _refused("protocol.d"):
            spec = protocol.make_spec(proto["delta"], riccati.P, proto.get("d"))
    params = protocol.ProtocolParams(riccati.P, model.B, spec)
    integ = norm["integration"]
    signal = _build_signal(norm["disturbance"])
    with _refused("config"):
        cfg = sim.SimConfig(
            model=model,
            graph=graph,
            params=params,
            disturbance=signal,
            x0=sim.default_initial_state(graph.n_nodes, model.n, integ["seed"]),
            rho0=proto["rho0"],
            t_end=integ["t_end"],
            dt=integ["dt"],
            record_every=integ["record_every"],
        )
    return cfg, norm["checks"], norm["name"]


def _with_flags(raw, args):
    # --seed/--dt/--t-end override integration fields before the schema sees them
    flags = {k: getattr(args, k) for k in ("seed", "dt", "t_end") if getattr(args, k, None) is not None}
    if not flags:
        return raw
    return {**raw, "integration": {**_require_mapping(raw.get("integration"), "integration"), **flags}}


def _resolve_outdir(args, name, output_cfg):
    """The output directory and the setting it comes from, for error messages."""
    if getattr(args, "out", None):
        return Path(args.out), "--out"
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env) / name, ENV_OUT
    return Path(output_cfg.get("directory") or Path("out") / name), "output.directory"


def _make_dir(path, source):
    """Create an output directory; one that cannot be made (say, a file is in the way) is refused."""
    with _refused(source):
        path.mkdir(parents=True, exist_ok=True)


def _write_artifacts(outdir, norm, traj, summary):
    formats = norm["output"]["formats"]
    if "trajectory" in formats:
        sim.write_trajectory_csv(traj, outdir / "trajectory.csv")
    if "report" in formats:
        with open(outdir / "report.txt", "w") as fh:
            fh.write(analysis.summary_text(summary) + "\n")
        with open(outdir / "report.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([analysis.REPORT_CSV_HEADER, analysis.summary_csv_row(summary)])
    sim.write_metadata(
        outdir / "metadata.yaml",
        {"version": __version__, "seed": norm["integration"]["seed"], "config": norm},
    )


def _run_one(norm, outdir, source):
    """Build the experiment and its output directory, then simulate, judge and write the artifacts."""
    cfg, checks, name = build_experiment(norm)
    _make_dir(outdir, source)
    traj = sim.simulate(cfg)
    summary = analysis.summarize(traj, label=name, **checks)
    _write_artifacts(outdir, norm, traj, summary)
    return summary


def cmd_run(args):
    raw, default_name = load_config(args.config)
    norm = normalize_config(_with_flags(raw, args), default_name)
    norm.pop("sweep", None)
    outdir, source = _resolve_outdir(args, norm["name"], norm["output"])
    summary = _run_one(norm, outdir, source)
    if not args.quiet:
        _say(analysis.summary_text(summary), f"artifacts written to {outdir}")
    return 0 if summary.passed else 1


def cmd_sweep(args):
    raw, default_name = load_config(args.config)
    base_norm = normalize_config(raw, default_name)
    entries = base_norm.pop("sweep", None)
    if not entries:
        raise SchemaError("sweep", "cohsync sweep needs a nonempty list of override mappings")
    # an entry without its own name runs as <name>_<idx>, never under the base name
    base_raw = {k: v for k, v in raw.items() if k not in ("sweep", "name")}
    outdir, source = _resolve_outdir(args, base_norm["name"], base_norm["output"])
    _make_dir(outdir, source)

    rows = []
    lines = []
    for idx, overrides in enumerate(entries):
        try:
            merged = _with_flags(_deep_merge(base_raw, overrides), args)
            norm = normalize_config(merged, f"{base_norm['name']}_{idx:02d}")
            norm.pop("sweep", None)
            summary = _run_one(norm, outdir / norm["name"], source)
            rows.append([str(idx), "pass" if summary.passed else "fail"] + analysis.summary_csv_row(summary))
            lines.append(f"[{idx}] {norm['name']}: {'PASS' if summary.passed else 'FAIL'}")
        except tuple(REFUSALS) as exc:
            rows.append([str(idx), f"error: {exc}"] + [""] * len(analysis.REPORT_CSV_HEADER))
            lines.append(f"[{idx}] error: {exc}")
    with open(outdir / "report.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["entry", "status"] + analysis.REPORT_CSV_HEADER] + rows)
    with open(outdir / "report.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if not args.quiet:
        _say(*lines, f"sweep artifacts written to {outdir}")
    return 0 if all(row[1] == "pass" for row in rows) else 1


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def cmd_check(args):
    raw, default_name = load_config(args.config)
    cfg, checks, name = build_experiment(normalize_config(_with_flags(raw, args), default_name))
    if not args.quiet:
        spec = cfg.params.spec
        _say(
            f"config ok: {name}: {cfg.graph.n_nodes} agents, d={spec.d:.6g}, "
            f"delta={spec.delta:.6g}, delta_bar={spec.delta_bar:.6g}, "
            f"t_end={cfg.t_end:.6g}, dt={cfg.dt:.6g}"
        )
    return 0


def cmd_list_presets(args):
    width = max(len(name) for name in PRESETS)
    _say(*(f"{name:<{width}}  {PRESETS[name][0]}" for name in sorted(PRESETS)))
    return 0


def cmd_table1(args):
    _say(f"{'N':>5}  {'generation':>10}  {'lambda_2':>10}")
    for g in (1, 2, 3):
        graph = graphmod.vicsek_fractal(g, directed=False)
        lam = graphmod.algebraic_connectivity(graph)
        _say(f"{graph.n_nodes:>5}  {g:>10}  {lam:>10.6f}")
    return 0


def _add_common_flags(parser, with_out=True):
    parser.add_argument("--seed", type=int, default=None, help="override integration.seed")
    parser.add_argument("--dt", type=float, default=None, help="override integration.dt")
    parser.add_argument("--t-end", type=float, default=None, dest="t_end", help="override integration.t_end")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    if with_out:
        parser.add_argument(
            "--out",
            default=None,
            help=f"output directory (overrides the {ENV_OUT} environment variable and the config)",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cohsync",
        description="Simulate and check adaptive deadzone synchronization experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment from a YAML config or preset name")
    p.add_argument("config", help="config file path or preset name")
    _add_common_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run every entry of the config's sweep list")
    p.add_argument("config", help="config file path or preset name")
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="validate a config without simulating")
    p.add_argument("config", help="config file path or preset name")
    _add_common_flags(p, with_out=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("list-presets", help="list built-in experiment presets")
    p.set_defaults(func=cmd_list_presets)

    p = sub.add_parser("table1", help="print the fractal family's algebraic connectivities")
    p.set_defaults(func=cmd_table1)

    return parser


def _say(*lines):
    """Print lines to stdout; a reader that went away (`| head`) does not change the exit status."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:  # later writes, and the flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(REFUSALS) as exc:
        code, prefix = next(v for kind, v in REFUSALS.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
