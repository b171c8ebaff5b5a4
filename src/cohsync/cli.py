"""Config-driven experiment runner with presets for the benchmark scenarios.

Verbs: run, sweep, list-presets, table1, check. Exit codes: 0 all checks
passed, 1 run finished but a requested check failed, 2 config error or no
memory for the run, 3 violated model or graph assumption, 4 divergence.
"""

import argparse
import copy
import csv
import math
import os
import re
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__, analysis
from . import graph as graphmod
from . import linalg, protocol
from . import signals as sigs
from . import sim
from .linalg import AssumptionError

ENV_OUT = "COHSYNC_OUT"

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
    MemoryError: (2, "out of memory"),
}
# what a simulation may raise once its directory is made: it writes nothing then
RUN_FAILURES = (sim.DivergenceError, MemoryError)
# a sweep union holds fewer agents than this; a run holds no record, so what it bounds is the work
# that one diverging member makes the union run again, member by member
UNION_AGENTS = 450


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


# libyaml's parser where PyYAML was built with it: it loads a config several times faster than SafeLoader
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# libyaml accepts some documents that SafeLoader refuses: a tab between tokens (`a:\t1`, or one trailing),
# a "?" in a plain scalar within brackets (`[1, 2?]`), a comment right after a block scalar's header (`|#`),
# a byte order mark within the text. So LOADER reads no document where LOADER_SKIPS finds a byte outside
# printable ASCII and line breaks, a "?" or such a header.
LOADER_SKIPS = re.compile(rb"[^\n\r\x20-\x3e\x40-\x7e]|[|>][-+0-9]*#")
# libyaml's composer recurses once per level of nesting on the C stack, unchecked (8 MiB of stack ran out
# between 20,000 and 30,000 levels); SafeLoader's takes two of the interpreter's 1,000 frames a level and stops
# near 490 levels. Every collection opens at one of the bytes NESTERS, so a document with at most LOADER_DEPTH
# of them nests no deeper than both parsers reach; LOADER reads no other.
NESTERS = b"[{-?:"
LOADER_DEPTH = 400
TOO_DEEP = "nested too deeply"


def _parse_yaml(text):
    """The YAML document in text (bytes) as SafeLoader loads it, or SafeLoader's error.

    LOADER parses it where it may. If that raises, SafeLoader parses it again
    and decides: libyaml's messages quote no source line, and libyaml
    refuses `%YAML 1.3`, which SafeLoader accepts.
    """
    if not LOADER_SKIPS.search(text) and sum(map(text.count, NESTERS)) <= LOADER_DEPTH:
        try:
            return yaml.load(text, LOADER)
        except yaml.YAMLError:
            pass
    return yaml.load(text, yaml.SafeLoader)


def load_config(source):
    """Raw config from a YAML file path or a preset name; returns (dict, default name)."""
    path = Path(source)
    if path.is_file():
        try:
            raw = _parse_yaml(path.read_bytes())  # bytes: a bad encoding is a YAML error
        # ValueError: a date or tagged number that names no value (2001-13-45, !!int x)
        except (yaml.YAMLError, ValueError) as exc:
            raise SchemaError("config", f"not valid YAML: {exc}") from None
        except RecursionError:
            raise SchemaError("config", TOO_DEEP) from None
        if not isinstance(raw, dict):
            raise SchemaError("config", "top level must be a mapping")
        return raw, path.stem
    if source in PRESETS:
        return copy.deepcopy(PRESETS[source][1]), source
    raise SchemaError("config", f"{source!r} is neither a config file nor a preset name")


def _require_mapping(value, path):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(path, "must be a mapping")
    return value


def _number(value, path, integer=False, least=None, positive=False, below=None):
    """The value as an int, or as a finite float, within the bounds given."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise SchemaError(path, f"must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not integer:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf if value > 0 else -math.inf
        if not math.isfinite(value):
            raise SchemaError(path, f"must be finite, got {value}")
    if positive and value <= 0:
        raise SchemaError(path, f"must be positive, got {value}")
    if least is not None and value < least:
        raise SchemaError(path, f"must be >= {least}, got {value}")
    if below is not None and value >= below:
        raise SchemaError(path, f"must be below {below}, got {value}")
    return value


def _flag(value, path):
    if not isinstance(value, bool):
        raise SchemaError(path, f"must be true or false, got {value!r}")
    return value


def _text(value, path):
    if not isinstance(value, str) or not value:
        raise SchemaError(path, f"must be a nonempty string, got {value!r}")
    return value


def _choice(value, path, allowed):
    if value not in allowed:
        raise SchemaError(path, f"must be one of {', '.join(allowed)}, got {value!r}")
    return value


def _items(value, path, item):
    """A nonempty list, checked item by item; an item's error names the list."""
    if not isinstance(value, list) or not value:
        raise SchemaError(path, f"must be a nonempty list, got {value!r}")
    return [item(v, path) for v in value]


def _gains(value, path):
    # one initial gain for every agent, or a list with one per agent
    gain = partial(_number, least=0.0)
    return _items(value, path, gain) if isinstance(value, list) else gain(value, path)


def _matrix(value, path):
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise SchemaError(path, "must be a list of rows")
    for r, row in enumerate(value):
        if len(row) != len(value[0]):
            raise SchemaError(path, f"row {r + 1} has {len(row)} entries, expected {len(value[0])}")
    return [[_number(v, f"{path}[{r}]") for v in row] for r, row in enumerate(value)]


def _overrides(value, path):
    if not isinstance(value, list):
        raise SchemaError(path, "must be a list of override mappings")
    for k, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}[{k}]", "must be a mapping")
    return copy.deepcopy(value)


class Variants(NamedTuple):
    """A section whose fields depend on its variant, which pick names from the section."""

    pick: Callable
    table: dict  # variant name -> (field table, builder of what the normalized fields describe)

    def admits(self, section, override):
        """Whether override merges into a valid section: the variant stays, and has every field override names."""
        variant = self.pick(section)
        return self.pick({**section, **override}) == variant and override.keys() <= self.table[variant][0].keys()


REQUIRED = object()  # the default of a field that must be given
OMITTED = object()  # the default of a field left out of the normalized config when absent or null
POSITIVE = partial(_number, positive=True)
_KIND = (lambda value, path: value, REQUIRED)  # a variant's kind, which its pick has checked
_SIGNAL = {"kind": (lambda value, path: value, "zero")}

# The config schema. A section is a field table or a Variants of them; a
# field is (check, default): check(value, path) returns the normalized value
# or raises SchemaError, and the default fills an absent field (a null
# default also admits null).
SCHEMA = {
    "name": (_text, REQUIRED),  # normalize_config passes the default name in
    "model": Variants(
        lambda model: "inline" if model and "preset" not in model else "preset",
        {
            "preset": (
                {"preset": (partial(_choice, allowed=("triple-integrator",)), "triple-integrator")},
                lambda preset: linalg.triple_integrator(),
            ),
            "inline": (dict.fromkeys(("A", "B", "E"), (_matrix, REQUIRED)), linalg.AgentModel),
        },
    ),
    "graph": Variants(
        lambda graph: graph.get("kind"),
        {  # each builder looks its generator up when called, so a wrapper put on the module (a tracer) is seen
            "vicsek": (
                {"kind": _KIND, "generation": (partial(_number, integer=True, least=1), 1), "directed": (_flag, True)},
                lambda generation, directed: graphmod.vicsek_fractal(generation, directed),
            ),
            "circulant": (
                {
                    "kind": _KIND,
                    "n": (partial(_number, integer=True, least=2), REQUIRED),
                    "offsets": (partial(_items, item=partial(_number, integer=True, least=1)), [1, 2]),
                    "directed": (_flag, True),
                },
                lambda n, offsets, directed: graphmod.circulant(n, offsets, directed),
            ),
            "edge-list": ({"kind": _KIND, "path": (_text, REQUIRED)}, lambda path: graphmod.read_edge_list(path)),
        },
    ),
    "protocol": {"d": (POSITIVE, OMITTED), "delta": (POSITIVE, OMITTED), "rho0": (_gains, 0.0)},
    "disturbance": Variants(
        lambda disturbance: disturbance.get("kind", "zero"),
        {
            "zero": (_SIGNAL, sigs.zero_signal),
            "chirp": (_SIGNAL, sigs.chirp_signal),
            "sawtooth": (_SIGNAL, sigs.sawtooth_signal),
            "custom-table": ({**_SIGNAL, "path": (_text, REQUIRED)}, sigs.load_table),
        },
    ),
    "integration": {
        "dt": (POSITIVE, 1e-3),
        "t_end": (POSITIVE, 30.0),
        "record_every": (partial(_number, integer=True, least=1), 10),
        "seed": (partial(_number, integer=True, least=0), 7),
    },
    "output": {
        "directory": (_text, None),
        "formats": (partial(_items, item=partial(_choice, allowed=FORMATS)), list(FORMATS)),
    },
    "checks": {
        "bound": (POSITIVE, None),
        "tol": (POSITIVE, 1e-3),
        "tail_fraction": (partial(_number, positive=True, below=1), 0.2),
        "require_settled": (_flag, False),
    },
    "sweep": (_overrides, OMITTED),
}


def _walk(table, value, path):
    """Normalize a section by its table: refuse unknown fields, check the rest and fill defaults."""
    section = _require_mapping(value, path)
    if isinstance(table, Variants):
        kind = table.pick(section)
        if not isinstance(kind, str) or kind not in table.table:
            raise SchemaError(f"{path}.kind", f"must be one of {', '.join(table.table)}, got {kind!r}")
        table = table.table[kind][0]
    for key in section:
        if key not in table:
            raise SchemaError(f"{path}.{key}", f"unknown field (allowed: {', '.join(table)})")
    out = {}
    prefix = "" if path == "config" else path + "."
    for key, field in table.items():
        where = prefix + key
        if isinstance(field, (dict, Variants)):
            out[key] = _walk(field, section.get(key), where)
            continue
        check, default = field
        value = section.get(key, default)
        if value is REQUIRED:
            raise SchemaError(where, "is required")
        if value is None and default is None:  # a field whose default is null may be null
            out[key] = None
        elif value is not OMITTED and not (value is None and default is OMITTED):
            out[key] = check(value, where)
    return out


def normalize_config(raw, default_name="run"):
    """Validate a raw config mapping and fill every default, by walking SCHEMA.

    Normalization is idempotent: feeding the result back in reproduces it,
    which is what lets the metadata sidecar reconstruct the experiment.
    """
    try:
        out = _walk(SCHEMA, {"name": default_name, **_require_mapping(raw, "config")}, "config")
    except RecursionError:  # a value too deep for the repr of a message, or for a sweep's deepcopy
        raise SchemaError("config", TOO_DEEP) from None
    if not out["protocol"].keys() & {"d", "delta"}:
        raise SchemaError("protocol", "needs d, delta, or both")
    if out["integration"]["t_end"] < out["integration"]["dt"]:
        raise SchemaError("integration.t_end", f"must be at least dt={out['integration']['dt']}")
    out["output"]["formats"] = list(dict.fromkeys(out["output"]["formats"]))
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


def _build(norm, section):
    """What a normalized section describes, by its variant's builder; refused on the section or its file."""
    variants = SCHEMA[section]
    fields, build = variants.table[variants.pick(norm[section])]
    with _refused(f"{section}.path" if "path" in fields else section):
        return build(**{k: v for k, v in norm[section].items() if k != "kind"})


def build_experiment(norm):
    """Resolve a normalized config into a ready SimConfig.

    Solves the design equation once per model; the SimConfig checks
    itself as it is built. Raises SchemaError for value problems (exit 2)
    and AssumptionError for violated standing assumptions (exit 3).
    Returns (SimConfig, checks dict, name).
    """
    model = _build(norm, "model")
    graph = _build(norm, "graph")
    try:
        riccati = linalg.solve_care(model.A, model.B)
    except RuntimeError as exc:
        raise AssumptionError(
            f"no certified stabilizing Riccati solution (residual {exc.residual:.3e})"
        ) from None
    proto = norm["protocol"]
    with _refused("protocol.d"):
        params = protocol.ProtocolParams(riccati.P, model.B, d=proto.get("d"), delta=proto.get("delta"))
    integ = norm["integration"]
    signal = _build(norm, "disturbance")
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


def _inside(base, name, path):
    """The directory base / name, refused (a SchemaError on path) unless it lies inside base."""
    outdir = base / name
    if base.resolve() not in outdir.resolve().parents:
        raise SchemaError(path, f"{name!r} names a directory outside {str(base)!r}")
    return outdir


def _resolve_outdir(args, name, output_cfg):
    """The output directory and the setting it comes from, for error messages."""
    if getattr(args, "out", None):
        return Path(args.out), "--out"
    env = os.environ.get(ENV_OUT)
    if env:
        return _inside(Path(env), name, "name"), ENV_OUT
    if output_cfg.get("directory"):
        return Path(output_cfg["directory"]), "output.directory"
    return _inside(Path("out"), name, "name"), "output.directory"


def _make_dir(path, source):
    """Create an output directory and return the directories this made, outermost first.

    One that cannot be made (say, a file is in the way) is refused.
    """
    made = [p for p in (path, *path.parents) if not p.exists()][::-1]
    with _refused(source):
        path.mkdir(parents=True, exist_ok=True)
    return made


def _unmake_dirs(made):
    """Remove the directories _make_dir made, innermost first, while they are empty."""
    for path in reversed(made):
        try:
            path.rmdir()  # refuses a directory that holds anything
        except OSError:
            return


def _finish(entry, summary):
    """Write the reports an entry's formats ask for, beside its trajectory CSV, and its metadata."""
    if "report" in entry.norm["output"]["formats"]:
        with open(entry.outdir / "report.txt", "w") as fh:
            fh.write(analysis.summary_text(summary) + "\n")
        with open(entry.outdir / "report.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([analysis.REPORT_CSV_HEADER, analysis.summary_csv_row(summary)])
    sim.write_metadata(
        entry.outdir / "metadata.yaml",
        {"version": __version__, "seed": entry.norm["integration"]["seed"], "config": entry.norm},
    )


def cmd_run(args):
    raw, default_name = load_config(args.config)
    norm = normalize_config(_with_flags(raw, args), default_name)
    norm.pop("sweep", None)
    outdir, source = _resolve_outdir(args, norm["name"], norm["output"])
    cfg, checks, _ = build_experiment(norm)
    (outcome,) = _run([_Entry(0, norm, outdir, cfg, checks, _make_dir(outdir, source))])
    if isinstance(outcome, RUN_FAILURES):
        raise outcome
    if not args.quiet:
        _say(analysis.summary_text(outcome), f"artifacts written to {outdir}")
    return 0 if outcome.passed else 1


class _Entry(NamedTuple):
    """A run, or a sweep entry, that was built and may run: index, normalized config, directory, SimConfig, checks.

    made lists the directories _make_dir created for it, removed again if its run fails.
    """

    idx: int
    norm: dict
    outdir: Path
    cfg: sim.SimConfig
    checks: dict
    made: list


def _unions(entries):
    """Group entries into closed loops, in entry order.

    Each entry joins the first union whose runs it can join (sim.can_join:
    one model, P, step and recording grid, and one disturbance kind; the
    graph, seed, rho0, d and delta may differ) while the union stays below
    UNION_AGENTS agents; otherwise it starts a union of its own. Each
    entry's graph couples its rows as alone, so every entry writes what
    `cohsync run` writes, byte for byte.
    """
    unions = []
    for entry in entries:
        for union in unions:
            agents = sum(member.cfg.graph.n_nodes for member in union) + entry.cfg.graph.n_nodes
            if agents < UNION_AGENTS and sim.can_join(union[0].cfg, entry.cfg):
                union.append(entry)
                break
        else:
            unions.append([entry])
    return unions


def _run(entries):
    """Run a union of entries and write what each asks for; return each one's RunSummary, or its RUN_FAILURES error.

    One closed loop hands each entry's samples to its analysis.Verdict and, if asked for, its sim.TrajectoryCSV.
    A union that fails so runs again member by member, each CSV written afresh, so every run reports what it
    does alone; a failed run writes nothing and removes the directories it made.
    """
    sinks = []  # each run's Verdict first, then its writer, made (and so its file opened) only if asked for
    for entry in entries:
        sinks.append([analysis.Verdict(entry.cfg, label=entry.norm["name"], **entry.checks)])
        if "trajectory" in entry.norm["output"]["formats"]:
            sinks[-1].append(sim.TrajectoryCSV(entry.outdir / "trajectory.csv", entry.cfg))
    writers = [writer for run_sinks in sinks for writer in run_sinks[1:]]
    try:
        sim.simulate_union([entry.cfg for entry in entries], sinks)
    except BaseException as exc:
        for writer in writers:
            writer.close(keep=False)
        if not isinstance(exc, RUN_FAILURES):
            raise
        if len(entries) > 1:
            return [_run([entry])[0] for entry in entries]
        _unmake_dirs(entries[0].made)
        return [exc]
    for writer in writers:
        writer.close(keep=True)
    summaries = [run_sinks[0].summary() for run_sinks in sinks]
    for entry, summary in zip(entries, summaries):
        _finish(entry, summary)
    return summaries


def _error_result(idx, exc):
    return [str(idx), f"error: {exc}"] + [""] * len(analysis.REPORT_CSV_HEADER), f"[{idx}] error: {exc}"


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

    # every entry is built, claimed and given its directory first; refusals become error rows
    results = {}  # entry index -> (report row, stdout line)
    built = []
    owners = {(outdir / report).resolve(): "a report file of the sweep" for report in ("report.csv", "report.txt")}
    for idx, overrides in enumerate(entries):
        try:
            merged = _with_flags(_deep_merge(base_raw, overrides), args)
            norm = normalize_config(merged, f"{base_norm['name']}_{idx:02d}")
            norm.pop("sweep", None)
            entry_dir = _inside(outdir, norm["name"], f"sweep[{idx}].name")
            claim = f"the directory of entry {idx}"  # the first to claim a path keeps it
            owner = owners.setdefault(entry_dir.resolve(), claim)
            if owner != claim:
                raise SchemaError(f"sweep[{idx}].name", f"{norm['name']!r} is already {owner}")
            cfg, checks, _ = build_experiment(norm)
            built.append(_Entry(idx, norm, entry_dir, cfg, checks, _make_dir(entry_dir, source)))
        except tuple(REFUSALS) as exc:
            results[idx] = _error_result(idx, exc)
    for union in _unions(built):
        for entry, outcome in zip(union, _run(union)):
            if isinstance(outcome, RUN_FAILURES):
                results[entry.idx] = _error_result(entry.idx, outcome)
                continue
            verdict = "pass" if outcome.passed else "fail"
            results[entry.idx] = (
                [str(entry.idx), verdict] + analysis.summary_csv_row(outcome),
                f"[{entry.idx}] {entry.norm['name']}: {verdict.upper()}",
            )

    rows, lines = zip(*(results[idx] for idx in sorted(results)))
    with open(outdir / "report.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["entry", "status"] + analysis.REPORT_CSV_HEADER, *rows])
    with open(outdir / "report.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if not args.quiet:
        _say(*lines, f"sweep artifacts written to {outdir}")
    return 0 if all(row[1] == "pass" for row in rows) else 1


def _deep_merge(base, override):
    # a mapping merges into the base's, unless it leaves the base's variant (Variants.admits): then it replaces it
    out = copy.deepcopy(base)
    for key, value in override.items():
        kept, table = out.get(key), SCHEMA.get(key)
        if isinstance(value, dict) and isinstance(kept, dict) and (not isinstance(table, Variants) or table.admits(kept, value)):
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
