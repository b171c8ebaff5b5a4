"""Correctness checks on the artifacts of one cohsync invocation.

Every entry (the single run of `cohsync run`, or each entry of `cohsync
sweep`) gets two kinds of check:

* checks that hold for any seed: exit status 0 or 1 and consistent with the
  reported verdict, one artifact directory per entry, the requested seed in
  its metadata, the trajectory row count and agent column, and gains that
  never decrease;
* with a committed reference for the seed: the same exit status, the same
  `report.csv` row, and the same `trajectory.csv` header, row count and
  per-column fingerprint, numbers within TOLERANCE.

An entry with any problem counts as failed. A FAIL verdict (exit 1) that the
reference also records is not a problem.
"""

import csv
import json
from pathlib import Path

import numpy as np
import yaml

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative to the scale of each compared quantity (the column's largest
# magnitude or sum of magnitudes). Perturbing fig3c's initial state by 1e-15
# (relative) moved every trajectory column by at most 2e-15 of its scale, so
# a change that only reorders floating-point operations stays near 1e-12,
# while another seed or a real change of behaviour moves values at O(1).
TOLERANCE = 1e-9
# simulate() itself tolerates recorded gains dropping by this much
GAIN_DROP = 1e-12
ARTIFACTS = ("trajectory.csv", "report.csv", "report.txt", "metadata.yaml")


def load_reference(workload, seed):
    """Committed outcome of `workload` at `seed`, or None if there is none."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _fingerprint(values):
    mags = np.abs(values)
    return {
        "sum": values.sum(axis=0).tolist(),
        "abs_sum": mags.sum(axis=0).tolist(),
        "abs_max": mags.max(axis=0).tolist(),
        "last_row": values[-1].tolist(),
    }


def _check_entry(entry_dir, expected, problems):
    """Seed-independent checks on one entry; returns its digest, or None if unreadable."""
    missing = [name for name in ARTIFACTS if not (entry_dir / name).is_file()]
    if missing:
        problems.append(f"{entry_dir.name}: missing {', '.join(missing)}")
        return None
    report = _read_csv(entry_dir / "report.csv")
    with open(entry_dir / "metadata.yaml") as fh:
        seed = yaml.safe_load(fh).get("seed")
    with open(entry_dir / "trajectory.csv") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        try:
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            problems.append(f"{entry_dir.name}: unreadable trajectory.csv: {exc}")
            return None

    if seed != expected["seed"]:
        problems.append(f"metadata seed {seed!r}, requested {expected['seed']}")
    if len(report) != 2 or len(report[0]) != len(report[1]):
        problems.append("report.csv is not one header and one row")
        return None
    row = dict(zip(report[0], report[1]))
    if float(row.get("d", "nan")) != expected["d"]:
        problems.append(f"report d={row.get('d')}, requested {expected['d']}")

    agents, samples = expected["agents"], expected["samples"]
    if values.shape[0] != agents * samples:
        problems.append(f"trajectory has {values.shape[0]} rows, expected {agents} x {samples}")
    elif "agent" in header and "rho" in header:
        agent_col = values[:, header.index("agent")].reshape(samples, agents)
        if not np.array_equal(agent_col, np.tile(np.arange(1, agents + 1), (samples, 1))):
            problems.append("trajectory agent column out of order")
        gains = values[:, header.index("rho")].reshape(samples, agents)
        drop = float(np.diff(gains, axis=0).min(initial=0.0))
        if drop < -GAIN_DROP:
            problems.append(f"gains decrease by {-drop:.3g}")
    else:
        problems.append(f"trajectory header lacks agent or rho: {header}")
    return {
        "report": report,
        "trajectory": {"header": header, "rows": int(values.shape[0]), **_fingerprint(values)},
    }


def _close(value, ref, scale):
    return abs(value - ref) <= TOLERANCE * scale


def _compare_report(row, ref_row, problems):
    if row[0] != ref_row[0] or len(row[1]) != len(ref_row[1]):
        problems.append("report.csv header or row length differs from the reference")
        return
    for field, value, ref in zip(ref_row[0], row[1], ref_row[1]):
        try:
            a, b = float(value), float(ref)
        except ValueError:
            ok = value == ref
        else:
            ok = _close(a, b, max(1.0, abs(b)))
        if not ok:
            problems.append(f"report {field}={value}, reference {ref}")


def _compare_trajectory(traj, ref, problems):
    if traj["header"] != ref["header"] or traj["rows"] != ref["rows"]:
        problems.append("trajectory header or row count differs from the reference")
        return
    checks = (("sum", "abs_sum"), ("abs_sum", "abs_sum"), ("abs_max", "abs_max"), ("last_row", "abs_max"))
    for key, scale_key in checks:
        for col, value, r, scale in zip(ref["header"], traj[key], ref[key], ref[scale_key]):
            if not _close(value, r, scale):
                problems.append(f"trajectory {key} of {col} = {value!r}, reference {r!r}")


def compare_with_reference(observed, reference):
    """Problems per entry between an observed digest and the reference digest."""
    per_entry = [[] for _ in observed["entries"]]
    if observed["exit"] != reference["exit"]:
        for problems in per_entry:
            problems.append(f"exit {observed['exit']}, reference {reference['exit']}")
    if len(observed["entries"]) != len(reference["entries"]):
        for problems in per_entry:
            problems.append("entry count differs from the reference")
        return per_entry
    for problems, got, ref in zip(per_entry, observed["entries"], reference["entries"]):
        if got is None:
            continue
        _compare_report(got["report"], ref["report"], problems)
        _compare_trajectory(got["trajectory"], ref["trajectory"], problems)
    return per_entry


def check_invocation(verb, exit_code, outdir, expected, reference=None):
    """Check one invocation's artifacts.

    `expected` holds one dict per entry (dir, seed, d, agents, samples).
    Returns (problems per entry, observed digest); an empty list of
    problems means the entry is correct.
    """
    outdir = Path(outdir)
    per_entry = [[] for _ in expected]
    if exit_code not in (0, 1):
        for problems in per_entry:
            problems.append(f"exit {exit_code}")
    entries = [_check_entry(outdir / e["dir"], e, p) for e, p in zip(expected, per_entry)]

    verdicts = [None if e is None else dict(zip(*e["report"])).get("passed") == "1" for e in entries]
    if verb == "sweep":
        rows = _read_csv(outdir / "report.csv") if (outdir / "report.csv").is_file() else []
        for idx, (entry, problems) in enumerate(zip(entries, per_entry)):
            if entry is None:
                continue
            want = ["pass" if verdicts[idx] else "fail"] + entry["report"][1]
            if idx + 1 >= len(rows) or rows[idx + 1][1:] != want:
                problems.append("sweep report.csv row disagrees with the entry's report.csv")
    if None not in verdicts and exit_code in (0, 1) and (exit_code == 0) != all(verdicts):
        for problems in per_entry:
            problems.append(f"exit {exit_code} disagrees with the verdicts {verdicts}")

    observed = {"exit": exit_code, "entries": entries}
    if reference is not None:
        for problems, more in zip(per_entry, compare_with_reference(observed, reference)):
            problems.extend(more)
    return per_entry, observed
