"""Sweep the benchmark across fractal generations and compare reports.

`cohsync sweep` is the one sweep path. A config's `sweep:` list holds
override mappings; each is deep-merged onto the base config and run in
order, into its own artifact directory, and a failing entry is recorded in
the aggregate report instead of aborting the batch. This demo writes such a
config to a temporary directory and runs it through the CLI entry point.
Short horizon here so the demo stays quick; the gains have not converged
yet at t=3, which the reports dutifully flag.
"""

import csv
import tempfile
from pathlib import Path

import yaml

from cohsync import cli


def main():
    config = {
        "name": "gens",
        "graph": {"kind": "vicsek", "generation": 1, "directed": True},
        "protocol": {"d": 0.5},
        "disturbance": {"kind": "chirp"},
        "integration": {"dt": 1e-3, "t_end": 3.0, "record_every": 50, "seed": 7},
        "checks": {"bound": 1.0},
        "output": {"formats": ["report"]},
        "sweep": [{"graph": {"generation": gen}} for gen in (1, 2, 3)]
        # d above the ellipsoid level of delta = 1: refused, the others still run
        + [{"name": "broken", "protocol": {"delta": 1.0, "d": 0.7}}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gens.yaml"
        path.write_text(yaml.safe_dump(config))
        out = Path(tmp) / "out"
        code = cli.main(["sweep", str(path), "--out", str(out), "--quiet"])
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        entry_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())

    print(f"{'entry':>5} {'agents':>6} {'tail max V':>12} {'settled':>8} {'max gain':>9}")
    for row in rows:
        if row["status"].startswith("error"):
            print(f"{row['entry']:>5} {row['status']}")
            continue
        settled = "yes" if row["settled"] == "1" else "no"
        print(f"{row['entry']:>5} {row['n_agents']:>6} {float(row['tail_max_Vi']):12.5f} "
              f"{settled:>8} {float(row['max_final_gain']):9.3f}")

    print(f"\nper-entry artifact directories: {', '.join(entry_dirs)}")
    print(f"sweep exit code: {code} (1: some entry failed a check or was refused)")


if __name__ == "__main__":
    main()
