"""Bounded per-agent disturbance generators."""

import csv
from dataclasses import dataclass

import numpy as np

KINDS = ("zero", "chirp", "sawtooth", "custom-table")


def chirp(i, t):
    """Frequency-swept sine, amplitude 0.1: 0.1 sin(0.1 i t + 0.01 t^2)."""
    i = np.asarray(i, dtype=float)
    t = np.asarray(t, dtype=float)
    return 0.1 * np.sin(0.1 * i * t + 0.01 * t * t)


def sawtooth(i, t):
    """Sawtooth 0.01 i t - round(0.01 i t), range [-0.5, 0.5].

    round is nearest integer with ties away from zero, so values at the
    tie points (e.g. i=2, t=25) are fixed by convention and reproducible
    bit for bit.
    """
    i = np.asarray(i, dtype=float)
    t = np.asarray(t, dtype=float)
    z = 0.01 * i * t
    return z - np.copysign(np.floor(np.abs(z) + 0.5), z)


@dataclass(frozen=True)
class DisturbanceSignal:
    """A disturbance kind plus a certified amplitude bound.

    index_map, when present, reroutes agent labels: the waveform seen at
    1-based agent position p is the one the original label index_map[p-1]
    would produce. Table signals hold samples with one column per agent.
    """

    kind: str
    bound: float
    table_times: np.ndarray = None
    table_values: np.ndarray = None
    index_map: np.ndarray = None


def zero_signal():
    """The identically zero disturbance."""
    return DisturbanceSignal(kind="zero", bound=0.0)


def chirp_signal():
    return DisturbanceSignal(kind="chirp", bound=0.1)


def sawtooth_signal():
    return DisturbanceSignal(kind="sawtooth", bound=0.5)


def table_signal(times, values):
    """Sampled disturbance, linearly interpolated between rows.

    times must be strictly increasing; values has one row per sample and
    one column per agent. Queries outside [times[0], times[-1]] are
    refused rather than extrapolated, so the certified bound (the largest
    sample magnitude) is honest.
    """
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("table needs at least two sample times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("table times must be strictly increasing")
    if values.shape[0] != len(times):
        raise ValueError("one row of values per sample time")
    if not np.isfinite(values).all():
        raise ValueError("table values must be finite")
    times = times.copy()
    values = values.copy()
    times.setflags(write=False)
    values.setflags(write=False)
    return DisturbanceSignal(
        kind="custom-table",
        bound=float(np.abs(values).max()),
        table_times=times,
        table_values=values,
    )


def load_table(path):
    """Read a table signal from CSV with header ``t,w1,...,wN``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty table file")
    header = [c.strip() for c in rows[0]]
    if header[:1] != ["t"] or len(header) < 2:
        raise ValueError(f"{path}: header must be t,w1,...,wN")
    for k, name in enumerate(header[1:], start=1):
        if name != f"w{k}":
            raise ValueError(f"{path}: column {k + 1} must be named w{k}, got {name!r}")
    data = np.array([[float(c) for c in row] for row in rows[1:] if row], dtype=float)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"{path}: every row needs {len(header)} values")
    return table_signal(data[:, 0], data[:, 1:])


def evaluate_all(signal, agents, t):
    """Disturbance values for an array of 1-based agent labels at time t."""
    agents = np.asarray(agents, dtype=int)
    if np.any(agents < 1):
        raise ValueError("agent labels are 1-based")
    if signal.index_map is not None:
        agents = signal.index_map[agents - 1]
    if signal.kind == "zero":
        return np.zeros(agents.shape, dtype=float)
    if signal.kind == "chirp":
        return chirp(agents, t)
    if signal.kind == "sawtooth":
        return sawtooth(agents, t)
    if signal.kind == "custom-table":
        ts = signal.table_times
        # integrator stage times can land an ulp past the grid (t_prev + dt
        # overshoots t_end in floating point); clamp within a tiny guard band
        slop = 1e-12 * max(1.0, abs(ts[0]), abs(ts[-1]))
        if t < ts[0] - slop or t > ts[-1] + slop:
            raise ValueError(
                f"table disturbance queried at t={t}, outside the tabulated range "
                f"[{ts[0]}, {ts[-1]}]; extrapolation is refused"
            )
        t = min(max(t, ts[0]), ts[-1])
        k = int(np.searchsorted(ts, t, side="right")) - 1
        k = min(max(k, 0), len(ts) - 2)
        lam = (t - ts[k]) / (ts[k + 1] - ts[k])
        row = (1.0 - lam) * signal.table_values[k] + lam * signal.table_values[k + 1]
        if np.any(agents > row.shape[0]):
            raise ValueError(f"table has {row.shape[0]} agent columns, got label {agents.max()}")
        return row[agents - 1]
    raise ValueError(f"unknown disturbance kind {signal.kind!r}")


def relabel(signal, perm):
    """Signal for a node-relabeled network: node i becomes node perm[i] (0-based).

    The relabeled signal produces, at each new position, the waveform its
    original agent carried, which is what a consistent renaming of the
    whole closed loop requires.
    """
    perm = np.asarray(perm, dtype=int)
    n = len(perm)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    base = signal.index_map if signal.index_map is not None else np.arange(1, n + 1)
    if len(base) != n:
        raise ValueError("permutation length does not match the signal's agent count")
    new_map = base[inv]
    new_map = np.asarray(new_map, dtype=int)
    new_map.setflags(write=False)
    return DisturbanceSignal(
        kind=signal.kind,
        bound=signal.bound,
        table_times=signal.table_times,
        table_values=signal.table_values,
        index_map=new_map,
    )
