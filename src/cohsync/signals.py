"""Bounded per-agent disturbance generators."""

import csv
from dataclasses import dataclass

import numpy as np


def chirp(i, t):
    """Frequency-swept sine, amplitude 0.1: 0.1 sin(0.1 i t + 0.01 t^2)."""
    i, t = np.asarray(i, dtype=float), np.asarray(t, dtype=float)
    return 0.1 * np.sin(0.1 * i * t + 0.01 * t * t)


def sawtooth(i, t):
    """Sawtooth 0.01 i t - round(0.01 i t), range [-0.5, 0.5].

    round is nearest integer with ties away from zero, so values at the
    tie points (e.g. i=2, t=25) are fixed by convention and reproducible
    bit for bit.
    """
    z = 0.01 * np.asarray(i, dtype=float) * np.asarray(t, dtype=float)
    return z - np.copysign(np.floor(np.abs(z) + 0.5), z)


@dataclass(frozen=True)
class DisturbanceSignal:
    """A disturbance kind plus a certified amplitude bound.

    Table signals hold samples with one column per agent.
    """

    kind: str
    bound: float
    table_times: np.ndarray = None
    table_values: np.ndarray = None


def zero_signal():
    """The identically zero disturbance."""
    return DisturbanceSignal(kind="zero", bound=0.0)


def chirp_signal():
    return DisturbanceSignal(kind="chirp", bound=0.1)


def sawtooth_signal():
    return DisturbanceSignal(kind="sawtooth", bound=0.5)


def table_signal(times, values):
    """Sampled disturbance, linearly interpolated between rows.

    times must be finite and strictly increasing; values has one row per
    sample and one column per agent. Queries outside [times[0], times[-1]]
    are refused rather than extrapolated, so the certified bound (the
    largest sample magnitude) is honest.
    """
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("table needs at least two sample times")
    if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
        raise ValueError("table times must be finite and strictly increasing")
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


def waveform(signal, agents):
    """The disturbance at an array of 1-based agent labels, as a function t -> w.

    The labels are checked once, here. t is a time or an array of times,
    and w has shape t.shape + labels.shape: entry [..., i] is, bit for
    bit, what the call at that one time gives at label i. A table is read
    at the labels' columns, and a query outside its tabulated range raises.
    """
    agents = np.asarray(agents, dtype=int)
    if np.any(agents < 1):
        raise ValueError("agent labels are 1-based")

    def times(t):
        # t with one unit axis per label axis, so that it broadcasts against the labels
        t = np.asarray(t, dtype=float)
        return t.reshape(t.shape + (1,) * agents.ndim)

    if signal.kind == "zero":
        return lambda t: np.zeros(np.shape(t) + agents.shape, dtype=float)
    if signal.kind == "chirp":
        return lambda t: chirp(agents, times(t))
    if signal.kind == "sawtooth":
        return lambda t: sawtooth(agents, times(t))
    if signal.kind == "custom-table":
        return _table_waveform(signal.table_times, signal.table_values, agents, times)
    raise ValueError(f"unknown disturbance kind {signal.kind!r}")


def _table_waveform(ts, values, agents, times):
    if np.any(agents > values.shape[1]):
        raise ValueError(f"table has {values.shape[1]} agent columns, got label {agents.max()}")
    values = values[:, agents - 1]
    # integrator stage times can land an ulp past the grid (t_prev + dt
    # overshoots t_end in floating point); clamp within a tiny guard band
    slop = 1e-12 * max(1.0, abs(ts[0]), abs(ts[-1]))

    def at(t):
        t = np.asarray(t, dtype=float)
        outside = (t < ts[0] - slop) | (t > ts[-1] + slop)
        if outside.any():
            raise ValueError(
                f"table disturbance queried at t={float(t[outside][0])}, outside the tabulated range "
                f"[{ts[0]}, {ts[-1]}]; extrapolation is refused"
            )
        t = np.clip(t, ts[0], ts[-1])
        k = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        lam = times((t - ts[k]) / (ts[k + 1] - ts[k]))
        return (1.0 - lam) * values[k] + lam * values[k + 1]

    return at

