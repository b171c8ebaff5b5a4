"""Bounded per-agent disturbance generators."""

import csv
from dataclasses import dataclass

import numpy as np

KINDS = ("zero", "chirp", "sawtooth", "custom-table")


def chirp(i, t):
    """Frequency-swept sine, amplitude 0.1: 0.1 sin(0.1 i t + 0.01 t^2)."""
    return _chirp(0.1 * np.asarray(i, dtype=float), np.asarray(t, dtype=float))


def _chirp(rate, t):
    # the chirp of agent i from its rate 0.1 i: 0.1 i t rounds as (0.1 i) t, so
    # a waveform that scales its labels once gives chirp's values bit for bit
    return 0.1 * np.sin(rate * t + 0.01 * t * t)


def sawtooth(i, t):
    """Sawtooth 0.01 i t - round(0.01 i t), range [-0.5, 0.5].

    round is nearest integer with ties away from zero, so values at the
    tie points (e.g. i=2, t=25) are fixed by convention and reproducible
    bit for bit.
    """
    return _sawtooth(0.01 * np.asarray(i, dtype=float), np.asarray(t, dtype=float))


def _sawtooth(rate, t):
    # the sawtooth of agent i from its rate 0.01 i, as _chirp
    z = rate * t
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


def waveform(signal, agents):
    """The disturbance at an array of 1-based agent labels, as a function t -> w.

    The labels are checked, routed through index_map and scaled once, here,
    so each call does only the work that depends on t. t is a time or an
    array of times, and w has shape t.shape + labels.shape: entry [..., i]
    is, bit for bit, what the call at that one time gives at label i. A
    table is read at the labels' columns, and a query outside its
    tabulated range raises.
    """
    agents = np.asarray(agents, dtype=int)
    if np.any(agents < 1):
        raise ValueError("agent labels are 1-based")
    if signal.index_map is not None:
        agents = signal.index_map[agents - 1]

    def times(t):
        # t with one unit axis per label axis, so that it broadcasts against the labels
        t = np.asarray(t, dtype=float)
        return t.reshape(t.shape + (1,) * agents.ndim)

    if signal.kind == "zero":
        return lambda t: np.zeros(np.shape(t) + agents.shape, dtype=float)
    if signal.kind == "chirp":
        rate = 0.1 * agents.astype(float)
        return lambda t: _chirp(rate, times(t))
    if signal.kind == "sawtooth":
        rate = 0.01 * agents.astype(float)
        return lambda t: _sawtooth(rate, times(t))
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
