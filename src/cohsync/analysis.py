"""Post-run checks: coherency levels, settling, gain convergence, run reports."""

from dataclasses import dataclass

import numpy as np

from .protocol import minimal_delta


def _tail_count(n_samples, tail_fraction):
    if not 0 < tail_fraction < 1:
        raise ValueError("tail_fraction must lie in (0, 1)")
    return max(1, int(round(tail_fraction * n_samples)))


def coherence_levels(traj):
    """Per-sample, per-agent coherency levels |zeta_i(t)|, shape (S, N)."""
    return np.linalg.norm(traj.zetas, axis=2)


@dataclass
class SettlingReport:
    """Sample-based settling verdict.

    T is the earliest recorded time from which every agent's coherency
    level stays at or below the target for the rest of the horizon; the
    check runs on recorded samples only, so sample_dt states the
    discretization it was made at. worst_agent is the 1-based agent with
    the largest tail level.
    """

    settled: bool
    T: float
    worst_agent: int
    tail_max_zeta_norm: float
    tail_max_Vi: float
    sample_dt: float


def settling_time(traj, delta, tail_fraction=0.2):
    """Scan for the settling time at level delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    levels = coherence_levels(traj)
    ok = (levels <= delta).all(axis=1)
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    settled = bool(suffix_ok.any())
    T = float(traj.times[int(np.argmax(suffix_ok))]) if settled else None
    ntail = _tail_count(traj.n_samples, tail_fraction)
    tail_levels = levels[-ntail:]
    sample_dt = float(np.median(np.diff(traj.times))) if traj.n_samples > 1 else 0.0
    return SettlingReport(
        settled=settled,
        T=T,
        worst_agent=int(np.argmax(tail_levels.max(axis=0))) + 1,
        tail_max_zeta_norm=float(tail_levels.max()),
        tail_max_Vi=float(traj.vi_values[-ntail:].max()),
        sample_dt=sample_dt,
    )


@dataclass
class GainReport:
    """Final adaptive gains and their variation over the tail window."""

    final: np.ndarray
    variation: np.ndarray
    converged: np.ndarray
    tail_fraction: float
    tol: float

    @property
    def all_converged(self):
        return bool(self.converged.all())


def gain_report(traj, tail_fraction=0.2, tol=1e-3):
    """Per-agent gain convergence: converged means variation < tol over the tail."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    ntail = _tail_count(traj.n_samples, tail_fraction)
    tail = traj.gains[-ntail:]
    variation = tail.max(axis=0) - tail.min(axis=0)
    return GainReport(
        final=traj.gains[-1].copy(),
        variation=variation,
        converged=variation < tol,
        tail_fraction=tail_fraction,
        tol=tol,
    )


def check_delta_level(traj, bound, tail_fraction=0.2):
    """Tail check of the ellipsoid bound.

    Returns (ok, tail maximum) of the levels zeta_i' P zeta_i: ok is True
    iff the maximum over the trailing window stays at or below bound.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    ntail = _tail_count(traj.n_samples, tail_fraction)
    tail_max = float(traj.vi_values[-ntail:].max())
    return tail_max <= bound, tail_max


@dataclass
class RunSummary:
    """Flat record of one run's checks; the serialization helpers read from here."""

    label: str
    n_agents: int
    d: float
    delta: float
    delta_bar: float
    min_delta: float
    bound: float
    bound_ok: bool
    tail_max_Vi: float
    settled: bool
    T: float
    tail_max_zeta_norm: float
    worst_agent: int
    gains_converged: bool
    n_converged: int
    max_final_gain: float
    max_gain_variation: float

    @property
    def passed(self):
        return self.bound_ok and self.gains_converged


def summarize(traj, params, bound=None, tail_fraction=0.2, tol=1e-3, label="run"):
    """Run every standard check and flatten the results into a RunSummary.

    bound defaults to the protocol's ellipsoid level delta_bar.
    """
    spec = params.spec
    if bound is None:
        bound = spec.delta_bar
    bound_ok, tail_max_vi = check_delta_level(traj, bound, tail_fraction)
    settle = settling_time(traj, spec.delta, tail_fraction)
    gains = gain_report(traj, tail_fraction, tol)
    return RunSummary(
        label=label,
        n_agents=traj.n_agents,
        d=spec.d,
        delta=spec.delta,
        delta_bar=spec.delta_bar,
        min_delta=minimal_delta(spec.d, params.P),
        bound=float(bound),
        bound_ok=bool(bound_ok),
        tail_max_Vi=tail_max_vi,
        settled=settle.settled,
        T=settle.T,
        tail_max_zeta_norm=settle.tail_max_zeta_norm,
        worst_agent=settle.worst_agent,
        gains_converged=gains.all_converged,
        n_converged=int(gains.converged.sum()),
        max_final_gain=float(gains.final.max()),
        max_gain_variation=float(gains.variation.max()),
    )


def summary_text(s):
    """Human-readable report block for one run."""
    settle = f"yes, T = {s.T:.6g} s" if s.settled else "no"
    lines = [
        f"run {s.label}: {'PASS' if s.passed else 'FAIL'}",
        f"  agents: {s.n_agents}",
        f"  deadzone d = {s.d:.6g}, target delta = {s.delta:.6g} "
        f"(ellipsoid level delta_bar = {s.delta_bar:.6g}, minimal admissible delta = {s.min_delta:.6g})",
        f"  tail max zeta'Pzeta = {s.tail_max_Vi:.6g} vs bound {s.bound:.6g} "
        f"-> {'ok' if s.bound_ok else 'VIOLATED'}",
        f"  settled at level delta: {settle} "
        f"(worst agent {s.worst_agent}, tail max |zeta| = {s.tail_max_zeta_norm:.6g})",
        f"  gains: {s.n_converged}/{s.n_agents} converged, "
        f"max final = {s.max_final_gain:.6g}, max tail variation = {s.max_gain_variation:.3g}",
    ]
    return "\n".join(lines)


REPORT_CSV_HEADER = [
    "label",
    "n_agents",
    "d",
    "delta",
    "delta_bar",
    "min_delta",
    "bound",
    "bound_ok",
    "tail_max_Vi",
    "settled",
    "T",
    "tail_max_zeta_norm",
    "worst_agent",
    "gains_converged",
    "n_converged",
    "max_final_gain",
    "max_gain_variation",
    "passed",
]


def summary_csv_row(s):
    """Machine-readable row matching REPORT_CSV_HEADER."""
    return [
        s.label,
        str(s.n_agents),
        repr(s.d),
        repr(s.delta),
        repr(s.delta_bar),
        repr(s.min_delta),
        repr(s.bound),
        str(int(s.bound_ok)),
        repr(s.tail_max_Vi),
        str(int(s.settled)),
        "" if s.T is None else repr(s.T),
        repr(s.tail_max_zeta_norm),
        str(s.worst_agent),
        str(int(s.gains_converged)),
        str(s.n_converged),
        repr(s.max_final_gain),
        repr(s.max_gain_variation),
        str(int(s.passed)),
    ]
