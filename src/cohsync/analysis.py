"""Post-run checks of coherency, settling and gain convergence, and the run report."""

from dataclasses import dataclass, fields

import numpy as np

from .protocol import feedback, minimal_delta
from .sim import chunks


@dataclass
class RunSummary:
    """Flat record of one run's checks, judged on the recorded samples.

    The tail window is the last tail_fraction of the samples, at least one.
    bound_ok: the tail maximum of the levels zeta_i' P zeta_i is at or
    below bound. T is the earliest recorded time from which every agent's
    coherency level |zeta_i| stays at or below delta for the rest of the
    horizon, None when there is none; worst_agent is the 1-based agent
    with the largest tail level. An agent's gain has converged when it
    varies by less than tol over the tail window. The run passed when
    bound_ok and gains_converged hold, and settled too if require_settled.
    """

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
    passed: bool


def summarize(traj, bound=None, tail_fraction=0.2, tol=1e-3, require_settled=False, label="run"):
    """Run every standard check on traj in one pass over its disagreements, and judge it.

    P and the coherency spec come from traj.config.params; bound defaults
    to the protocol's ellipsoid level delta_bar. The pass takes the record
    chunk by chunk (sim.chunks, traj.zetas_at) and keeps running figures
    only: per sample, whether every |zeta_i| <= delta, and over the tail
    window each agent's largest |zeta_i| and the largest level.
    """
    params = traj.config.params
    spec = params.spec
    bound = spec.delta_bar if bound is None else bound
    if bound <= 0:
        raise ValueError("bound must be positive")
    if not 0 < tail_fraction < 1:
        raise ValueError("tail_fraction must lie in (0, 1)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ntail = max(1, int(round(tail_fraction * traj.n_samples)))

    tail_start = traj.n_samples - ntail
    ok = np.empty(traj.n_samples, dtype=bool)
    tail_norms, tail_vi_max = np.full(traj.n_agents, -np.inf), -np.inf
    for samples in chunks(traj):
        Z = traj.zetas_at(samples)
        norms = np.linalg.norm(Z, axis=1)
        ok[samples] = (norms <= spec.delta).all(axis=1)
        k = max(0, tail_start - samples.start)  # the chunk's first sample in the tail window
        if k < norms.shape[0]:
            tail_norms = np.maximum(tail_norms, norms[k:].max(axis=0))
            tail_vi_max = np.maximum(tail_vi_max, feedback(traj.gains[samples][k:], Z[k:], params, spec.d)[2].max())
    tail_vi_max = float(tail_vi_max)
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    settled = bool(suffix_ok.any())
    bound_ok = bool(tail_vi_max <= bound)

    gains = traj.gains[-ntail:]
    variation = gains.max(axis=0) - gains.min(axis=0)
    converged = variation < tol
    gains_converged = bool(converged.all())
    return RunSummary(
        label=label,
        n_agents=traj.n_agents,
        d=spec.d,
        delta=spec.delta,
        delta_bar=spec.delta_bar,
        min_delta=minimal_delta(spec.d, params.P),
        bound=float(bound),
        bound_ok=bound_ok,
        tail_max_Vi=tail_vi_max,
        settled=settled,
        T=float(traj.times[int(np.argmax(suffix_ok))]) if settled else None,
        tail_max_zeta_norm=float(tail_norms.max()),
        worst_agent=int(np.argmax(tail_norms)) + 1,
        gains_converged=gains_converged,
        n_converged=int(converged.sum()),
        max_final_gain=float(traj.gains[-1].max()),
        max_gain_variation=float(variation.max()),
        passed=bound_ok and gains_converged and (settled or not require_settled),
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


REPORT_CSV_HEADER = [f.name for f in fields(RunSummary)]


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_csv_row(s):
    """Machine-readable row matching REPORT_CSV_HEADER; floats are written with repr."""
    return [_csv_cell(getattr(s, name)) for name in REPORT_CSV_HEADER]
