"""Checks of coherency, settling and gain convergence, judged as a run's samples arrive, and the run report."""

from dataclasses import dataclass, fields

import numpy as np

from .protocol import minimal_delta


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


class Verdict:
    """A run's checks as a sink of sim.simulate_union: it keeps running figures only, and summary() judges them.

    Called as verdict(t, X, rho, zeta_norm, U, V) on each of cfg.samples
    samples in order. P and the coherency spec come from cfg.params; bound
    defaults to the protocol's ellipsoid level delta_bar. It keeps the time
    of the sample after the last one with some |zeta_i| > delta, and over
    the tail window, whose first sample is known from cfg.samples, each
    agent's largest |zeta_i|, the largest level and each agent's gain range.
    """

    def __init__(self, cfg, bound=None, tail_fraction=0.2, tol=1e-3, require_settled=False, label="run"):
        self.params = cfg.params
        bound = self.params.spec.delta_bar if bound is None else bound
        if bound <= 0:
            raise ValueError("bound must be positive")
        if not 0 < tail_fraction < 1:
            raise ValueError("tail_fraction must lie in (0, 1)")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.bound, self.tol, self.require_settled, self.label = float(bound), tol, require_settled, label
        self.tail = cfg.samples - max(1, int(round(tail_fraction * cfg.samples)))  # the window's first sample
        self.s, self.since = 0, None  # samples seen; the time from which every |zeta_i| <= delta
        self.norms = self.high = self.vmax = -np.inf  # over the tail: per agent, but for the largest level
        self.low = np.inf

    def __call__(self, t, X, rho, zeta_norm, U, V):
        if not (zeta_norm <= self.params.spec.delta).all():
            self.since = None
        elif self.since is None:
            self.since = float(t)
        if self.s >= self.tail:
            self.norms, self.vmax = np.maximum(self.norms, zeta_norm), max(self.vmax, V.max())
            self.low, self.high, self.final_gain = np.minimum(self.low, rho), np.maximum(self.high, rho), rho.max()
        self.s += 1

    def summary(self):
        """The RunSummary of the samples seen."""
        spec, variation = self.params.spec, self.high - self.low
        converged = variation < self.tol
        settled, bound_ok = self.since is not None, bool(self.vmax <= self.bound)
        gains_converged = bool(converged.all())
        return RunSummary(
            label=self.label,
            n_agents=self.norms.size,
            d=spec.d,
            delta=spec.delta,
            delta_bar=spec.delta_bar,
            min_delta=minimal_delta(spec.d, self.params.P),
            bound=self.bound,
            bound_ok=bound_ok,
            tail_max_Vi=float(self.vmax),
            settled=settled,
            T=self.since,
            tail_max_zeta_norm=float(self.norms.max()),
            worst_agent=int(np.argmax(self.norms)) + 1,
            gains_converged=gains_converged,
            n_converged=int(converged.sum()),
            max_final_gain=float(self.final_gain),
            max_gain_variation=float(variation.max()),
            passed=bound_ok and gains_converged and (settled or not self.require_settled),
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
