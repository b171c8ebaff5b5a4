"""Closed-loop network simulation: fixed-step integration, stage-wise deadzone."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import yaml

from . import signals as sigs
from .graph import LaplacianOperator, WeightedDigraph, has_directed_spanning_tree
from .linalg import AgentModel, AssumptionError, is_stabilizable
from .protocol import ProtocolParams, control_all, gain_rates, levels

STATE_LIMIT = 1e12  # abort threshold for any state entry


class DivergenceError(RuntimeError):
    """The state blew up.

    Carries the first offending 1-based agent, the time, and whatever
    part of the trajectory was recorded before the abort.
    """

    def __init__(self, message, agent=None, time=None, partial=None):
        super().__init__(message)
        self.agent = agent
        self.time = time
        self.partial = partial


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs, checked once, when it is built.

    Construction, and so dataclasses.replace, enforces the standing
    assumptions (AssumptionError) and refuses bad values (ValueError),
    among them a table disturbance that does not cover every step and
    every agent of the run.
    """

    model: AgentModel
    graph: WeightedDigraph
    params: ProtocolParams
    disturbance: sigs.DisturbanceSignal
    x0: np.ndarray
    rho0: np.ndarray = 0.0
    t_end: float = 30.0
    dt: float = 1e-3
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step dt")
        if not np.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt = {self.t_end} / {self.dt} is not a finite step count")
        if int(self.record_every) < 1:
            raise ValueError("record_every must be >= 1")
        N = self.graph.n_nodes
        n = self.model.n
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.size != N * n:
            raise ValueError(f"x0 must stack {N} agents x {n} states = {N * n} values, got {x0.size}")
        bad = ~np.isfinite(x0.reshape(N, n)).all(axis=1)
        if bad.any():
            raise ValueError(f"initial state of agent {int(np.argmax(bad)) + 1} is not finite")
        rho0 = np.asarray(self.rho0, dtype=float).reshape(-1)
        if rho0.size not in (1, N):
            raise ValueError(f"rho0 must be a scalar or one value per agent ({N})")
        if not np.all(np.isfinite(rho0) & (rho0 >= 0)):
            raise ValueError("initial gains must be finite and nonnegative")
        if self.params.n != n:
            raise ValueError("protocol matrices do not match the model state dimension")
        sig = self.disturbance
        if sig.table_times is not None:
            # simulate integrates self.steps steps and asks for labels 1..N
            t0, t1 = float(sig.table_times[0]), float(sig.table_times[-1])
            horizon = self.steps * float(self.dt)
            cols = sig.table_values.shape[1]
            label = N if sig.index_map is None else int(max(sig.index_map))
            if t0 > 0 or t1 < horizon or cols < label:
                raise ValueError(
                    f"table covers [{t0:.6g}, {t1:.6g}] for agents 1..{cols} but the run needs "
                    f"[0, {horizon:.6g}] for agents 1..{label}, and extrapolation is refused"
                )
        if not is_stabilizable(self.model.A, self.model.B):
            raise AssumptionError("(A, B) is not stabilizable")
        if not np.isfinite(sig.bound):
            raise AssumptionError("disturbance signal must have a finite amplitude bound")
        if not has_directed_spanning_tree(self.graph):
            raise AssumptionError("the communication graph has no directed spanning tree")

    @property
    def steps(self):
        """Number of fixed steps simulate takes: t_end / dt, rounded."""
        return int(round(self.t_end / self.dt))

    @cached_property
    def agents(self):
        """The 1-based agent labels 1..N, the disturbance's row index; built once."""
        labels = np.arange(1, self.graph.n_nodes + 1)
        labels.setflags(write=False)
        return labels


@dataclass
class Trajectory:
    """Time-sampled record of a closed-loop run: the state (x, rho) and its config.

    times (S,), states (S, N, n) and gains (S, N) share the leading sample
    axis. Everything else follows from them, the graph and the protocol:
    the disagreements, controls and levels are derived on access, in one
    vectorized pass over all samples.
    """

    times: np.ndarray
    states: np.ndarray
    gains: np.ndarray
    config: SimConfig

    @property
    def n_samples(self):
        return self.times.shape[0]

    @property
    def n_agents(self):
        return self.states.shape[1]

    @property
    def zetas(self):
        """Disagreements zeta_i = sum_j l_ij x_j, shape (S, N, n)."""
        return LaplacianOperator(self.config.graph)(self.states)

    @property
    def controls(self):
        """Control inputs -rho_i B'P zeta_i, shape (S, N, m)."""
        return control_all(self.gains, self.zetas, self.config.params)

    @property
    def vi_values(self):
        """Levels zeta_i' P zeta_i, shape (S, N)."""
        return levels(self.zetas, self.config.params)


def default_initial_state(n_agents, n_states, seed, span=5.0):
    """Seeded uniform initial states in [-span, span], stacked agent by agent."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-span, span, size=(n_agents, n_states)).reshape(-1)


def rhs(cfg, L, t, x, rho):
    """Time derivative (xdot, rho rates) of the closed loop at time t.

    x holds one agent state per row, shape (N, n), rho the N gains; L is
    the graph's LaplacianOperator, built once by the caller.
    """
    Z = L(x)
    rates = gain_rates(Z, cfg.params)
    U = control_all(rho, Z, cfg.params)
    w = sigs.evaluate_all(cfg.disturbance, cfg.agents, t)
    model = cfg.model
    return x @ model.A.T + U @ model.B.T + w[:, None] * model.E.T, rates


def simulate(cfg):
    """Integrate the closed loop with the classical fixed-step 4th-order scheme.

    The deadzone condition is re-evaluated at every integrator stage; no
    event detection is attempted (the gain rate is bounded, and the
    discontinuity enters the state dynamics only through the continuous
    gains, so the per-crossing error is O(dt) on a measure-zero set).
    Every rate is a sum of squares or zero, so no step lowers a gain.
    The coupling L x is applied by one graph.LaplacianOperator, built here
    once: a dense product on small graphs, per edge on large ones.
    Samples are recorded every record_every steps plus the final state.
    """
    N = cfg.graph.n_nodes
    L = LaplacianOperator(cfg.graph)
    dt = float(cfg.dt)
    half = 0.5 * dt
    every = int(cfg.record_every)

    x = np.asarray(cfg.x0, dtype=float).reshape(N, cfg.model.n).copy()
    rho0 = np.asarray(cfg.rho0, dtype=float).reshape(-1)
    rho = np.full(N, rho0[0]) if rho0.size == 1 else rho0.copy()

    # each step rebinds x and rho to fresh arrays, so the record keeps references
    times, states, gains = [], [], []
    t = 0.0
    for k in range(cfg.steps):
        if k % every == 0:
            times.append(t)
            states.append(x)
            gains.append(rho)
        k1x, k1r = rhs(cfg, L, t, x, rho)
        k2x, k2r = rhs(cfg, L, t + half, x + half * k1x, rho + half * k1r)
        k3x, k3r = rhs(cfg, L, t + half, x + half * k2x, rho + half * k2r)
        k4x, k4r = rhs(cfg, L, t + dt, x + dt * k3x, rho + dt * k3r)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        t = (k + 1) * dt
        if not np.abs(x).max() <= STATE_LIMIT:  # NaN fails the comparison too
            bad = ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > STATE_LIMIT)
            agent = int(np.argmax(bad)) + 1
            raise DivergenceError(
                f"state diverged for agent {agent} at t={t:.6g} "
                f"(non-finite or beyond {STATE_LIMIT:g})",
                agent=agent,
                time=t,
                partial=Trajectory(np.array(times), np.array(states), np.array(gains), cfg),
            )
    times.append(t)
    states.append(x)
    gains.append(rho)

    traj = Trajectory(np.array(times), np.array(states), np.array(gains), cfg)
    drops = np.diff(traj.gains, axis=0).min() if traj.n_samples > 1 else 0.0
    if drops < -1e-12:
        raise RuntimeError(f"recorded gains decreased by {-drops:.3e}; integrator invariant broken")
    return traj


def write_trajectory_csv(traj, path):
    """Write one row per (sample, agent): t, agent, x_1..x_n, rho, u_1..u_m, zeta_norm, V_i.

    Floats are written with repr, so equal trajectories produce
    byte-identical files; lines end in the csv module's "\\r\\n".
    """
    n = traj.states.shape[2]
    U = traj.controls
    V = traj.vi_values
    znorm = np.linalg.norm(traj.zetas, axis=2)
    m = U.shape[2]
    header = (
        ["t", "agent"]
        + [f"x_{j + 1}" for j in range(n)]
        + ["rho"]
        + [f"u_{j + 1}" for j in range(m)]
        + ["zeta_norm", "V_i"]
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for s, t in enumerate(traj.times.tolist()):
            rows = np.column_stack([traj.states[s], traj.gains[s], U[s], znorm[s], V[s]]).tolist()
            fh.writelines(f"{t!r},{a},{','.join(map(repr, row))}\r\n" for a, row in enumerate(rows, 1))


def write_metadata(path, meta):
    """YAML sidecar (seed, config echo, version); sorted keys keep bytes stable."""
    with open(path, "w") as fh:
        yaml.safe_dump(meta, fh, sort_keys=True)
