"""Closed-loop network simulation: fixed-step integration, stage-wise deadzone."""

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import yaml

from . import signals as sigs
from .graph import LaplacianOperator, WeightedDigraph, has_directed_spanning_tree
from .linalg import AgentModel, AssumptionError, is_stabilizable
from .protocol import ProtocolParams, feedback

STATE_LIMIT = 1e12  # abort threshold for any state entry

# bytes of the disturbance terms simulate_union evaluates ahead at once: a block
# of steps, each with its three stage times, of (N, n) terms each
BLOCK_BYTES = 256 * 1024


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
        return feedback(self.gains, self.zetas, self.config.params)[1]

    @property
    def vi_values(self):
        """Levels zeta_i' P zeta_i, shape (S, N)."""
        return feedback(self.gains, self.zetas, self.config.params)[2]


INITIAL_SPAN = 5.0  # half-width of the box default_initial_state draws from


def default_initial_state(n_agents, n_states, seed):
    """Seeded uniform initial states in [-INITIAL_SPAN, INITIAL_SPAN], stacked agent by agent."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-INITIAL_SPAN, INITIAL_SPAN, size=(n_agents, n_states)).reshape(-1)


@dataclass(frozen=True)
class ClosedLoop:
    """What rhs reads of a closed loop: the protocol params, and the model's A' and B' bound once."""

    params: ProtocolParams
    At: np.ndarray
    Bt: np.ndarray


def rhs(loop, L, wE, x, rho):
    """Time derivative (xdot, rho rates) of the closed loop at one stage.

    loop is a ClosedLoop. x holds one agent state per row, shape (N, n),
    rho the N gains; L is the LaplacianOperator of the graph (or graphs),
    built once by the caller. wE is the stage's disturbance term w(t) E',
    shape (N, n): the disturbance does not depend on the state, so the
    caller evaluates it ahead. One protocol product gives every agent's
    rate and input (protocol.feedback), and xdot = x A' + U B' + w E' is
    assembled in place.
    """
    rates, U = feedback(rho, L(x), loop.params)[:2]
    xdot = x @ loop.At
    xdot += U @ loop.Bt
    xdot += wE
    return xdot, rates


def can_join(a, b):
    """Whether runs a and b can share one closed loop: they differ at most in graph, x0 and rho0.

    That takes the same model, P and spec (so one deadzone d), the same
    step, step count and recording grid, and the same disturbance kind
    and bound. A table disturbance is read by column per run, so a run
    that has one never joins another.
    """
    return (
        a.disturbance.table_times is None
        and b.disturbance.table_times is None
        and (a.disturbance.kind, a.disturbance.bound) == (b.disturbance.kind, b.disturbance.bound)
        and all(np.array_equal(getattr(a.model, k), getattr(b.model, k)) for k in "ABE")
        and np.array_equal(a.params.P, b.params.P)
        and a.params.spec == b.params.spec
        and (a.dt, a.steps, a.record_every) == (b.dt, b.steps, b.record_every)
    )


def simulate_union(cfgs):
    """Integrate runs that can_join as one closed loop; return one Trajectory per run, in order.

    The protocol is fully distributed and its design (P, d) does not
    depend on the graph, so runs that share it are one closed loop over
    the disjoint union of their graphs, whose Laplacian is block-diagonal;
    agent i of run k is row i of that run's block. This is the one
    integrator: the classical fixed-step 4th-order scheme, with the
    deadzone condition re-evaluated at every stage and no event detection
    (the gain rate is bounded, and the discontinuity enters the state
    dynamics only through the continuous gains, so the per-crossing error
    is O(dt) on a measure-zero set). Every rate is a sum of squares or
    zero, so no step lowers a gain. The coupling is one
    graph.LaplacianOperator over all the graphs, and the disturbance one
    signals.waveform at each run's own labels, concatenated; both are
    built here once, so each stage is one coupling product and one
    protocol product (protocol.feedback). The disturbance does not depend
    on the state: it is evaluated a block of steps ahead, at every step's
    t_k, t_k + dt/2 and t_k + dt with t_k = k dt, in one call of the
    waveform and one product with E', and each stage adds its slice (the
    two midpoint stages share one). The block holds BLOCK_BYTES of terms,
    and at least one step.

    Samples are recorded every record_every steps plus the final state,
    into one preallocated record; each run's trajectory holds views of its
    agents' columns. The union only adds zeros to each row's sums, so a
    run's values agree with its lone simulate to round-off, and on the
    directed fractals (one in-neighbour per node) bit for bit. A state
    entry beyond STATE_LIMIT, or not finite, raises DivergenceError naming
    the agent (and, in a union of several runs, the run's index) with
    that run's partial trajectory.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("simulate_union needs at least one run")
    head = cfgs[0]
    for k, cfg in enumerate(cfgs[1:], 1):
        if not can_join(head, cfg):
            raise ValueError(f"run {k} differs from run 0 in more than its graph, x0 and rho0")
    n = head.model.n
    sizes = [cfg.graph.n_nodes for cfg in cfgs]
    offsets = np.cumsum([0] + sizes)
    N = int(offsets[-1])
    L = LaplacianOperator(*(cfg.graph for cfg in cfgs))
    labels = [cfg.agents if cfg.disturbance.index_map is None else cfg.disturbance.index_map for cfg in cfgs]
    signal = dataclasses.replace(head.disturbance, index_map=None)
    wave = sigs.waveform(signal, np.concatenate(labels))
    model = head.model
    loop = ClosedLoop(head.params, model.A.T, model.B.T)
    Et = model.E.T
    dt = float(head.dt)
    half = 0.5 * dt
    every = int(head.record_every)
    steps = head.steps
    block = max(1, BLOCK_BYTES // (3 * N * n * 8))

    x = np.concatenate([np.asarray(cfg.x0, dtype=float).reshape(-1, n) for cfg in cfgs])
    rho = np.concatenate(
        [np.broadcast_to(np.asarray(cfg.rho0, dtype=float).reshape(-1), (size,)) for cfg, size in zip(cfgs, sizes)]
    )

    S = (steps - 1) // every + 2  # samples at k = 0, every, ... below steps, and the final state
    times = np.empty(S)
    states = np.empty((S, N, n))
    gains = np.empty((S, N))

    def runs(s):
        # each run's trajectory over the first s samples: views of its columns
        return [
            Trajectory(times[:s], states[:s, lo:hi], gains[:s, lo:hi], cfg)
            for cfg, lo, hi in zip(cfgs, offsets, offsets[1:])
        ]

    def record(s, t):
        # each sample's gains are checked against the previous sample's as they are recorded
        times[s], states[s], gains[s] = t, x, rho
        drop = (gains[s - 1] - rho).max() if s else 0.0
        if drop > 1e-12:
            raise RuntimeError(f"recorded gains decreased by {drop:.3e}; integrator invariant broken")

    s = 0
    terms = np.empty((min(block, steps), 3, N, n))  # each block's w E', rewritten in place
    for k0 in range(0, steps, block):
        tk = np.arange(k0, min(k0 + block, steps)) * dt
        stage_times = np.stack([tk, tk + half, tk + dt], axis=1)
        wE = np.multiply(wave(stage_times)[..., None], Et, out=terms[: tk.size])
        for k, (w1, w2, w4) in enumerate(wE, k0):
            if k % every == 0:
                record(s, k * dt)
                s += 1
            k1x, k1r = rhs(loop, L, w1, x, rho)
            k2x, k2r = rhs(loop, L, w2, x + half * k1x, rho + half * k1r)
            k3x, k3r = rhs(loop, L, w2, x + half * k2x, rho + half * k2r)
            k4x, k4r = rhs(loop, L, w4, x + dt * k3x, rho + dt * k3r)
            x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            if not np.abs(x).max() <= STATE_LIMIT:  # NaN fails the comparison too
                t = (k + 1) * dt
                bad = ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > STATE_LIMIT)
                row = int(np.argmax(bad))
                run = int(np.searchsorted(offsets, row, side="right")) - 1
                agent = row - int(offsets[run]) + 1
                where = f" of run {run}" if len(cfgs) > 1 else ""
                raise DivergenceError(
                    f"state diverged for agent {agent}{where} at t={t:.6g} "
                    f"(non-finite or beyond {STATE_LIMIT:g})",
                    agent=agent,
                    time=t,
                    partial=runs(s)[run],
                )
    record(s, steps * dt)
    return runs(S)


def simulate(cfg):
    """Integrate one run: simulate_union([cfg])[0], the fixed-step RK4 loop described there."""
    return simulate_union([cfg])[0]


def write_trajectory_csv(traj, path):
    """Write one row per (sample, agent): t, agent, x_1..x_n, rho, u_1..u_m, zeta_norm, V_i.

    Floats are written with repr, so equal trajectories produce
    byte-identical files; lines end in the csv module's "\\r\\n".
    """
    n = traj.states.shape[2]
    # the disagreements once, and the inputs and levels from one feedback product
    # as the properties form them; Z is dropped before the rows are written
    Z = traj.zetas
    U, V = feedback(traj.gains, Z, traj.config.params)[1:]
    znorm = np.linalg.norm(Z, axis=2)
    del Z
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
