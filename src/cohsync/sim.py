"""Closed-loop network simulation: fixed-step integration, stage-wise deadzone."""

from dataclasses import dataclass

import numpy as np
import yaml

from . import signals as sigs
from .graph import DOT, LaplacianOperator, WeightedDigraph, has_directed_spanning_tree
from .linalg import AgentModel, AssumptionError, is_stabilizable
from .protocol import ProtocolParams, feedback

STATE_LIMIT = 1e12  # abort threshold for any state entry

# bytes of the disturbance terms simulate_union evaluates ahead at once: a block
# of steps, each with its three stage times, of (n, N) terms each
BLOCK_BYTES = 256 * 1024
# bytes of disagreements the post-run pass (summarize, write_trajectory_csv) derives
# at once: the record is walked in chunks of samples of this size, at least one each
CHUNK_BYTES = 64 * 1024


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
            if t0 > 0 or t1 < horizon or cols < N:
                raise ValueError(
                    f"table covers [{t0:.6g}, {t1:.6g}] for agents 1..{cols} but the run needs "
                    f"[0, {horizon:.6g}] for agents 1..{N}, and extrapolation is refused"
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


@dataclass
class Trajectory:
    """Time-sampled record of a closed-loop run: the state (x, rho) and its config.

    times (S,), states (S, n, N), each sample the closed loop's X, and gains
    (S, N) share the leading sample axis. zetas_at derives the disagreements
    of a slice of samples from those samples alone, so the post-run pass
    walks the record in chunks (chunks) and holds no derived array of the
    whole record; feedback(gains[samples], Z, params, params.spec.d) gives
    their inputs and levels zeta_i' P zeta_i.
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
        return self.states.shape[2]

    def zetas_at(self, samples):
        """Disagreements zeta_i = sum_j l_ij x_j of states[samples], shape (s, n, N): each sample's own product."""
        return LaplacianOperator(self.config.graph)(self.states[samples])

    @property
    def zetas(self):
        """Disagreements of every sample, shape (S, n, N): zetas_at(slice(None))."""
        return self.zetas_at(slice(None))


def chunks(traj):
    """Slices of traj's samples, in order, each of at most CHUNK_BYTES of disagreements and at least one sample."""
    size = max(1, CHUNK_BYTES // (8 * traj.config.params.n * traj.n_agents))
    return (slice(lo, min(lo + size, traj.n_samples)) for lo in range(0, traj.n_samples, size))


INITIAL_SPAN = 5.0  # half-width of the box default_initial_state draws from


def default_initial_state(n_agents, n_states, seed):
    """Seeded uniform initial states in [-INITIAL_SPAN, INITIAL_SPAN], stacked agent by agent."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-INITIAL_SPAN, INITIAL_SPAN, size=(n_agents, n_states)).reshape(-1)


class RK4Step:
    """One in-place classical RK4 step of the closed loop, on its stacked state S = [X; rho], shape (n + 1, N).

    X holds one agent per column, the last row the gains; d, each agent's deadzone threshold. Every operand is
    bound once, here: S, the derivative D, the stage input T = S + c k, the RK4 sum ((k1 + 2 k2) + 2 k3) + k4,
    the 0-d coefficients dt/2, 2, dt and dt/6, and each stage, one closure wE -> D: first reads S and writes
    into the sum, later reads T and writes D. A stage writes Z = X L' by the calls L binds for (X, Z), then
    K Z with K = [B'P; P; B'P] just after it, so one multiply of [Z; Y] by [P Z; Y] (Y = B'P Z) forms Z*PZ and
    Y*Y, which a reduce over rows adds in order: feedback's products and sums. -B carries the inputs' sign,
    exactly: (-b)(rho y) = b(-(rho y)). 13 NumPy calls on a unit-weight tree with m = 1, no other Python frame.
    """

    def __init__(self, params, A, B, d, L, dt, S):
        n, m, N = params.n, params.m, L.n_nodes
        self.S, self.D, self.T, self.acc = S, *(np.empty((n + 1, N)) for _ in range(3))
        W, V, active = np.empty((2 * (n + m), N)), np.empty(N), np.empty(N, dtype=bool)  # W = [Z; Y; P Z; Y]
        K, negB = np.vstack([params.BtP, params.P, params.BtP]), -np.asarray(B, dtype=float)
        dot, multiply, add, reduce, greater_equal = DOT, np.multiply, np.add, np.add.reduce, np.greater_equal

        def stage(S, D):
            X, rho, Xdot, rates = S[:n], S[n], D[:n], D[n]
            Z, ZY, KZ, PZY, Y = W[:n], W[: n + m], W[n:], W[n + m :], W[n : n + m]
            ZPZ, YY = PZY[:n], PZY[n:]
            y, squares = (Y, rates) if m > 1 else (Y[0], YY[0])  # 1-D at m = 1: a broadcast rho costs more
            coupling = L.calls(X, Z)

            def derivative(wE):  # every out positional: a keyword costs each call more to parse
                for call, args in coupling:
                    call(*args)
                dot(K, Z, KZ)
                multiply(ZY, PZY, PZY)
                reduce(ZPZ, 0, None, V)
                if m > 1:
                    reduce(YY, 0, None, rates)
                multiply(squares, greater_equal(V, d, active), rates)  # a bool mask: a float one was slower
                multiply(rho, y, y)
                dot(A, X, Xdot)
                add(Xdot, dot(negB, Y, Z), Xdot)
                add(Xdot, wE, Xdot)
                return D

            return derivative

        self.first, self.later = stage(S, self.acc), stage(self.T, self.D)
        self.coefficients = tuple(np.array(c) for c in (0.5 * dt, 2.0, dt, dt / 6.0))

    def __call__(self, w1, w2, w4):
        """Advance S by dt in place, given E w at the stage times t, t + dt/2 (w2, twice) and t + dt."""
        S, D, T, acc, first, later = self.S, self.D, self.T, self.acc, self.first, self.later
        (half, two, whole, sixth), add, multiply = self.coefficients, np.add, np.multiply  # every out positional
        first(w1)  # k1, straight into the sum
        add(S, multiply(acc, half, T), T)
        later(w2)
        add(S, multiply(D, half, T), T)
        add(acc, multiply(D, two, D), acc)
        later(w2)
        add(S, multiply(D, whole, T), T)
        add(acc, multiply(D, two, D), acc)
        add(acc, later(w4), acc)
        add(S, multiply(acc, sixth, acc), S)


def can_join(a, b):
    """Whether runs a and b can share one closed loop: they differ at most in graph, x0, rho0 and spec.

    The design is P alone, solved from (A, B) and agnostic to the graph;
    the coherency spec (d, delta) only sets where each agent's gain stops
    growing, which the loop holds per agent; each graph couples its own
    agents as alone. So it takes the same model and P, the same step, step
    count and recording grid, and the same disturbance kind and bound. A
    table disturbance is read by column per run, so one never joins another.
    """
    return (
        a.disturbance.table_times is None
        and b.disturbance.table_times is None
        and (a.disturbance.kind, a.disturbance.bound) == (b.disturbance.kind, b.disturbance.bound)
        and all(np.array_equal(getattr(a.model, k), getattr(b.model, k)) for k in "ABE")
        and np.array_equal(a.params.P, b.params.P)
        and (a.dt, a.steps, a.record_every) == (b.dt, b.steps, b.record_every)
    )


def simulate_union(cfgs):
    """Integrate runs that can_join as one closed loop; return one Trajectory per run, in order.

    The protocol is fully distributed and its design P does not depend on
    the graph, so runs that share it are one closed loop over the disjoint
    union of their graphs, whose Laplacian is block-diagonal. The state
    [X; rho] has shape (n + 1, N), one agent per column: agent i of run k is
    column i of that run's block. Each agent keeps its own run's deadzone
    threshold spec.d, so runs of different specs join too. This is the one
    integrator, RK4Step: the classical fixed-step 4th-order scheme, with the
    deadzone condition re-evaluated at every stage and no event detection
    (the gain rate is bounded, and the discontinuity enters the state
    dynamics only through the continuous gains, so the per-crossing error
    is O(dt) on a measure-zero set). Every rate is a sum of squares or zero,
    so no step lowers a gain. The coupling is one graph.LaplacianOperator
    over all the graphs, which applies each graph's own map to its columns,
    so every run's values are its lone simulate's bit for bit. Each stage
    is one closure of 13 NumPy calls (RK4Step): the coupling's bound calls,
    one product K Z with K = [B'P; P; B'P], one multiply [Z; Y] * [P Z; Y],
    feedback's row-ordered sums, and -B for the inputs' sign: feedback's bits.
    The disturbance, one signals.waveform at the distinct labels 1..max N_k
    gathered to each run's agents 1..N_k, does not depend on the state: it
    is evaluated a block of steps ahead (BLOCK_BYTES of terms, at least one
    step), at every step's t_k = k dt, t_k + dt/2 and t_k + dt, in one call
    and one product with E, as terms (block, 3, n, N); each stage adds its
    slice (the two midpoint stages share one).

    Samples are recorded every record_every steps plus the final state, into
    one preallocated record of shape (S, n, N), each sample X as it is; each
    run's trajectory holds views of its agents' columns and its own config.
    A state entry beyond STATE_LIMIT, or not finite, raises DivergenceError
    naming the agent (and, in a union of several runs, the run's index) with
    that run's partial trajectory. A step checks each entry only when the
    state's sum of squares exceeds STATE_LIMIT**2 (or is NaN): no rounded sum
    of squares lies below one of them, and none beyond the limit rounds to it.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("simulate_union needs at least one run")
    head = cfgs[0]
    for k, cfg in enumerate(cfgs[1:], 1):
        if not can_join(head, cfg):
            raise ValueError(f"run {k} differs from run 0 in more than its graph, x0, rho0 and spec")
    n = head.model.n
    sizes = [cfg.graph.n_nodes for cfg in cfgs]
    offsets = np.cumsum([0] + sizes)
    N = int(offsets[-1])
    L = LaplacianOperator(*(cfg.graph for cfg in cfgs))
    wave = sigs.waveform(head.disturbance, np.arange(1, max(sizes) + 1))  # every distinct label, once
    label_of = np.concatenate([np.arange(size) for size in sizes]) if len(cfgs) > 1 else slice(None)
    model = head.model
    dt = float(head.dt)
    every = int(head.record_every)
    steps = head.steps
    block = max(1, BLOCK_BYTES // (3 * N * n * 8))
    limit = STATE_LIMIT**2

    state = np.empty((n + 1, N))  # [X; rho]
    x, rho, flat = state[:n], state[n], state[:n].reshape(-1)  # views, advanced in place
    x[:] = np.concatenate([np.asarray(cfg.x0, dtype=float).reshape(-1, n) for cfg in cfgs]).T
    rho[:] = np.concatenate([np.broadcast_to(np.reshape(cfg.rho0, -1), (size,)) for cfg, size in zip(cfgs, sizes)])
    step = RK4Step(head.params, model.A, model.B, np.repeat([cfg.params.spec.d for cfg in cfgs], sizes), L, dt, state)

    S = (steps - 1) // every + 2  # samples at k = 0, every, ... below steps, and the final state
    times = np.empty(S)
    states = np.empty((S, n, N))
    gains = np.empty((S, N))

    def runs(s):
        # each run's trajectory over the first s samples: views of its columns
        return [
            Trajectory(times[:s], states[:s, :, lo:hi], gains[:s, lo:hi], cfg)
            for cfg, lo, hi in zip(cfgs, offsets, offsets[1:])
        ]

    def record(s, t):
        # each sample's gains are checked against the previous sample's as they are recorded
        times[s], states[s], gains[s] = t, x, rho
        drop = (gains[s - 1] - rho).max() if s else 0.0
        if drop > 1e-12:
            raise RuntimeError(f"recorded gains decreased by {drop:.3e}; integrator invariant broken")

    s = 0
    terms = np.empty((min(block, steps), 3, n, N))  # each block's E w, rewritten in place
    for k0 in range(0, steps, block):
        tk = np.arange(k0, min(k0 + block, steps)) * dt
        stage_times = np.stack([tk, tk + 0.5 * dt, tk + dt], axis=1)
        wE = np.multiply(wave(stage_times)[..., None, label_of], model.E, out=terms[: tk.size])
        for k, (w1, w2, w4) in enumerate(wE, k0):
            if k % every == 0:
                record(s, k * dt)
                s += 1
            step(w1, w2, w4)
            if not DOT(flat, flat) <= limit and not np.abs(x).max() <= STATE_LIMIT:
                t = (k + 1) * dt
                bad = ~np.isfinite(x).all(axis=0) | (np.abs(x).max(axis=0) > STATE_LIMIT)
                col = int(np.argmax(bad))
                run = int(np.searchsorted(offsets, col, side="right")) - 1
                agent = col - int(offsets[run]) + 1
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

    Per chunk of samples (chunks): its disagreements once, and its inputs
    and levels from one feedback product, so the writer holds a few
    CHUNK_BYTES of derived values however long the record is. Each
    sample's N rows are one %r template; floats are written with repr, so
    equal trajectories produce byte-identical files; lines end in the csv
    module's "\\r\\n".
    """
    params = traj.config.params
    n, m, N = params.n, params.m, traj.n_agents
    header = (
        ["t", "agent"]
        + [f"x_{j + 1}" for j in range(n)]
        + ["rho"]
        + [f"u_{j + 1}" for j in range(m)]
        + ["zeta_norm", "V_i"]
    )
    cells = ",".join(["%r"] * (n + m + 3))
    template = "".join(f"%r,{a},{cells}\r\n" for a in range(1, N + 1))  # a sample's rows: t, agent, the rest
    rows = np.empty((N, n + m + 4))  # one sample's values, agent by agent: t, x, rho, u, |zeta|, V
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for samples in chunks(traj):
            Z = traj.zetas_at(samples)
            U, V = feedback(traj.gains[samples], Z, params, params.spec.d)[1:]
            znorm = np.linalg.norm(Z, axis=1)
            del Z  # dropped before the rows are formatted, so that it does not add to their peak
            for k, s in enumerate(range(samples.start, samples.stop)):
                rows[:, 0] = traj.times[s]
                rows[:, 1 : n + 1] = traj.states[s].T
                rows[:, n + 1] = traj.gains[s]
                rows[:, n + 2 : -2] = U[k].T
                rows[:, -2] = znorm[k]
                rows[:, -1] = V[k]
                fh.write(template % tuple(rows.ravel().tolist()))


def write_metadata(path, meta):
    """YAML sidecar (seed, config echo, version); sorted keys keep bytes stable."""
    with open(path, "w") as fh:
        yaml.safe_dump(meta, fh, sort_keys=True)
