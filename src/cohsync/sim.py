"""Closed-loop network simulation: fixed-step integration, stage-wise deadzone."""

import os
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from . import signals as sigs
from .floatrepr import REPR_SLOTS, REPR_WIDTH, repr_fields
from .graph import DOT, LaplacianOperator, WeightedDigraph, has_directed_spanning_tree
from .linalg import AgentModel, AssumptionError, is_stabilizable
from .protocol import ProtocolParams

STATE_LIMIT = 1e12  # abort threshold for any state entry

# bytes of the disturbance terms simulate_union evaluates ahead at once: a block
# of steps, each with its three stage times, of (n, N) terms each
BLOCK_BYTES = 256 * 1024


class DivergenceError(RuntimeError):
    """The state blew up: carries the first offending 1-based agent and the time."""

    def __init__(self, message, agent=None, time=None):
        super().__init__(message)
        self.agent = agent
        self.time = time


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
            # simulate_union integrates self.steps steps and asks for labels 1..N
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
        """Number of fixed steps simulate_union takes: t_end / dt, rounded."""
        return int(round(self.t_end / self.dt))

    @property
    def samples(self):
        """Number of samples a run hands on: at steps 0, record_every, ... below steps, and the final state."""
        return (self.steps - 1) // int(self.record_every) + 2


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
    Y*Y, which a reduce over rows adds in order: the levels V and the rates |y_i|^2 (0 where V_i < d_i). Y
    becomes rho y in place; -B carries the inputs' sign, exactly: (-b)(rho y) = b(-(rho y)), so u = -(rho y).
    After first, the attributes Z, Y and V hold S's disagreements, rho y and levels. 13 NumPy calls on a
    unit-weight tree with m = 1, no other Python frame.
    """

    def __init__(self, params, A, B, d, L, dt, S):
        n, m, N = params.n, params.m, L.n_nodes
        self.S, self.D, self.T, self.acc = S, *(np.empty((n + 1, N)) for _ in range(3))
        W, V, active = np.empty((2 * (n + m), N)), np.empty(N), np.empty(N, dtype=bool)  # W = [Z; Y; P Z; Y]
        self.Z, self.Y, self.V = W[:n], W[n : n + m], V
        K, negB = np.vstack([params.BtP, params.P, params.BtP]), -np.asarray(B, dtype=float)
        dot, multiply, add, reduce, greater_equal = DOT, np.multiply, np.add, np.add.reduce, np.greater_equal

        def stage(S, D, BY):
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
                add(Xdot, dot(negB, Y, BY), Xdot)
                add(Xdot, wE, Xdot)
                return D

            return derivative

        # first writes B(rho y) into D, free until later writes it, so first keeps Z; later writes it into Z
        self.first, self.later = stage(S, self.acc, self.D[:n]), stage(self.T, self.D, W[:n])
        self.coefficients = tuple(np.array(c) for c in (0.5 * dt, 2.0, dt, dt / 6.0))

    def __call__(self, w1, w2, w4, sample=None):
        """Advance S by dt in place, given E w at the stage times t, t + dt/2 (w2, twice) and t + dt.

        sample(), if given, runs after stage 1, while S holds the step's start, Z, Y and V its values; it may write T.
        """
        S, D, T, acc, first, later = self.S, self.D, self.T, self.acc, self.first, self.later
        (half, two, whole, sixth), add, multiply = self.coefficients, np.add, np.multiply  # every out positional
        first(w1)  # k1, straight into the sum
        if sample is not None:
            sample()
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


def simulate_union(cfgs, sinks):
    """Integrate runs that can_join as one closed loop, handing each run's samples to that run's sinks.

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
    so every run's values are its lone run's bit for bit. Each stage
    is one closure of 13 NumPy calls (RK4Step), the one place the feedback
    law is formed. The disturbance, one signals.waveform at the distinct
    labels 1..max N_k gathered to each run's agents 1..N_k, does not depend
    on the state: it is evaluated a block of steps ahead (BLOCK_BYTES of
    terms, at least one step), at every step's t_k = k dt, t_k + dt/2 and
    t_k + dt, in one call and one product with E, as terms (block, 3, n, N);
    each stage adds its slice (the two midpoint stages share one).

    A run's cfg.samples samples are taken after stage 1 of every
    record_every-th step and, at the final state, after one more stage 1,
    whose Z, rho y and V do not depend on its disturbance term. Each forms
    U = -rho y and zeta_norm = |zeta_i| over all columns, once, and calls
    every sink of run k, sinks[k], as sink(t, X, rho, zeta_norm, U, V) on
    views of the run's columns bound before the loop, valid for that call
    only, once its gains are checked against the previous sample's. A sink
    that keeps them copies them: TrajectoryCSV copies each sample into a
    block that it formats once the block fills, and its close(keep=True)
    writes what still waits after the last sample.

    A state entry beyond STATE_LIMIT, or not finite, raises DivergenceError
    naming the agent (and, in a union of several runs, the run's index). A
    step checks each entry only when the state's sum of squares exceeds
    STATE_LIMIT**2 (or is NaN): no rounded sum of squares lies below one of
    them, and none beyond the limit rounds to it.
    """
    cfgs, sinks = list(cfgs), list(sinks)
    if not cfgs:
        raise ValueError("simulate_union needs at least one run")
    if len(sinks) != len(cfgs):
        raise ValueError(f"simulate_union got {len(sinks)} lists of sinks for {len(cfgs)} runs")
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

    U, last = step.Y, np.full(N, -np.inf)  # the inputs, -(rho y) in place, and the previous sample's gains
    squares, norms = step.T[:n], step.T[n]  # Z * Z and each |zeta_i|, in T, which a sample may write
    spans = map(slice, offsets, offsets[1:])  # each run's columns; its sinks are handed views of them, bound here
    runs = [(run_sinks, (x[:, c], rho[c], norms[c], U[:, c], step.V[c])) for run_sinks, c in zip(sinks, spans)]

    def sample(t):
        drop = (last - rho).max()
        if drop > 1e-12:
            raise RuntimeError(f"recorded gains decreased by {drop:.3e}; integrator invariant broken")
        last[:] = rho
        np.negative(U, out=U)  # the next stage forms Y afresh
        np.sqrt(np.add.reduce(np.multiply(step.Z, step.Z, squares), 0, None, norms), norms)  # np.linalg.norm(Z, axis=0)
        for run_sinks, values in runs:
            for sink in run_sinks:
                sink(t, *values)

    terms = np.empty((min(block, steps), 3, n, N))  # each block's E w, rewritten in place
    for k0 in range(0, steps, block):
        tk = np.arange(k0, min(k0 + block, steps)) * dt
        stage_times = np.stack([tk, tk + 0.5 * dt, tk + dt], axis=1)
        wE = np.multiply(wave(stage_times)[..., None, label_of], model.E, out=terms[: tk.size])
        for k, (w1, w2, w4) in enumerate(wE, k0):
            step(w1, w2, w4, partial(sample, k * dt) if k % every == 0 else None)
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
                )
    step.first(w4)
    sample(steps * dt)


# bytes of trajectory values a TrajectoryCSV holds and formats at once, whatever the run's N
CSV_BLOCK_BYTES = 16 * 1024


class TrajectoryCSV:
    """A sink that writes one run's trajectory CSV into path + ".part", a block of rows at a time.

    One row per (sample, agent): t, agent, x_1..x_n, rho, u_1..u_m,
    zeta_norm, V_i, each float as repr writes it (-0.0 keeps its sign);
    lines end in "\\r\\n", as the csv module's. The values of up to
    CSV_BLOCK_BYTES of rows wait in one block, whatever N is, so a sample
    may span blocks, beside each row's t (repr, once a sample) and agent;
    a full block is formatted at once (repr_fields) and written.
    close(keep) writes what waits and moves the file onto path, or drops
    it unformatted and removes the file, so a failed run leaves an earlier
    file at path as it was.
    """

    def __init__(self, path, cfg):
        n, m, N = cfg.params.n, cfg.params.m, cfg.graph.n_nodes
        header = ["t", "agent", *(f"x_{j + 1}" for j in range(n)), "rho", *(f"u_{j + 1}" for j in range(m))]
        F = n + m + 3  # x, rho, u, |zeta|, V
        labels = np.array([str(agent) for agent in range(1, N + 1)], "S")  # NUL-padded
        self.labels = labels.view(np.uint8).reshape(N, -1)
        self.values = np.empty((max(1, CSV_BLOCK_BYTES // (8 * F)), F))
        self.heads = np.zeros((len(self.values), REPR_WIDTH + self.labels.shape[1] + 2), np.uint8)  # "t,agent,"
        self.heads[:, [REPR_WIDTH, -1]] = ord(",")
        self.separators = np.frombuffer(b"," * (F - 1) + b"\r", np.uint8)
        self.filled = 0
        self.path, self.part = path, f"{path}.part"
        self.fh = open(self.part, "wb")
        self.fh.write((",".join(header + ["zeta_norm", "V_i"]) + "\r\n").encode())

    def __call__(self, t, X, rho, zeta_norm, U, V):
        rows = np.concatenate((X, rho[None], U, zeta_norm[None], V[None])).T
        stamp = np.frombuffer(repr(float(t)).encode().ljust(REPR_WIDTH, b"\0"), np.uint8)
        done = 0
        while done < len(rows):
            at = self.filled
            take = min(len(rows) - done, len(self.values) - at)
            self.values[at : at + take] = rows[done : done + take]
            self.heads[at : at + take, :REPR_WIDTH] = stamp
            self.heads[at : at + take, REPR_WIDTH + 1 : -1] = self.labels[done : done + take]
            self.filled, done = at + take, done + take
            if self.filled == len(self.values):
                self._flush()

    def _flush(self):
        """Format and write the rows that wait."""
        rows, (width, F) = self.filled, (self.heads.shape[1], self.values.shape[1])
        lines = np.empty((rows, width + F * (REPR_SLOTS + 1) + 1), np.uint8)
        lines[:, :width] = self.heads[:rows]
        cells = lines[:, width:-1].reshape(rows, F, REPR_SLOTS + 1)
        cells[:, :, :-1] = repr_fields(self.values[:rows].ravel()).reshape(rows, F, REPR_SLOTS)
        cells[:, :, -1] = self.separators
        lines[:, -1] = ord("\n")
        self.fh.write(lines.tobytes().translate(None, b"\0"))
        self.filled = 0

    def close(self, keep):
        """Close the file: if keep, write what waits and move the file onto path, else drop what waits and remove it."""
        try:
            if keep and self.filled:
                self._flush()
        finally:
            self.fh.close()
        if keep:
            os.replace(self.part, self.path)
        else:
            os.remove(self.part)


def write_metadata(path, meta):
    """YAML sidecar (seed, config echo, version); sorted keys keep bytes stable."""
    with open(path, "w") as fh:
        yaml.safe_dump(meta, fh, sort_keys=True)
