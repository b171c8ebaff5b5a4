import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
import yaml

from cohsync import analysis, graph, linalg, protocol, signals, sim


def scalar_params(d=0.5):
    # A=0, B=E=1: the Riccati solution is P=[1], everything hand-checkable
    model = linalg.AgentModel([[0.0]], [[1.0]], [[1.0]])
    P = np.array([[1.0]])
    return model, protocol.ProtocolParams(P, model.B, d=d)


@pytest.fixture(scope="module")
def bench_setup(benchmark_model, benchmark_P):
    return benchmark_model, protocol.ProtocolParams(benchmark_P, benchmark_model.B, d=0.5)


def bench_cfg(bench_setup, g, signal, t_end=5.0, seed=7, record_every=10, **kw):
    model, params = bench_setup
    x0 = kw.pop("x0", sim.default_initial_state(g.n_nodes, model.n, seed))
    return sim.SimConfig(
        model=model, graph=g, params=params, disturbance=signal,
        x0=x0, t_end=t_end, dt=1e-3, record_every=record_every, **kw,
    )


def test_derivative_hand_checked_two_node_chain():
    model, params = scalar_params(d=0.5)
    g = graph.from_edge_list(2, [(1, 2, 1.0)])
    L = graph.LaplacianOperator(g)
    wE = np.array([[0.25], [0.5]]).T
    S = np.array([[0.0, 1.0], [0.0, 1.0]])  # [X; rho]
    D = sim.RK4Step(params, model.A, model.B, np.full(2, 0.5), L, 1e-3, S).first(wE)
    # agent 2 sees zeta = 1: u = -1, xdot = -1 + 0.5, gain grows at 1; agent 1 only its term
    assert np.array_equal(D[:1], np.array([[0.25], [-0.5]]).T)
    assert np.array_equal(D[1], np.array([0.0, 1.0]))
    # each row has its own threshold: at d = 2 agent 2's level 1 lies inside its deadzone
    D = sim.RK4Step(params, model.A, model.B, np.array([0.5, 2.0]), L, 1e-3, S).first(wE)
    assert np.array_equal(D[:1], np.array([[0.25], [-0.5]]).T)
    assert np.array_equal(D[1], np.array([0.0, 0.0]))


def test_derivative_equal_states_coast(bench_setup):
    model, params = bench_setup
    g = graph.vicsek_fractal(1)
    x = np.tile(np.array([3.0, -2.0, 5.0]), (5, 1))
    S = np.vstack([x.T, np.zeros(5)])
    step = sim.RK4Step(params, model.A, model.B, np.full(5, 0.5), graph.LaplacianOperator(g), 1e-3, S)
    D = step.first(np.zeros((5, 3)).T)
    expected = np.tile(model.A @ np.array([3.0, -2.0, 5.0]), (5, 1))
    assert np.array_equal(D[:3], expected.T)
    assert np.all(D[3] == 0.0)


def test_simulate_flags_nonfinite_agent(bench_setup):
    # directed chain 1 -> 2 -> 3: the non-finite initial state is refused
    # when the config is built, naming the agent that holds it
    g = graph.from_edge_list(3, [(1, 2, 1.0), (2, 3, 1.0)])
    x0 = np.zeros((3, 3))
    x0[2, 1] = np.nan
    with pytest.raises(ValueError, match="agent 3 is not finite"):
        bench_cfg(bench_setup, g, signals.zero_signal(), t_end=1.0, x0=x0.reshape(-1))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        bench_cfg(bench_setup, g, signals.zero_signal(), t_end=1.0, rho0=np.nan)


def test_equal_initial_states_follow_open_loop_flow(bench_setup):
    rng = np.random.default_rng(10)
    row = rng.uniform(-5, 5, size=3)
    g = graph.vicsek_fractal(1)
    cfg = bench_cfg(bench_setup, g, signals.zero_signal(), t_end=5.0,
                    x0=np.tile(row, 5))
    traj = sim.simulate(cfg)
    # chain of integrators: closed-form polynomial flow
    t = traj.times[:, None]
    expected = np.stack([
        row[0] + row[1] * t[:, 0] + 0.5 * row[2] * t[:, 0] ** 2,
        row[1] + row[2] * t[:, 0],
        np.full(traj.n_samples, row[2]),
    ], axis=1)
    for a in range(5):
        assert np.abs(traj.states[:, :, a] - expected).max() <= 1e-8
    assert np.all(traj.gains == 0.0)
    assert np.abs(traj.zetas).max() <= 1e-10
    assert np.all(protocol.feedback(traj.gains, traj.zetas, cfg.params, cfg.params.spec.d)[1] == 0.0)


def test_zero_disturbance_disagreement_decays(bench_setup):
    g = graph.vicsek_fractal(1)
    cfg = bench_cfg(bench_setup, g, signals.zero_signal(), t_end=30.0)
    traj = sim.simulate(cfg)
    z0 = np.linalg.norm(traj.zetas[0], axis=0).max()
    zT = np.linalg.norm(traj.zetas[-1], axis=0).max()
    assert zT < z0 / 100.0


def test_translation_invariance(bench_setup):
    g = graph.vicsek_fractal(1, directed=True)
    base = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=5.0)
    shifted = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=5.0,
                        x0=np.asarray(base.x0) + np.tile([10.0, -3.0, 2.0], 5))
    ta = sim.simulate(base)
    tb = sim.simulate(shifted)
    # disagreement dynamics see only state differences
    assert np.abs(ta.zetas - tb.zetas).max() <= 1e-8
    assert np.abs(ta.gains - tb.gains).max() <= 1e-8
    _, params = bench_setup
    ua, ub = (protocol.feedback(t.gains, t.zetas, params, params.spec.d)[1] for t in (ta, tb))
    assert np.abs(ua - ub).max() <= 1e-8


def test_permutation_equivariance(bench_setup):
    # relabeling the nodes relabels the whole closed loop: the graph, x0 and
    # the disturbance table's columns move together, node i to node perm[i]
    rng = np.random.default_rng(0)
    graphs = [graph.vicsek_fractal(1, directed=True), graph.vicsek_fractal(2, directed=False)]
    graphs += [spanning_digraph(seed) for seed in (1, 2, 3)]
    _, params = bench_setup
    for g in graphs:
        N = g.n_nodes
        perm = rng.permutation(N)
        times = np.linspace(0.0, 2.0, 21)
        values = rng.uniform(-2.0, 2.0, (21, N))
        base = bench_cfg(bench_setup, g, signals.table_signal(times, values), t_end=2.0)
        moved, x0p = np.empty_like(values), np.empty((N, 3))
        moved[:, perm] = values
        x0p[perm] = np.asarray(base.x0).reshape(N, 3)
        gp = graph.WeightedDigraph(N, perm[g.receivers], perm[g.senders], g.edge_weights)
        relabeled = bench_cfg(bench_setup, gp, signals.table_signal(times, moved), t_end=2.0, x0=x0p.reshape(-1))
        ta = sim.simulate(base)
        tb = sim.simulate(relabeled)
        assert ta.gains[-1].max() > 0.0  # the adaptive law is exercised
        assert np.abs(tb.states[:, :, perm] - ta.states).max() <= 1e-8
        assert np.abs(tb.gains[:, perm] - ta.gains).max() <= 1e-8
        assert np.abs(tb.zetas[:, :, perm] - ta.zetas).max() <= 1e-8
        ua, ub = (protocol.feedback(t.gains, t.zetas, params, params.spec.d)[1] for t in (ta, tb))
        assert np.abs(ub[:, :, perm] - ua).max() <= 1e-8


def test_gains_never_decrease(bench_setup):
    g = graph.vicsek_fractal(1, directed=True)
    traj = sim.simulate(bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=5.0))
    # every rate is a sum of squares or zero, so no step lowers a gain, not even by round-off
    assert np.diff(traj.gains, axis=0).min() >= 0.0
    assert np.all(traj.gains >= 0.0)


def test_deadzone_keeps_gains_bit_identical():
    model, params = scalar_params(d=0.5)
    g = graph.from_edge_list(2, [(1, 2, 1.0)])
    cfg = sim.SimConfig(
        model=model, graph=g, params=params, disturbance=signals.zero_signal(),
        x0=[1.0, 1.0 + 1e-6], rho0=[0.3, 0.7], t_end=1.0, dt=1e-3, record_every=10,
    )
    traj = sim.simulate(cfg)
    # V stays ~1e-12, far inside the deadzone: the gains never move at all
    assert np.all(traj.gains == np.array([0.3, 0.7]))


def test_a_gain_that_falls_between_samples_breaks_the_integrator_invariant(monkeypatch, bench_setup):
    class Falling(sim.RK4Step):
        def __call__(self, *w):
            super().__call__(*w)
            self.S[-1] -= 1e-3  # every gain falls by dt a step; the root's (zeta = 0) by exactly that

    monkeypatch.setattr(sim, "RK4Step", Falling)
    g = graph.vicsek_fractal(1, directed=True)
    cfg = bench_cfg(bench_setup, g, signals.zero_signal(), t_end=0.01, record_every=2, rho0=1.0)
    with pytest.raises(RuntimeError, match=r"recorded gains decreased by 2\.000e-03; integrator invariant broken"):
        sim.simulate(cfg)


def test_divergence_guard_reports_agent_and_keeps_partial():
    # single unstable agent, no neighbours: x = 2 e^{5t} crosses 1e12 near t=5.4
    model = linalg.AgentModel([[5.0]], [[1.0]], [[1.0]])
    P = linalg.solve_care(model.A, model.B).P
    params = protocol.ProtocolParams(P, model.B, d=0.5)
    cfg = sim.SimConfig(
        model=model, graph=graph.from_edge_list(1, []), params=params,
        disturbance=signals.zero_signal(), x0=[2.0], t_end=10.0, dt=1e-3,
        record_every=100,
    )
    with pytest.raises(sim.DivergenceError, match="diverged") as err:
        sim.simulate(cfg)
    assert err.value.agent == 1
    assert 5.0 < err.value.time < 6.0
    part = err.value.partial
    assert part is not None
    assert part.n_samples >= 1
    assert part.times[-1] < err.value.time


def poked_step(at, value, rows, cols):
    """RK4Step, except that its call number at (from 0) ends by writing value into S[rows, cols]."""

    class Poked(sim.RK4Step):
        calls = 0

        def __call__(self, *w):
            super().__call__(*w)
            if Poked.calls == at:
                self.S[rows, cols] = value
            Poked.calls += 1

    return Poked


@pytest.mark.parametrize(
    "value", [np.nextafter(sim.STATE_LIMIT, np.inf), -np.nextafter(sim.STATE_LIMIT, np.inf), np.nan, np.inf, -np.inf],
    ids=["above", "below", "nan", "inf", "-inf"],
)
def test_divergence_check_aborts_past_the_limit(bench_setup, monkeypatch, value):
    # one entry just past STATE_LIMIT, or not finite, after step 4: the step's
    # sum of squares check fails, and the entries name agent 7 of run 1 at t = 4 dt
    g = graph.vicsek_fractal(2, directed=True)
    cfgs = union_members(bench_setup, [g, g], t_end=0.01)
    monkeypatch.setattr(sim, "RK4Step", poked_step(3, value, 1, g.n_nodes + 6))
    with pytest.raises(sim.DivergenceError, match=r"agent 7 of run 1 at t=0\.004 ") as err:
        sim.simulate_union(cfgs)
    assert (err.value.agent, err.value.time) == (7, 4 * 1e-3)
    assert err.value.partial.config is cfgs[1] and err.value.partial.n_samples == 1


@pytest.mark.parametrize(
    "value, rows, cols",
    [(sim.STATE_LIMIT, 1, 6), (-sim.STATE_LIMIT, 0, 120), (0.9 * sim.STATE_LIMIT, slice(0, 3), slice(None))],
    ids=["at", "at-negative", "all-near"],
)
def test_divergence_check_lets_entries_at_the_limit_pass(bench_setup, monkeypatch, value, rows, cols):
    # written by the last step: an entry at the limit is within it, and so is a
    # (3, 121) state all at 0.9 of it, whose sum of squares exceeds STATE_LIMIT**2
    # (so the entries decide)
    g = graph.vicsek_fractal(3, directed=True)
    cfg = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=0.005, record_every=2)
    monkeypatch.setattr(sim, "RK4Step", poked_step(cfg.steps - 1, value, rows, cols))
    last = sim.simulate(cfg).states[-1]
    assert np.all(last[rows, cols] == value)
    assert (np.dot(last.reshape(-1), last.reshape(-1)) > sim.STATE_LIMIT**2) == (value == 0.9 * sim.STATE_LIMIT)


def dense_loop(cfg):
    """cfg's record (times, states, gains) from an RK4 loop that takes each stage on its own.

    It applies the dense Laplacian and calls the waveform at each stage's
    own time t = k dt, t + dt/2 or t + dt, one call per stage.
    """
    model, params, g = cfg.model, cfg.params, cfg.graph
    L = graph.laplacian(g)
    wave = signals.waveform(cfg.disturbance, np.arange(1, g.n_nodes + 1))

    def f(t, x, rho):
        rates, u, _ = protocol.feedback(rho, (L @ x).T, params, params.spec.d)
        return x @ model.A.T + u.T @ model.B.T + wave(t)[:, None] * model.E.T, rates

    return rk4_record(cfg, f)


def agent_major_loop(cfg):
    """cfg's record from the closed loop held one agent per row, x of shape (N, n).

    The kernel as it stood before the loop went state-major: Z = L x with
    the dense Laplacian, one product Z K with K = [P | (B'P)'], the level
    and |y|^2 by einsum over each row, and xdot = x A' + U B' + w E'.
    """
    model, params, g = cfg.model, cfg.params, cfg.graph
    n, L = model.n, graph.laplacian(g)
    K = np.hstack([params.P, params.BtP.T])
    wave = signals.waveform(cfg.disturbance, np.arange(1, g.n_nodes + 1))

    def f(t, x, rho):
        Z = L @ x
        ZK = Z @ K
        Y = ZK[:, n:]
        V = np.einsum("...j,...j->...", Z, ZK[:, :n])
        rates = np.where(V >= params.spec.d, np.einsum("...j,...j->...", Y, Y), 0.0)
        xdot = x @ model.A.T
        xdot += (-rho[:, None] * Y) @ model.B.T
        xdot += wave(t)[:, None] * model.E.T
        return xdot, rates

    return rk4_record(cfg, f)


def rk4_record(cfg, f):
    """cfg's record (times, states, gains) from the classical RK4 loop on agent rows x (N, n).

    f(t, x, rho) gives a stage's derivatives (xdot, rho rates). The states
    are recorded as a Trajectory holds them, x' of shape (n, N) per sample.
    """
    model, g = cfg.model, cfg.graph
    dt = cfg.dt
    x = cfg.x0.reshape(g.n_nodes, model.n)
    rho = np.zeros(g.n_nodes) + cfg.rho0
    record = []
    for k in range(cfg.steps):
        t = k * dt
        if k % cfg.record_every == 0:
            record.append((t, x.T, rho))
        k1x, k1r = f(t, x, rho)
        k2x, k2r = f(t + 0.5 * dt, x + 0.5 * dt * k1x, rho + 0.5 * dt * k1r)
        k3x, k3r = f(t + 0.5 * dt, x + 0.5 * dt * k2x, rho + 0.5 * dt * k2r)
        k4x, k4r = f(t + dt, x + dt * k3x, rho + dt * k3r)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    record.append((cfg.steps * dt, x.T, rho))
    return [np.array(column) for column in zip(*record)]


def assert_is_the_dense_loop(traj):
    times, states, gains = dense_loop(traj.config)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.gains, gains)


@pytest.mark.parametrize("n, m", [(1, 1), (3, 1), (4, 2), (3, 3)])
def test_every_stage_forms_the_record_wide_feedback(n, m):
    # a stage forms feedback's products, sums and signs in its own buffers, whatever n and m: with m >= 2
    # it sums its rates row by row. One union per seeded model: three copies of the directed 25-agent
    # fractal, one per deadzone threshold, gather as one block, and a 7-node circulant takes the dense
    # product; every run is dense_loop's, which calls feedback on each stage's whole state
    rng = np.random.default_rng(10 * n + m)
    A, B = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, (n, m))
    model = linalg.AgentModel(A, B, B[:, :1])
    P = linalg.solve_care(A, B).P
    tree, ring = graph.vicsek_fractal(2, directed=True), graph.circulant(7, [1, 2])
    cfgs = [
        sim.SimConfig(
            model=model, graph=g, params=protocol.ProtocolParams(P, B, d=d), disturbance=signals.chirp_signal(),
            x0=sim.default_initial_state(g.n_nodes, n, k), rho0=0.1 * k, t_end=0.3, dt=1e-3, record_every=5,
        )
        for k, (g, d) in enumerate([(tree, 0.05), (tree, 0.5), (tree, 5.0), (ring, 0.5)])
    ]
    L = graph.LaplacianOperator(*(cfg.graph for cfg in cfgs))
    assert [(b.copies, b.unit_tree, b.dense is not None) for b in L.blocks] == [(3, True, False), (1, False, True)]
    union = sim.simulate_union(cfgs)
    for traj in union:
        for got, want in zip((traj.times, traj.states, traj.gains), dense_loop(traj.config), strict=True):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    first, last = (np.concatenate([traj.gains[s] for traj in union]) for s in (0, -1))
    assert (last > first).any() and (last == first).any()  # some gain grows, some never leaves its deadzone


@pytest.fixture(scope="module")
def fractal601():
    # 601 agents take the per-edge Laplacian, on a tree the gather of each
    # agent's parent: one product and one sum per entry, rounded as L @ x is
    g = graph.vicsek_fractal(4, directed=True)
    assert g.n_nodes >= graph.EDGE_PATH_NODES
    return g


def test_edge_path_simulation_matches_a_dense_loop(bench_setup, fractal601):
    cfg = bench_cfg(bench_setup, fractal601, signals.chirp_signal(), t_end=0.05, record_every=10)
    traj = sim.simulate(cfg)
    assert np.abs(traj.gains[-1]).max() > 0.0  # the gains have moved
    assert_is_the_dense_loop(traj)
    assert np.array_equal(traj.zetas, (graph.laplacian(fractal601) @ traj.states.swapaxes(1, 2)).swapaxes(1, 2))


def test_state_major_loop_is_the_agent_major_loop_on_directed_fractals(bench_setup, fractal601):
    # one in-neighbour per node: each coupling entry is one product and one
    # sum in either layout, so the state-major loop keeps the agent-major
    # loop's bits; the directed presets and the benchmark's references rest on it
    g = graph.vicsek_fractal(2, directed=True)
    lone = [
        bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=0.5, record_every=10),
        bench_cfg(bench_setup, fractal601, signals.chirp_signal(), t_end=0.05, record_every=10),
    ]
    copies = union_members(bench_setup, [g] * 3, t_end=0.5)
    assert graph.LaplacianOperator(g).dense is not None and graph.LaplacianOperator(fractal601).dense is None
    assert graph.LaplacianOperator(*[g] * 3).copies == 3
    runs = [sim.simulate(cfg) for cfg in lone] + sim.simulate_union(copies)
    for traj, cfg in zip(runs, lone + copies, strict=True):
        times, states, gains = agent_major_loop(cfg)
        assert np.abs(gains[-1]).max() > 0.0  # the gains have moved
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.gains, gains)


def block_steps(n_agents, n_states):
    """The steps simulate_union evaluates the disturbance for at once."""
    return sim.BLOCK_BYTES // (3 * n_agents * n_states * 8)


# step counts around the block B; at 10 steps of 1e-3 the last stage time,
# 9 dt + dt, lies an ulp past 10 dt, inside a table's slop band
STEP_COUNTS = {"1": lambda B: 1, "B-1": lambda B: B - 1, "B": lambda B: B, "B+1": lambda B: B + 1, "10": lambda B: 10}
BLOCKED_SIGNALS = {
    "zero": lambda horizon: signals.zero_signal(),
    "chirp": lambda horizon: signals.chirp_signal(),
    "sawtooth": lambda horizon: signals.sawtooth_signal(),
    # the table covers exactly [0, horizon]
    "table": lambda horizon: signals.table_signal(
        np.linspace(0.0, horizon, 4), np.random.default_rng(3).uniform(-1.0, 1.0, (4, 601))
    ),
}


@pytest.mark.parametrize("steps", STEP_COUNTS)
@pytest.mark.parametrize("kind", BLOCKED_SIGNALS)
def test_blocked_disturbance_matches_the_per_stage_loop(bench_setup, fractal601, kind, steps):
    model, _ = bench_setup
    steps = STEP_COUNTS[steps](block_steps(601, model.n))
    signal = BLOCKED_SIGNALS[kind](steps * 1e-3)
    # record_every 4 divides none of 1, B-1, B, B+1 (B = 6) and 10
    cfg = bench_cfg(bench_setup, fractal601, signal, t_end=steps * 1e-3, record_every=4)
    assert cfg.steps == steps
    assert_is_the_dense_loop(sim.simulate(cfg))


@pytest.mark.parametrize("steps", STEP_COUNTS)
def test_blocked_disturbance_in_a_union_of_two_index_maps(bench_setup, fractal601, steps):
    model, _ = bench_setup
    steps = STEP_COUNTS[steps](block_steps(2 * 601, model.n))
    # each run reads the waveform at its own labels 1..601
    cfgs = [
        bench_cfg(
            bench_setup, fractal601, signals.chirp_signal(),
            t_end=steps * 1e-3, seed=seed, record_every=5, rho0=0.1 * seed,
        )
        for seed in (0, 1)
    ]
    # the union's block is half the lone run's: 1202 rows per stage
    for traj in sim.simulate_union(cfgs):
        assert_is_the_dense_loop(traj)


def counting_waveform(monkeypatch):
    """Patch signals.waveform to record the labels of each waveform and the times of each evaluation."""
    labels, times, waveform = [], [], signals.waveform

    def counted(signal, agents):
        labels.append(np.asarray(agents))
        wave = waveform(signal, agents)
        return lambda t: times.append(np.asarray(t)) or wave(t)

    monkeypatch.setattr(sim.sigs, "waveform", counted)
    return labels, times


def test_a_union_evaluates_each_disturbance_label_once(bench_setup, monkeypatch):
    # a sweep's union asks for labels 1..25 eight times: each is evaluated once per
    # stage time and gathered, so every run is still its lone run and the per-stage loop
    g = graph.vicsek_fractal(2, directed=True)
    cfgs = union_members(bench_setup, [g] * 8, t_end=0.1)
    labels, times = counting_waveform(monkeypatch)
    union = sim.simulate_union(cfgs)
    assert len(labels) == 1 and np.array_equal(labels[0], np.arange(1, 26))
    assert sum(t.size for t in times) == 3 * cfgs[0].steps  # each stage time once
    monkeypatch.undo()
    for cfg, traj in zip(cfgs, union, strict=True):
        assert_is_the_dense_loop(traj)
        for field in ("times", "states", "gains"):
            assert np.array_equal(getattr(traj, field), getattr(sim.simulate(cfg), field)), field


# what simulate allocates beyond its record and the block of disturbance
# terms: the waveform's values and their temporaries (each a third of the
# block at n = 3), the RK4 stage arrays, the coupling operator and the gains'
# monotonicity check, one sample's worth (measured: 0.37 MiB with chirp,
# 0.47 MiB with a table)
BLOCK_SLACK = 512 * 1024


@pytest.mark.parametrize(
    "kind, record_every",
    [("chirp", 50), ("table", 50), ("chirp", 1), ("table", 1)],
    ids=["chirp", "table", "chirp-every-step", "table-every-step"],
)
def test_the_disturbance_block_stays_within_its_budget(bench_setup, fractal601, kind, record_every):
    # evaluated over the whole horizon at once, the terms would take 21.6 MB;
    # a check of the gains over the whole record at once would take 2.4 MB
    signal = BLOCKED_SIGNALS[kind](0.5)
    cfg = bench_cfg(bench_setup, fractal601, signal, t_end=0.5, record_every=record_every)
    tracemalloc.start()
    try:
        traj = sim.simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = traj.times.nbytes + traj.states.nbytes + traj.gains.nbytes
    assert peak - record < sim.BLOCK_BYTES + BLOCK_SLACK


@pytest.mark.parametrize("copies", [1, 3])
def test_rk4_steps_allocate_less_than_one_state(bench_setup, copies):
    # every array a step writes is the step's own, formed once: 100 steps on the
    # 121-agent tree, lone or three copies, allocate less than one (n + 1, N) state
    model, params = bench_setup
    L = graph.LaplacianOperator(*[graph.vicsek_fractal(3, directed=True)] * copies)
    S = np.vstack([np.random.default_rng(8).uniform(-5, 5, (model.n, L.n_nodes)), np.zeros(L.n_nodes)])
    step = sim.RK4Step(params, model.A, model.B, np.full(L.n_nodes, params.spec.d), L, 1e-3, S)
    w = np.full((3, model.n, L.n_nodes), 0.1)
    step(*w)
    tracemalloc.start()
    try:
        for _ in range(100):
            step(*w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S[-1].max() > 0.0  # the gains have moved
    assert peak < S.nbytes


# the kernel takes B'P zeta from one product [P | (B'P)']' @ Z, a GEMM of height
# n + m, where the paper's formula Z @ (B'P)' has width m: OpenBLAS may sum
# each entry in another order, so the two loops agree to round-off, not in bits
PAPER_LOOP_TOL = 1e-12


def test_simulation_matches_the_papers_formulas(bench_setup):
    # fig3c's shape: 121 agents on the directed fractal, chirp, samples every 50 steps
    g = graph.vicsek_fractal(3, directed=True)
    cfg = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=0.5, record_every=50)
    traj = sim.simulate(cfg)

    model, params = bench_setup
    A, B, E = model.A, model.B, model.E
    L = graph.laplacian(g)
    P, BtP, d = params.P, params.BtP, params.spec.d
    i = np.arange(1, g.n_nodes + 1)

    def f(t, x, rho):
        Z = L @ x
        Y = Z @ BtP.T
        V = np.einsum("ij,jk,ik->i", Z, P, Z)
        w = 0.1 * np.sin(0.1 * i * t + 0.01 * t * t)
        return x @ A.T + (-rho[:, None] * Y) @ B.T + w[:, None] * E.T, np.where(V >= d, (Y * Y).sum(axis=1), 0.0)

    dt = cfg.dt
    x = cfg.x0.reshape(g.n_nodes, model.n)
    rho = np.zeros(g.n_nodes)
    states, gains = [], []
    for k in range(cfg.steps):
        if k % cfg.record_every == 0:
            states.append(x)
            gains.append(rho)
        t = k * dt
        k1x, k1r = f(t, x, rho)
        k2x, k2r = f(t + 0.5 * dt, x + 0.5 * dt * k1x, rho + 0.5 * dt * k1r)
        k3x, k3r = f(t + 0.5 * dt, x + 0.5 * dt * k2x, rho + 0.5 * dt * k2r)
        k4x, k4r = f(t + dt, x + dt * k3x, rho + dt * k3r)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    states, gains = np.array(states + [x]), np.array(gains + [rho])
    Z = L @ states
    controls = -gains[..., None] * (Z @ BtP.T)
    levels = np.einsum("sij,jk,sik->si", Z, P, Z)

    assert np.abs(gains[-1]).max() > 0.0  # the gains have moved
    _, U, V = protocol.feedback(traj.gains, traj.zetas, params, d)
    assert traj.states.swapaxes(1, 2).shape == states.shape
    for got, want in ((traj.states.swapaxes(1, 2), states), (traj.gains[..., None], gains[..., None]),
                      (U.swapaxes(1, 2), controls), (V[..., None], levels[..., None])):
        scale = np.abs(want).max(axis=(0, 1))  # one per column
        assert np.all(np.abs(got - want).max(axis=(0, 1)) <= PAPER_LOOP_TOL * scale)


def union_members(bench_setup, graphs, t_end=1.0):
    # distinct seeds and initial gains, one design and grid
    return [
        bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=t_end, seed=k, record_every=20, rho0=0.1 * k)
        for k, g in enumerate(graphs)
    ]


def test_union_members_are_their_lone_runs_on_directed_fractals(bench_setup):
    graphs = [graph.vicsek_fractal(gen, directed=True) for gen in (1, 2, 1, 3, 2)]
    cfgs = union_members(bench_setup, graphs)
    union = sim.simulate_union(cfgs)
    assert [traj.config for traj in union] == cfgs
    for cfg, traj in zip(cfgs, union, strict=True):
        lone = sim.simulate(cfg)
        assert np.abs(lone.gains[-1]).max() > 0.0  # the gains have moved
        for field in ("times", "states", "gains", "zetas"):
            assert np.array_equal(getattr(traj, field), getattr(lone, field)), field


def spanning_digraph(seed):
    """A seeded random weighted digraph with a directed spanning tree: a random tree, plus random edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    order = rng.permutation(n) + 1
    edges = [(int(order[rng.integers(k)]), int(order[k]), rng.uniform(0.2, 3.0)) for k in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.choice(n, 2, replace=False) + 1
        edges.append((int(i), int(j), rng.uniform(0.2, 3.0)))
    g = graph.from_edge_list(n, edges)
    assert graph.has_directed_spanning_tree(g)
    return g


def explicit_scatter(g, x):
    """L x on agent rows x (N, n), accumulated one edge at a time.

    From +0.0, each receiver adds its edge terms x_j (-w) in sorted edge
    order, then its row sum times x_i.
    """
    out, row_sums = np.zeros(x.shape), np.zeros(g.n_nodes)
    for i, j, w in zip(g.receivers.tolist(), g.senders.tolist(), g.edge_weights.tolist()):
        out[i] += x[j] * -w
        row_sums[i] += w
    return out + row_sums[:, None] * x


def test_edge_scatter_sums_each_node_in_sorted_edge_order(monkeypatch):
    # one np.bincount scatters every state row at once: each bin still sums
    # its edges in the order the per-column scatter did, bit for bit
    monkeypatch.setattr(graph, "EDGE_PATH_NODES", 1)
    rng = np.random.default_rng(5)
    for g in (graph.vicsek_fractal(4, directed=False), spanning_digraph(2)):
        assert np.bincount(g.receivers).max() > 1  # a node with several in-neighbours
        for copies in (1, 2):
            op = graph.LaplacianOperator(*[g] * copies)
            assert op.dense is None
            x = rng.uniform(-5, 5, (2, copies * g.n_nodes, 3))
            got = op(x.swapaxes(-1, -2)).swapaxes(-1, -2)
            for s, k in np.ndindex(2, copies):
                rows = slice(k * g.n_nodes, (k + 1) * g.n_nodes)
                assert np.array_equal(got[s, rows], explicit_scatter(g, x[s, rows]))


def test_tree_gather_is_the_scatter_in_value_and_sign_bit():
    # a graph of EDGE_PATH_NODES nodes or more where no node hears two others
    # gathers each node's parent; its one term is summed from +0.0, as in a
    # bin, so zero states of either sign give the scatter's zeros, sign and all
    rng = np.random.default_rng(11)
    fractal = graph.vicsek_fractal(4, directed=True)
    perm = rng.permutation(fractal.n_nodes)  # a weighted tree, relabelled
    edges = zip(perm[fractal.senders] + 1, perm[fractal.receivers] + 1, rng.uniform(0.2, 3.0, fractal.n_edges))
    weighted = graph.from_edge_list(fractal.n_nodes, [(int(j), int(i), w) for j, i, w in edges])
    assert graph.LaplacianOperator(graph.vicsek_fractal(4)).parents is None  # in-degree >= 2 scatters
    for g in (fractal, weighted):
        assert g.n_nodes >= graph.EDGE_PATH_NODES and np.bincount(g.receivers).max() == 1
        for copies in (1, 2):
            op = graph.LaplacianOperator(*[g] * copies)
            assert op.dense is None and op.parents is not None
            for lead in ((), (2,)):
                X = rng.choice([0.0, -0.0, 1.5, -2.25], lead + (3, copies * g.n_nodes))
                out = np.full(X.shape, np.nan)
                for got in (op(X), op(X, out=out)):
                    for idx in np.ndindex(*lead, copies):
                        cols = slice(idx[-1] * g.n_nodes, (idx[-1] + 1) * g.n_nodes)
                        ref = explicit_scatter(g, X[idx[:-1]][:, cols].T).T
                        part = got[idx[:-1]][:, cols]
                        assert np.array_equal(part, ref) and np.array_equal(np.signbit(part), np.signbit(ref))
                assert got is out


def test_unit_weight_tree_blocks_gather_as_the_scatter_sums():
    # copies of a directed tree of unit weights, at any column count, and a lone one of
    # TREE_GATHER_COLUMNS nodes form x_i - x_parent and add +0.0: the scatter's values and
    # sign bits, allocated or into out, where a union's block writes a strided slice
    rng = np.random.default_rng(12)
    g25, g121, star = graph.vicsek_fractal(2, True), graph.vicsek_fractal(3, True), graph.vicsek_fractal(1)
    assert not graph.LaplacianOperator(g25).unit_tree  # a lone tree below the crossover keeps the dense product
    dstar = graph.vicsek_fractal(1, True)  # 8 copies: a sweep of eight fig3a runs, 40 columns
    cases = (([g121], [True]), ([g25] * 2, [True]), ([g25] * 8, [True]), ([star, g25, g25], [False, True]),
             ([dstar] * 8, [True]))
    for graphs, gathers in cases:
        op = graph.LaplacianOperator(*graphs)
        assert [b.unit_tree for b in op.blocks or [op]] == gathers
        # weighted, the same trees keep the dense product, one per copy
        heavy = graph.LaplacianOperator(*[graph.WeightedDigraph(g.n_nodes, g.receivers, g.senders,
                                                                0.5 * g.edge_weights) for g in graphs])
        assert [(b.unit_tree, b.dense is not None) for b in heavy.blocks or [heavy]] == [(False, True)] * len(gathers)
        cols = np.cumsum([0] + [g.n_nodes for g in graphs])
        for lead in ((), (2,)):
            X = rng.choice([0.0, -0.0, 1.5, -2.25], lead + (3, op.n_nodes))
            out = np.full(X.shape, np.nan)
            for got in (op(X), op(X, out=out)):
                for g, lo, hi in zip(graphs, cols, cols[1:]):
                    for idx in np.ndindex(*lead):
                        part, x = got[idx][:, lo:hi], X[idx][:, lo:hi]
                        ref = explicit_scatter(g, x.T).T if g is not star else graph.LaplacianOperator(g)(x)
                        assert np.array_equal(part, ref) and np.array_equal(np.signbit(part), np.signbit(ref))
            assert got is out


def assert_members_are_lone_runs(cfgs):
    union = sim.simulate_union(cfgs)
    assert [traj.config for traj in union] == cfgs
    for cfg, traj in zip(cfgs, union, strict=True):
        lone = sim.simulate(cfg)
        assert np.abs(lone.gains[-1]).max() > 0.0  # the gains have moved
        assert (np.diff(traj.gains, axis=0) >= 0.0).all()  # and never fell
        for field in ("times", "states", "gains", "zetas"):
            assert np.array_equal(getattr(traj, field), getattr(lone, field)), field


def test_union_members_are_their_lone_runs_on_generated_graphs(bench_setup, monkeypatch):
    # each graph's rows are coupled by its own graph's map, so every member is
    # its lone run bit for bit: weighted digraphs, undirected fractals, circulants
    graphs = [
        spanning_digraph(1),
        graph.vicsek_fractal(2, directed=False),
        graph.circulant(30, [1, 2], directed=False),
        spanning_digraph(2),
        graph.vicsek_fractal(1, directed=True),
        graph.circulant(17, [1, 3], directed=True),
        spanning_digraph(3),
        graph.vicsek_fractal(1, directed=False),
    ]
    assert_members_are_lone_runs(union_members(bench_setup, graphs))
    # mixed sizes: with EDGE_PATH_NODES lowered, the 25- and 22-node graphs work
    # per edge beside a dense block, and two consecutive copies form one block
    monkeypatch.setattr(graph, "EDGE_PATH_NODES", 20)
    big = graph.vicsek_fractal(2, directed=False)
    graphs = [big, big, spanning_digraph(4), graph.circulant(17, [1, 3], directed=False), big]
    blocks = graph.LaplacianOperator(*graphs).blocks
    assert [(b.copies, b.dense is None) for b in blocks] == [(2, True), (1, True), (1, False), (1, True)]
    assert_members_are_lone_runs(union_members(bench_setup, graphs, t_end=0.5))


def test_union_members_on_one_repeated_graph_are_their_lone_runs(bench_setup):
    # copies of one undirected graph couple through one batched product, the
    # lone run's own, and each row keeps its run's deadzone: bit for bit alone
    model, params = bench_setup
    g = graph.circulant(30, [1, 2], directed=False)
    specs = [{"d": 0.5}, {"d": 0.05}, {"delta": 1.5}, {"d": 0.2, "delta": 1.0}]
    cfgs = [  # initial states near consensus, so agents cross their deadzones
        dataclasses.replace(cfg, params=protocol.ProtocolParams(params.P, model.B, **spec), x0=0.05 * cfg.x0)
        for cfg, spec in zip(union_members(bench_setup, [g] * len(specs)), specs, strict=True)
    ]
    assert len({cfg.params.spec for cfg in cfgs}) == len(cfgs)
    op = graph.LaplacianOperator(*(cfg.graph for cfg in cfgs))
    assert not op.blocks and op.copies == len(cfgs)
    for cfg, traj in zip(cfgs, sim.simulate_union(cfgs), strict=True):
        assert traj.config is cfg  # and so its own spec
        levels = protocol.feedback(traj.gains, traj.zetas, cfg.params, cfg.params.spec.d)[2]
        assert (levels < cfg.params.spec.d).any() and (levels >= cfg.params.spec.d).any()
        lone = sim.simulate(cfg)
        for field in ("times", "states", "gains", "zetas"):
            assert np.array_equal(getattr(traj, field), getattr(lone, field)), field


def test_union_refuses_runs_of_different_designs(bench_setup):
    g = graph.vicsek_fractal(1, directed=True)
    base = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=0.1)
    model, params = bench_setup
    table = signals.table_signal([0.0, 0.1], np.zeros((2, 5)))
    others = [
        dataclasses.replace(base, params=protocol.ProtocolParams(2 * params.P, model.B, d=0.5)),
        dataclasses.replace(base, dt=5e-4),
        dataclasses.replace(base, t_end=0.2),
        dataclasses.replace(base, record_every=5),
        dataclasses.replace(base, disturbance=signals.sawtooth_signal()),
        dataclasses.replace(base, disturbance=table),
    ]
    for other in others:
        assert not sim.can_join(base, other)
        with pytest.raises(ValueError, match="differs from run 0"):
            sim.simulate_union([base, other])
    # graph, x0, rho0 and the spec may differ; a table disturbance runs, but only alone
    assert sim.can_join(base, dataclasses.replace(base, graph=graph.vicsek_fractal(2), x0=np.zeros(75), rho0=1.0))
    for spec in ({"d": 0.2}, {"delta": 1.5}, {"d": 0.2, "delta": 1.5}):
        assert sim.can_join(base, dataclasses.replace(base, params=protocol.ProtocolParams(params.P, model.B, **spec)))
    assert sim.simulate_union([dataclasses.replace(base, disturbance=table)])[0].times[-1] == 0.1
    with pytest.raises(ValueError, match="at least one run"):
        sim.simulate_union([])


def test_union_divergence_names_the_run_and_keeps_its_partial():
    # chains 1 -> 2 of the lone guard test's unstable agent; run 0 rests at the
    # origin, while run 1's follower starts 1000 from its root, so its gain rate
    # (~1e6) overshoots the first step: agent 2 of run 1, union row 4, diverges
    model = linalg.AgentModel([[5.0]], [[1.0]], [[1.0]])
    params = protocol.ProtocolParams(linalg.solve_care(model.A, model.B).P, model.B, d=0.5)
    cfgs = [
        sim.SimConfig(
            model=model, graph=graph.from_edge_list(2, [(1, 2, 1.0)]), params=params,
            disturbance=signals.zero_signal(), x0=x0, t_end=1.0, dt=1e-3, record_every=100,
        )
        for x0 in ([0.0, 0.0], [0.0, 1000.0])
    ]
    with pytest.raises(sim.DivergenceError, match="agent 2 of run 1 at t=0.001 ") as err:
        sim.simulate_union(cfgs)
    with pytest.raises(sim.DivergenceError, match="agent 2 at t=0.001 ") as lone:
        sim.simulate(cfgs[1])
    assert (err.value.agent, err.value.time) == (lone.value.agent, lone.value.time)
    assert err.value.partial.config is cfgs[1]
    assert np.array_equal(err.value.partial.states, lone.value.partial.states)
    assert np.all(sim.simulate(cfgs[0]).states == 0.0)  # run 0 alone never diverges


def test_validate_rejections(bench_setup):
    model, params = bench_setup
    g = graph.vicsek_fractal(1)
    ok = dict(model=model, graph=g, params=params,
              disturbance=signals.zero_signal(), x0=np.zeros(15))

    cfg = sim.SimConfig(**ok)
    # checked once, when built: fields are frozen, and replace checks again
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = 0.0
    with pytest.raises(ValueError, match="dt"):
        dataclasses.replace(cfg, dt=0.0)

    with pytest.raises(ValueError, match="dt"):
        sim.SimConfig(**{**ok, "dt": 0.0})
    with pytest.raises(ValueError, match="t_end"):
        sim.SimConfig(**{**ok, "t_end": 1e-4})
    # 1e10 / 1e-300 overflows: refused when built, not as an OverflowError in simulate
    with pytest.raises(ValueError, match="not a finite step count"):
        sim.SimConfig(**{**ok, "t_end": 1e10, "dt": 1e-300})
    with pytest.raises(ValueError, match="record_every"):
        sim.SimConfig(**{**ok, "record_every": 0})
    with pytest.raises(ValueError, match="x0"):
        sim.SimConfig(**{**ok, "x0": np.zeros(7)})
    with pytest.raises(ValueError, match="nonnegative"):
        sim.SimConfig(**{**ok, "rho0": -1.0})

    no_tree = graph.from_edge_list(5, [(1, 2, 1.0)])
    with pytest.raises(linalg.AssumptionError, match="spanning tree"):
        sim.SimConfig(**{**ok, "graph": no_tree})

    unstabilizable = linalg.AgentModel(np.diag([1.0, -1.0, -1.0]),
                                       np.array([[0.0], [0.0], [1.0]]),
                                       np.array([[0.0], [0.0], [1.0]]))
    with pytest.raises(linalg.AssumptionError, match="not stabilizable"):
        sim.SimConfig(**{**ok, "model": unstabilizable})

    unbounded = signals.DisturbanceSignal(kind="chirp", bound=np.inf)
    with pytest.raises(linalg.AssumptionError, match="finite"):
        sim.SimConfig(**{**ok, "disturbance": unbounded})


def test_table_disturbance_must_cover_the_run(bench_setup):
    # the run integrates round(t_end/dt) steps: t_end = 0.0015 ends at t = 0.002
    g = graph.vicsek_fractal(1, directed=True)
    covers = signals.table_signal([0.0, 0.002], np.zeros((2, 5)))
    short = signals.table_signal([0.0, 0.0015], np.zeros((2, 5)))
    cfg = dict(model=bench_setup[0], graph=g, params=bench_setup[1], x0=np.zeros(15), t_end=0.0015)
    assert sim.SimConfig(disturbance=covers, **cfg).steps == 2
    assert sim.simulate(sim.SimConfig(disturbance=covers, **cfg)).times[-1] == 0.002
    with pytest.raises(ValueError, match="extrapolation is refused"):
        sim.SimConfig(disturbance=short, **cfg)
    # every queried agent label needs a column: 5 columns cannot drive 25 agents
    g25 = graph.vicsek_fractal(2, directed=True)
    with pytest.raises(ValueError, match="agents 1..5 .* agents 1..25"):
        sim.SimConfig(**{**cfg, "graph": g25, "x0": np.zeros(75)}, disturbance=covers)


def test_default_initial_state_is_seeded():
    a = sim.default_initial_state(5, 3, seed=7)
    b = sim.default_initial_state(5, 3, seed=7)
    c = sim.default_initial_state(5, 3, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (15,)
    assert np.abs(a).max() <= 5.0


def test_recording_grid(bench_setup):
    g = graph.vicsek_fractal(1)
    cfg = bench_cfg(bench_setup, g, signals.zero_signal(), t_end=2.0, record_every=10)
    traj = sim.simulate(cfg)
    assert traj.n_samples == 201
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 2.0
    assert np.allclose(np.diff(traj.times), 0.01, atol=1e-12)
    assert traj.states.shape == (201, 3, 5)
    assert protocol.feedback(traj.gains, traj.zetas, cfg.params, cfg.params.spec.d)[1].shape == (201, 1, 5)


def test_simulation_is_deterministic(bench_setup):
    g = graph.vicsek_fractal(1, directed=True)
    ta = sim.simulate(bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=1.0))
    tb = sim.simulate(bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=1.0))
    assert np.array_equal(ta.states, tb.states)
    assert np.array_equal(ta.gains, tb.gains)


def test_derived_record_matches_per_sample_maps(bench_setup):
    g = graph.vicsek_fractal(2, directed=True)
    cfg = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=2.0, record_every=50)
    traj = sim.simulate(cfg)
    # the record holds (t, x, rho) and its config; the rest is derived
    assert [f.name for f in dataclasses.fields(sim.Trajectory)] == ["times", "states", "gains", "config"]
    assert traj.config is cfg
    L = graph.laplacian(g)
    params = cfg.params
    Z = traj.zetas
    _, U, V = protocol.feedback(traj.gains, Z, params, params.spec.d)
    assert np.abs(U[-1]).max() > 0.0  # the gains have grown, so the inputs are not all zero
    for s in (0, traj.n_samples // 2, traj.n_samples - 1):
        zs = protocol.zeta(L, traj.states[s].T)
        assert np.array_equal(Z[s], zs.T)
        assert np.array_equal(U[s], protocol.feedback(traj.gains[s], zs.T, params, params.spec.d)[1])
        expected = np.array([z @ params.P @ z for z in zs])
        assert np.abs(V[s] - expected).max() <= 1e-12 * max(1.0, expected.max())


@pytest.mark.parametrize(
    "g",
    [graph.circulant(121, [1, 2], directed=True), graph.vicsek_fractal(4, directed=False)],
    ids=["circulant121_dense", "fractal601_undirected_edges"],
)
def test_record_reports_what_the_kernel_computed(tmp_path, bench_setup, g):
    # several in-neighbours per node, where a product of another shape may sum
    # in another order: the reported zeta, u, |zeta| and V are the kernel's
    traj = sim.simulate(bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=0.2, record_every=20))
    params = traj.config.params
    op = graph.LaplacianOperator(g)
    assert (op.dense is None) == (g.n_nodes >= graph.EDGE_PATH_NODES)
    sim.write_trajectory_csv(traj, tmp_path / "traj.csv")
    with open(tmp_path / "traj.csv", newline="") as fh:
        rows = np.array(list(csv.reader(fh))[1:], dtype=float).reshape(traj.n_samples, g.n_nodes, -1)
    assert np.abs(traj.gains[-1]).max() > 0.0  # the gains have moved
    for s in range(traj.n_samples):
        Z = op(np.ascontiguousarray(traj.states[s]))  # the kernel's stage-1 product
        assert np.array_equal(traj.zetas[s], Z)
        _, U, V = protocol.feedback(traj.gains[s], Z, params, params.spec.d)
        assert np.array_equal(rows[s, :, 6:], np.column_stack([U.T, np.linalg.norm(Z, axis=0), V]))


def test_trajectory_csv_format(tmp_path, bench_setup):
    g = graph.vicsek_fractal(1, directed=True)
    traj = sim.simulate(bench_cfg(bench_setup, g, signals.chirp_signal(),
                                  t_end=0.1, record_every=20))
    params = traj.config.params
    _, U, V = protocol.feedback(traj.gains, traj.zetas, params, params.spec.d)
    path = tmp_path / "traj.csv"
    sim.write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "agent", "x_1", "x_2", "x_3", "rho", "u_1", "zeta_norm", "V_i"]
    assert len(rows) == 1 + traj.n_samples * 5
    # values round-trip exactly through repr
    s, a = 3, 2
    row = rows[1 + s * 5 + a]
    assert float(row[0]) == traj.times[s]
    assert int(row[1]) == a + 1
    assert [float(v) for v in row[2:5]] == list(traj.states[s, :, a])
    assert float(row[5]) == traj.gains[s, a]
    assert float(row[6]) == U[s, 0, a]
    assert float(row[7]) == np.linalg.norm(traj.zetas[s, :, a])
    assert float(row[8]) == V[s, a]


def test_trajectory_csv_bytes_are_stable(tmp_path, bench_setup):
    g = graph.vicsek_fractal(1, directed=True)
    cfgs = [bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=0.1, record_every=20)
            for _ in range(2)]
    paths = []
    for k, cfg in enumerate(cfgs):
        p = tmp_path / f"t{k}.csv"
        sim.write_trajectory_csv(sim.simulate(cfg), p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trajectory_csv_matches_the_csv_module(tmp_path, bench_setup):
    # a fig3a-sized record (5 agents, 3001 samples) with values spanning
    # many decades and signs, rendered cell by cell through csv.writer
    g = graph.vicsek_fractal(1, directed=True)
    cfg = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=30.0)
    rng = np.random.default_rng(5)
    S, N, n = 3001, g.n_nodes, 3
    states = rng.normal(size=(S, N, n)) * 10.0 ** rng.integers(-20, 20, size=(S, N, n))
    states[0] = 0.0
    states[1, 0] = [-0.0, 1.0, 1e16]
    traj = sim.Trajectory(np.arange(S) * 0.01, states.swapaxes(1, 2), rng.uniform(0, 50, size=(S, N)), cfg)
    sim.write_trajectory_csv(traj, tmp_path / "fast.csv")

    _, U, V = protocol.feedback(traj.gains, traj.zetas, cfg.params, cfg.params.spec.d)
    U = U.swapaxes(1, 2)
    znorm = np.linalg.norm(traj.zetas, axis=1)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "agent", "x_1", "x_2", "x_3", "rho", "u_1", "zeta_norm", "V_i"])
    for s in range(S):
        for a in range(N):
            row = [repr(float(traj.times[s])), str(a + 1)]
            row += [repr(float(v)) for v in states[s, a]]
            row.append(repr(float(traj.gains[s, a])))
            row += [repr(float(v)) for v in U[s, a]]
            row += [repr(float(znorm[s, a])), repr(float(V[s, a]))]
            writer.writerow(row)
    assert (tmp_path / "fast.csv").read_bytes() == buf.getvalue().encode()


@pytest.fixture(scope="module")
def chunked_runs(bench_setup):
    """51 samples each: a lone run on a dense graph, and a union member whose columns are strided views."""
    lone = sim.simulate(bench_cfg(bench_setup, graph.vicsek_fractal(2), signals.chirp_signal(), t_end=1.0,
                                  record_every=20))
    member = sim.simulate_union(union_members(bench_setup, [graph.vicsek_fractal(2, directed=True),
                                                            graph.circulant(30, [1, 3])]))[1]
    return {"lone": lone, "union-member": member}


@pytest.mark.parametrize("run", ["lone", "union-member"])
def test_the_post_run_pass_is_the_same_for_every_chunk_size(tmp_path, monkeypatch, chunked_runs, run):
    # chunks of one sample; of 7, which divide neither the 51 samples nor the 41 before the 10-sample tail
    # window, so the window starts mid-chunk; and of the whole record: the same report fields, to the sign
    # of a zero, and the same CSV bytes
    traj = chunked_runs[run]
    assert traj.states.flags.c_contiguous == (run == "lone") and np.abs(traj.gains[-1]).max() > 0.0
    sample = traj.states[0].nbytes
    reports, files = [], []
    for k, (budget, sizes) in enumerate([(sample, {1}), (7 * sample, {7, 2}), (51 * sample, {51})]):
        monkeypatch.setattr(sim, "CHUNK_BYTES", budget)
        assert {c.stop - c.start for c in sim.chunks(traj)} == sizes
        reports.append(analysis.summary_csv_row(analysis.summarize(traj)))
        sim.write_trajectory_csv(traj, tmp_path / f"{k}.csv")
        files.append((tmp_path / f"{k}.csv").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert files[0] == files[1] == files[2]


# what summarize and the CSV writer may allocate, in chunk budgets: a chunk's zeta, the feedback product's
# K Z (4/3 of it at n = 3, m = 1), its inputs, levels and rates, and one sample's rows as Python floats
POST_RUN_CHUNKS = 8


def traced_peak(run, *args):
    """The tracemalloc peak of run(*args), in bytes; the arguments are made before tracing starts."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_post_run_pass_holds_a_few_chunks_however_long_the_record(tmp_path, bench_setup):
    # fig3c-shaped records (121 agents on the directed fractal, 601 samples), and a longer and a shorter one:
    # summarize and the CSV writer hold a few CHUNK_BYTES, and under 64 bytes more a sample (a sample's flag),
    # where a sample's zeta is 2,904; deriving zeta, K Z, u, V and |zeta| of the whole 601-sample record at
    # once took 4.4 (summarize) and 5.6 MiB (CSV). Tracing each Python float the CSV writer makes is slow, so
    # its second record is the short one, of two chunks, one full
    cfg = bench_cfg(bench_setup, graph.vicsek_fractal(3, directed=True), signals.chirp_signal(), t_end=30.0,
                    record_every=50)

    def record(S):
        rng = np.random.default_rng(S)
        gains = np.cumsum(rng.uniform(0.0, 1e-3, (S, 121)), axis=0)
        return sim.Trajectory(np.arange(S) * 0.05, rng.uniform(-1.0, 1.0, (S, 3, 121)), gains, cfg)

    for run, path, lengths in [(analysis.summarize, (), (601, 2401)),
                               (sim.write_trajectory_csv, (tmp_path / "traj.csv",), (45, 601))]:
        short, long = (traced_peak(run, record(S), *path) for S in lengths)
        assert max(short, long) < POST_RUN_CHUNKS * sim.CHUNK_BYTES, run.__name__
        assert long - short < 64 * (lengths[1] - lengths[0]), run.__name__


def test_write_metadata_round_trip(tmp_path):
    meta = {"seed": 7, "version": "0.1.0", "config": {"name": "x", "dt": 1e-3}}
    path = tmp_path / "meta.yaml"
    sim.write_metadata(path, meta)
    assert yaml.safe_load(path.read_text()) == meta
