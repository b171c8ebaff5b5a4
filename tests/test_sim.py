import csv
import dataclasses
import io

import numpy as np
import pytest
import yaml

from cohsync import graph, linalg, protocol, signals, sim


def scalar_params(d=0.5):
    # A=0, B=E=1: the Riccati solution is P=[1], everything hand-checkable
    model = linalg.AgentModel([[0.0]], [[1.0]], [[1.0]])
    P = np.array([[1.0]])
    spec = protocol.spec_from_deadzone(d, P)
    return model, protocol.ProtocolParams(P, model.B, spec)


@pytest.fixture(scope="module")
def bench_setup(benchmark_model, benchmark_P):
    spec = protocol.spec_from_deadzone(0.5, benchmark_P)
    return benchmark_model, protocol.ProtocolParams(benchmark_P, benchmark_model.B, spec)


def bench_cfg(bench_setup, g, signal, t_end=5.0, seed=7, record_every=10, **kw):
    model, params = bench_setup
    x0 = kw.pop("x0", sim.default_initial_state(g.n_nodes, model.n, seed))
    return sim.SimConfig(
        model=model, graph=g, params=params, disturbance=signal,
        x0=x0, t_end=t_end, dt=1e-3, record_every=record_every, **kw,
    )


def test_rhs_hand_checked_two_node_chain():
    model, params = scalar_params(d=0.5)
    g = graph.from_edge_list(2, [(1, 2, 1.0)])
    cfg = sim.SimConfig(model=model, graph=g, params=params,
                        disturbance=signals.zero_signal(), x0=[0.0, 1.0])
    L = graph.LaplacianOperator(g)
    xdot, rates = sim.rhs(cfg, L, 0.0, np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    # agent 2 sees zeta = 1: u = -1, xdot = -1, gain grows at 1
    assert np.array_equal(xdot, np.array([[0.0], [-1.0]]))
    assert np.array_equal(rates, np.array([0.0, 1.0]))


def test_rhs_equal_states_coast(bench_setup):
    model, params = bench_setup
    g = graph.vicsek_fractal(1)
    x = np.tile(np.array([3.0, -2.0, 5.0]), (5, 1))
    cfg = sim.SimConfig(model=model, graph=g, params=params,
                        disturbance=signals.zero_signal(), x0=x.reshape(-1))
    xdot, rates = sim.rhs(cfg, graph.LaplacianOperator(g), 0.0, x, np.zeros(5))
    expected = np.tile(model.A @ np.array([3.0, -2.0, 5.0]), (5, 1))
    assert np.array_equal(xdot, expected)
    assert np.all(rates == 0.0)


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
        assert np.abs(traj.states[:, a, :] - expected).max() <= 1e-8
    assert np.all(traj.gains == 0.0)
    assert np.abs(traj.zetas).max() <= 1e-10
    assert np.all(traj.controls == 0.0)


def test_zero_disturbance_disagreement_decays(bench_setup):
    g = graph.vicsek_fractal(1)
    cfg = bench_cfg(bench_setup, g, signals.zero_signal(), t_end=30.0)
    traj = sim.simulate(cfg)
    z0 = np.linalg.norm(traj.zetas[0], axis=1).max()
    zT = np.linalg.norm(traj.zetas[-1], axis=1).max()
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
    assert np.abs(ta.controls - tb.controls).max() <= 1e-8


def test_permutation_equivariance(bench_setup):
    rng = np.random.default_rng(0)
    g = graph.vicsek_fractal(1, directed=True)
    perm = rng.permutation(5)
    base = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=5.0)
    x0 = np.asarray(base.x0).reshape(5, 3)
    x0p = np.empty_like(x0)
    x0p[perm] = x0
    relabeled = bench_cfg(
        bench_setup, graph.relabel(g, perm),
        signals.relabel(signals.chirp_signal(), perm), t_end=5.0, x0=x0p.reshape(-1),
    )
    ta = sim.simulate(base)
    tb = sim.simulate(relabeled)
    assert np.abs(tb.states[:, perm] - ta.states).max() <= 1e-8
    assert np.abs(tb.gains[:, perm] - ta.gains).max() <= 1e-8
    assert np.abs(tb.zetas[:, perm] - ta.zetas).max() <= 1e-8
    assert np.abs(tb.controls[:, perm] - ta.controls).max() <= 1e-8


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


def test_divergence_guard_reports_agent_and_keeps_partial():
    # single unstable agent, no neighbours: x = 2 e^{5t} crosses 1e12 near t=5.4
    model = linalg.AgentModel([[5.0]], [[1.0]], [[1.0]])
    P = linalg.solve_care(model.A, model.B).P
    params = protocol.ProtocolParams(P, model.B, protocol.spec_from_deadzone(0.5, P))
    cfg = sim.SimConfig(
        model=model, graph=graph.WeightedDigraph(np.zeros((1, 1))), params=params,
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


def test_edge_path_simulation_matches_a_dense_loop(bench_setup):
    # 601 agents take the per-edge Laplacian; on a tree it rounds as L @ x does
    g = graph.vicsek_fractal(4, directed=True)
    assert g.n_nodes >= graph.EDGE_PATH_NODES
    cfg = bench_cfg(bench_setup, g, signals.chirp_signal(), t_end=0.05, record_every=10)
    traj = sim.simulate(cfg)

    model, params = bench_setup
    L = graph.laplacian(g)
    agents = np.arange(1, g.n_nodes + 1)

    def f(t, x, rho):
        Z = L @ x
        u = protocol.control_all(rho, Z, params)
        w = signals.evaluate_all(cfg.disturbance, agents, t)
        return x @ model.A.T + u @ model.B.T + w[:, None] * model.E.T, protocol.gain_rates(Z, params)

    dt = cfg.dt
    x = cfg.x0.reshape(g.n_nodes, model.n)
    rho = np.zeros(g.n_nodes)
    for k in range(cfg.steps):
        t = k * dt
        k1x, k1r = f(t, x, rho)
        k2x, k2r = f(t + 0.5 * dt, x + 0.5 * dt * k1x, rho + 0.5 * dt * k1r)
        k3x, k3r = f(t + 0.5 * dt, x + 0.5 * dt * k2x, rho + 0.5 * dt * k2r)
        k4x, k4r = f(t + dt, x + dt * k3x, rho + dt * k3r)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    assert np.abs(traj.gains[-1]).max() > 0.0  # the gains have moved
    assert np.array_equal(traj.states[-1], x)
    assert np.array_equal(traj.gains[-1], rho)
    assert np.array_equal(traj.zetas, L @ traj.states)


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
    # a rerouted signal queries the labels of its index map, not 1..N
    one = signals.table_signal([0.0, 0.002], np.zeros((2, 1)))
    sim.SimConfig(disturbance=dataclasses.replace(one, index_map=np.ones(5, dtype=int)), **cfg)
    with pytest.raises(ValueError, match="agents 1..1 .* agents 1..2"):
        sim.SimConfig(disturbance=dataclasses.replace(one, index_map=np.array([1, 1, 2, 1, 1])), **cfg)


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
    assert traj.states.shape == (201, 5, 3)
    assert traj.controls.shape == (201, 5, 1)


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
    Z, U, V = traj.zetas, traj.controls, traj.vi_values
    assert np.abs(U[-1]).max() > 0.0  # the gains have grown, so the inputs are not all zero
    for s in (0, traj.n_samples // 2, traj.n_samples - 1):
        zs = protocol.zeta(L, traj.states[s])
        assert np.array_equal(Z[s], zs)
        assert np.array_equal(U[s], protocol.control_all(traj.gains[s], zs, params))
        expected = np.array([z @ params.P @ z for z in zs])
        assert np.abs(V[s] - expected).max() <= 1e-12 * max(1.0, expected.max())


def test_trajectory_csv_format(tmp_path, bench_setup):
    g = graph.vicsek_fractal(1, directed=True)
    traj = sim.simulate(bench_cfg(bench_setup, g, signals.chirp_signal(),
                                  t_end=0.1, record_every=20))
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
    assert [float(v) for v in row[2:5]] == list(traj.states[s, a])
    assert float(row[5]) == traj.gains[s, a]
    assert float(row[6]) == traj.controls[s, a, 0]
    assert float(row[7]) == np.linalg.norm(traj.zetas[s, a])
    assert float(row[8]) == traj.vi_values[s, a]


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
    traj = sim.Trajectory(np.arange(S) * 0.01, states, rng.uniform(0, 50, size=(S, N)), cfg)
    sim.write_trajectory_csv(traj, tmp_path / "fast.csv")

    U, V = traj.controls, traj.vi_values
    znorm = np.linalg.norm(traj.zetas, axis=2)
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


def test_write_metadata_round_trip(tmp_path):
    meta = {"seed": 7, "version": "0.1.0", "config": {"name": "x", "dt": 1e-3}}
    path = tmp_path / "meta.yaml"
    sim.write_metadata(path, meta)
    assert yaml.safe_load(path.read_text()) == meta
