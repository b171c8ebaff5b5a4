"""End-to-end acceptance checks, one test per claim the package makes.

Each test prints a single criterion line (visible under pytest -s) and
asserts the full detail dict, so a failure shows exactly which part went
wrong. The simulation presets are shared through a module-scoped cache;
the whole module takes about 25 seconds, dominated by the long-horizon
121-agent runs.
"""

import dataclasses
import time

import numpy as np
import pytest
from conftest import judge, record, stage_rows

from cohsync import cli, graph, linalg, protocol, signals, sim


@pytest.fixture(scope="module")
def preset_run():
    cache = {}

    def run(name):
        if name not in cache:
            norm = cli.normalize_config(cli.load_config(name)[0], name)
            cfg, _, _ = cli.build_experiment(norm)
            start = time.perf_counter()
            traj = record(cfg)[0]
            elapsed = time.perf_counter() - start
            cache[name] = (norm, cfg, traj, elapsed)
        return cache[name]

    return run


def _report(number, label, checks):
    ok = all(checks.values())
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, {k: v for k, v in checks.items() if not v}


def _coherency_checks(traj, bound):
    s = judge(traj, bound=bound)
    return {
        "bound_holds": s.bound_ok,
        "gains_converged": s.gains_converged,
    }


def test_criterion_1_riccati_reproduction():
    start = time.perf_counter()
    model = linalg.triple_integrator()
    sol = linalg.solve_care(model.A, model.B)
    elapsed = time.perf_counter() - start
    printed = np.array([[2.41, 2.41, 1.0], [2.41, 4.82, 2.41], [1.0, 2.41, 2.41]])
    residual = model.A.T @ sol.P + sol.P @ model.A - sol.P @ model.B @ model.B.T @ sol.P + np.eye(3)
    checks = {
        "elementwise_within_0.01": bool(np.max(np.abs(sol.P - printed)) <= 0.01),
        "residual_below_1e-8": bool(np.linalg.norm(residual) <= 1e-8),
        "under_1s": elapsed < 1.0,
    }
    _report(1, "design equation reproduction", checks)


def test_criterion_2_connectivity_table():
    start = time.perf_counter()
    lams = [graph.algebraic_connectivity(graph.vicsek_fractal(g, directed=False))
            for g in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    checks = {
        "gen1_equals_1": abs(lams[0] - 1.0) <= 1e-9,
        "gen2_0.0692": abs(lams[1] - 0.0692) <= 5e-4,
        "gen3_0.0053": abs(lams[2] - 0.0053) <= 5e-4,
        "under_5s": elapsed < 5.0,
    }
    _report(2, "fractal connectivity table", checks)


def test_criterion_3_directed_fractal_coherency(preset_run):
    checks = {}
    for name in ("fig3a", "fig3b", "fig3c"):
        norm, cfg, traj, elapsed = preset_run(name)
        checks[f"{name}_dt_pinned"] = norm["integration"]["dt"] == 1e-3
        checks[f"{name}_t_end_pinned"] = norm["integration"]["t_end"] == 30.0
        for key, val in _coherency_checks(traj, 1.0).items():
            checks[f"{name}_{key}"] = val
    checks["fig3c_under_180s"] = preset_run("fig3c")[3] < 180.0
    _report(3, "delta-level coherency, directed fractals", checks)


def test_criterion_4_graph_family_robustness(preset_run):
    ref_cfg = preset_run("fig3a")[1]
    checks = {}
    for name in ("fig4a", "fig4b", "fig4c", "fig7"):
        _, cfg, traj, _ = preset_run(name)
        for key, val in _coherency_checks(traj, 1.0).items():
            checks[f"{name}_{key}"] = val
        # scale-free: the protocol never sees the graph, so the gain
        # matrices and threshold must be bit-identical across presets
        checks[f"{name}_same_P"] = cfg.params.P.tobytes() == ref_cfg.params.P.tobytes()
        checks[f"{name}_same_d"] = cfg.params.spec.d == ref_cfg.params.spec.d == 0.5
    _report(4, "graph-family robustness, no re-tuning", checks)


def test_criterion_5_disturbance_pattern_robustness(preset_run):
    _, cfg, traj, _ = preset_run("fig8")
    checks = _coherency_checks(traj, 1.0)
    _report(5, "sawtooth disturbance robustness", checks)


def test_criterion_6_threshold_robustness(preset_run):
    _, cfg, traj, _ = preset_run("fig9")
    checks = _coherency_checks(traj, 0.4)
    checks["d_is_0.2"] = cfg.params.spec.d == 0.2
    _report(6, "tighter deadzone threshold", checks)


def _short_cfg(seed=7, t_end=2.0):
    g = graph.vicsek_fractal(1, directed=True)
    model = linalg.triple_integrator()
    P = linalg.solve_care(model.A, model.B).P
    params = protocol.ProtocolParams(P, model.B, d=0.5)
    return sim.SimConfig(
        model=model,
        graph=g,
        params=params,
        disturbance=signals.chirp_signal(),
        x0=sim.default_initial_state(g.n_nodes, model.n, seed=seed),
        t_end=t_end,
        dt=1e-3,
        record_every=10,
    )


def test_criterion_7_invariant_suite():
    checks = {}

    cfg = _short_cfg()
    traj = record(cfg)[0]
    checks["gain_monotonicity_1e-12"] = bool(np.min(np.diff(traj.gains, axis=0)) >= -1e-12)

    # deadzone exactness: rates vanish identically strictly inside, and the
    # boundary itself counts as active
    params = cfg.params
    ones = np.ones(3)
    inside = np.zeros((3, 3))
    inside[0] = ones * 0.9 * np.sqrt(params.spec.d / (ones @ params.P @ ones))  # V = 0.81 d
    rates_inside = stage_rows(np.ones(3), inside, params, params.spec.d)[0]
    checks["deadzone_zero_inside"] = bool(np.all(rates_inside == 0.0))
    direction = np.array([1.0, 0.0, 0.0])
    v_dir = direction @ params.P @ direction
    boundary = direction * np.sqrt(params.spec.d / v_dir)
    rate_on_boundary = stage_rows(np.ones(1), boundary[None], params, params.spec.d)[0][0]
    checks["deadzone_active_on_boundary"] = rate_on_boundary > 0.0

    for gen in (1, 2, 3):
        for directed in (True, False):
            L = graph.laplacian(graph.vicsek_fractal(gen, directed=directed))
            checks[f"rowsum_vicsek{gen}_{'dir' if directed else 'und'}"] = bool(
                np.all(L.sum(axis=1) == 0.0))
    Lc = graph.laplacian(graph.circulant(121, [1, 2]))
    checks["rowsum_circulant"] = bool(np.all(Lc.sum(axis=1) == 0.0))

    # translation invariance: shifting every agent by the same state offset
    # leaves disagreements, gains and controls unchanged
    shifted = dataclasses.replace(cfg, x0=cfg.x0 + np.tile([10.0, -3.0, 2.0], 5))
    tb = record(shifted)[0]

    checks["translation_zeta_1e-8"] = bool(np.max(np.abs(tb.zetas - traj.zetas)) <= 1e-8)
    checks["translation_rho_1e-8"] = bool(np.max(np.abs(tb.gains - traj.gains)) <= 1e-8)
    checks["translation_u_1e-8"] = bool(np.max(np.abs(tb.inputs - traj.inputs)) <= 1e-8)

    # permutation equivariance: relabeling nodes, with the disturbance
    # table's columns moved alongside, relabels the series
    perm = np.array([3, 0, 4, 2, 1])
    times = np.linspace(0.0, cfg.t_end, 21)
    values = np.random.default_rng(3).uniform(-2.0, 2.0, (21, 5))
    tt = record(dataclasses.replace(cfg, disturbance=signals.table_signal(times, values)))[0]
    gp = graph.WeightedDigraph(5, perm[cfg.graph.receivers], perm[cfg.graph.senders], cfg.graph.edge_weights)
    xp = cfg.x0.reshape(5, -1)[np.argsort(perm)].reshape(-1)
    permuted = dataclasses.replace(
        cfg, graph=gp, x0=xp, disturbance=signals.table_signal(times, values[:, np.argsort(perm)]))
    tp = record(permuted)[0]
    checks["permutation_gains_grow"] = bool(tt.gains[-1].max() > 0.0)
    checks["permutation_zeta_1e-8"] = bool(np.max(np.abs(tp.zetas[:, :, perm] - tt.zetas)) <= 1e-8)
    checks["permutation_rho_1e-8"] = bool(np.max(np.abs(tp.gains[:, perm] - tt.gains)) <= 1e-8)
    checks["permutation_u_1e-8"] = bool(np.max(np.abs(tp.inputs[:, :, perm] - tt.inputs)) <= 1e-8)

    # exact synchronization is preserved without disturbance
    g = cfg.graph
    same = np.tile([1.0, -2.0, 0.5], g.n_nodes)
    quiet = dataclasses.replace(cfg, x0=same, disturbance=signals.zero_signal(), t_end=1.0)
    tq = record(quiet)[0]
    checks["zero_disturbance_sync_1e-8"] = bool(np.max(np.abs(tq.zetas)) <= 1e-8)

    # design equation invariants over random stabilizable systems
    rng = np.random.default_rng(12345)
    solved = 0
    invariants_ok = True
    while solved < 50:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        if not linalg.is_stabilizable(A, B):
            continue
        sol = linalg.solve_care(A, B)
        R = A.T @ sol.P + sol.P @ A - (B.T @ sol.P).T @ (B.T @ sol.P) + np.eye(n)
        invariants_ok &= np.linalg.norm(R) <= 1e-8
        invariants_ok &= np.max(np.abs(sol.P - sol.P.T)) <= 1e-10
        invariants_ok &= np.all(np.linalg.eigvalsh(sol.P) > 0)
        invariants_ok &= np.all(np.linalg.eigvals(A - B @ B.T @ sol.P).real < 0)
        solved += 1
    checks["care_50_random_systems"] = bool(invariants_ok)

    sol1 = linalg.solve_care(np.zeros((1, 1)), np.eye(1))
    checks["care_scalar_1e-9"] = bool(abs(sol1.P[0, 0] - 1.0) <= 1e-9)
    A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    B2 = np.array([[0.0], [1.0]])
    exact2 = np.array([[np.sqrt(3.0), 1.0], [1.0, np.sqrt(3.0)]])
    sol2 = linalg.solve_care(A2, B2)
    checks["care_double_integrator_1e-9"] = bool(np.max(np.abs(sol2.P - exact2)) <= 1e-9)

    _report(7, "invariant suite", checks)


def test_criterion_8_step_halving_order():
    norm = cli.normalize_config(cli.load_config("fig3a")[0], "fig3a")
    cfg, _, _ = cli.build_experiment(norm)

    def run(dt, every):
        c = dataclasses.replace(cfg, dt=dt, t_end=0.5, record_every=every)
        return record(c)[0]

    coarse = run(1e-3, 1)
    halved = run(5e-4, 2)
    reference = run(1.25e-4, 8)

    checks = {
        "grids_align": bool(
            np.allclose(coarse.times, halved.times, atol=1e-12)
            and np.allclose(coarse.times, reference.times, atol=1e-12)),
    }
    # the window must be smooth for the order argument to apply: every
    # agent stays on one side of the deadzone the whole time
    active = reference.levels >= cfg.params.spec.d
    checks["deadzone_state_constant"] = bool(np.all(active == active[0]))

    err_coarse = np.max(np.abs(coarse.states - reference.states))
    err_halved = np.max(np.abs(halved.states - reference.states))
    checks["error_ratio_at_least_8"] = bool(err_coarse >= 8.0 * err_halved)
    _report(8, "step-halving order", checks)


@pytest.fixture(scope="module")
def halving_through_crossings():
    """fig3a to 5.3 s at dt = 1e-3, 5e-4 and 2.5e-4 against 1.25e-4, on one 1 ms grid.

    The window holds fig3a's four deadzone crossings (4.75 to 5.27 s).
    Returns the largest state and gain error of each of the three steps.
    """
    norm = cli.normalize_config(cli.load_config("fig3a")[0], "fig3a")
    cfg, _, _ = cli.build_experiment(norm)
    *runs, ref = [
        record(dataclasses.replace(cfg, dt=1e-3 / 2**j, t_end=5.3, record_every=2**j))[0] for j in range(4)
    ]
    assert all(np.allclose(r.times, ref.times, rtol=0.0, atol=1e-12) for r in runs)
    active = ref.levels >= cfg.params.spec.d
    assert np.count_nonzero(active[1:] != active[:-1]) == 4
    return [np.abs(r.states - ref.states).max() for r in runs], [np.abs(r.gains - ref.gains).max() for r in runs]


def test_step_halving_through_deadzone_crossings_cuts_the_state_error_at_fourth_order(halving_through_crossings):
    # the largest state error, which the smooth start of the run sets, falls
    # 16-fold per halving (measured 16.0 and 17.0); near the crossings alone
    # it is about 100 times smaller and stops falling (measured 13.5 and 0.33
    # from 4.7 s on)
    state, _ = halving_through_crossings
    assert state[0] >= 12.0 * state[1] and state[1] >= 12.0 * state[2]


@pytest.mark.xfail(strict=True, reason="O(dt) per deadzone crossing")
def test_step_halving_through_deadzone_crossings_cuts_the_gain_error_eightfold(halving_through_crossings):
    # without event location each crossing costs O(dt) in the gains (measured
    # ratios 11.6 and 0.33); locating the crossings should lift both past 8
    _, gain = halving_through_crossings
    assert gain[0] >= 8.0 * gain[1] and gain[1] >= 8.0 * gain[2]
