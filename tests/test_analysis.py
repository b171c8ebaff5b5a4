import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from cohsync import analysis, graph, protocol, signals, sim


def make_traj(times, zetas, gains=None, params=None, delta=1.0):
    """Stand-in with the attributes summarize reads, built from given disagreements.

    zetas holds agent rows, shape (S, N, n); the stand-in holds them one
    agent per column, (S, n, N), and hands out the samples a slice selects
    through zetas_at, as a Trajectory does. Without params,
    P = I and the spec is formed from delta alone, so delta_bar = delta^2.
    """
    times = np.asarray(times, dtype=float)
    zetas = np.asarray(zetas, dtype=float)
    S, N, n = zetas.shape
    gains = np.zeros((S, N)) if gains is None else np.asarray(gains, dtype=float)
    if params is None:
        params = protocol.ProtocolParams(np.eye(n), np.eye(n), delta=delta)
    return SimpleNamespace(
        times=times, gains=gains, config=SimpleNamespace(params=params),
        n_samples=S, n_agents=N, zetas_at=zetas.swapaxes(1, 2).__getitem__,
    )


@pytest.fixture(scope="module")
def bench_params(benchmark_model, benchmark_P):
    return protocol.ProtocolParams(benchmark_P, benchmark_model.B, d=0.5)


def test_coherence_levels_345():
    s = analysis.summarize(make_traj([0.0, 1.0], [[[0.0, 0.0]], [[3.0, 4.0]]], delta=10.0))
    assert s.tail_max_zeta_norm == 5.0
    assert s.tail_max_Vi == 25.0


def test_settling_time_on_decaying_series():
    times = np.arange(11.0)
    mags = 8.0 * 0.5 ** np.arange(11.0)
    zetas = mags.reshape(11, 1, 1)

    loose = analysis.summarize(make_traj(times, zetas, delta=1.0))
    assert loose.settled
    assert loose.T == 3.0  # first sample with 8*0.5^k <= 1
    tight = analysis.summarize(make_traj(times, zetas, delta=0.3))
    assert tight.settled
    assert tight.T == 5.0
    # larger target never settles later
    assert loose.T <= tight.T
    # the tail window holds the last two samples, 8*0.5^9 and 8*0.5^10
    assert loose.worst_agent == 1
    assert loose.tail_max_zeta_norm == 8.0 * 0.5**9


def test_settling_time_boundary_is_inclusive():
    s = analysis.summarize(make_traj([0.0, 1.0], [[[2.0]], [[1.0]]], delta=1.0))
    assert s.settled
    assert s.T == 1.0


def test_settling_requires_holding_to_the_end():
    # dips below delta but comes back up: not settled
    s = analysis.summarize(make_traj([0.0, 1.0, 2.0], [[[0.1]], [[0.1]], [[5.0]]], delta=1.0))
    assert not s.settled
    assert s.T is None


def test_settling_worst_agent():
    zetas = np.zeros((4, 2, 1))
    zetas[:, 0, 0] = 0.1
    zetas[:, 1, 0] = 0.3
    s = analysis.summarize(make_traj(np.arange(4.0), zetas, delta=1.0))
    assert s.settled
    assert s.T == 0.0
    assert s.worst_agent == 2
    assert s.tail_max_zeta_norm == pytest.approx(0.3)


def test_summarize_validation():
    traj = make_traj([0.0], [[[1.0]]])
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="tail_fraction"):
            analysis.summarize(traj, tail_fraction=bad)
    with pytest.raises(ValueError, match="tol"):
        analysis.summarize(traj, tol=0.0)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="bound"):
            analysis.summarize(traj, bound=bad)


def test_gain_report_constant_gains_converge():
    gains = np.full((10, 3), 2.5)
    s = analysis.summarize(make_traj(np.arange(10.0), np.zeros((10, 3, 1)), gains=gains))
    assert s.gains_converged
    assert s.n_converged == 3
    assert s.max_gain_variation == 0.0
    assert s.max_final_gain == 2.5


def test_gain_report_ramp_does_not_converge():
    times = np.arange(11.0)
    gains = np.tile(times[:, None], (1, 2))
    gains[:, 1] *= 0.5
    traj = make_traj(times, np.zeros((11, 2, 1)), gains=gains)
    s = analysis.summarize(traj, tail_fraction=0.2, tol=1e-3)
    # tail holds the last two samples, one unit apart for agent 1 and half a unit for agent 2
    assert s.max_gain_variation == 1.0
    assert not s.gains_converged
    assert s.n_converged == 0
    assert s.max_final_gain == 10.0
    assert not s.passed
    # a tolerance between the two variations accepts agent 2 only
    assert analysis.summarize(traj, tol=0.75).n_converged == 1


def test_check_delta_level_bound_semantics(bench_params):
    zetas = np.zeros((10, 1, 3))
    zetas[:, 0, 0] = 0.2
    traj = make_traj(np.arange(10.0), zetas, params=bench_params)
    s = analysis.summarize(traj, bound=1.0)
    assert s.bound_ok
    tail_max = s.tail_max_Vi
    assert tail_max == pytest.approx(0.04 * bench_params.P[0, 0], rel=1e-12)
    # the comparison is inclusive at the bound and strict below it
    assert analysis.summarize(traj, bound=tail_max).bound_ok
    assert not analysis.summarize(traj, bound=tail_max * 0.99).bound_ok


def test_level_bound_implies_norm_bound(bench_params):
    # whenever V_i <= delta_bar, |zeta_i| <= delta follows from the spectrum
    rng = np.random.default_rng(23)
    spec = bench_params.spec
    Z = rng.normal(scale=0.8, size=(400, 3))
    V = np.einsum("ij,jk,ik->i", Z, bench_params.P, Z)
    inside = V <= spec.delta_bar
    assert inside.any()
    norms = np.linalg.norm(Z[inside], axis=1)
    assert norms.max() <= spec.delta * (1 + 1e-12)


def test_summarize_agrees_with_trajectory_levels(benchmark_model, bench_params):
    # the one-pass levels equal the trajectory's own derived ones, bit for bit
    g = graph.vicsek_fractal(1, directed=True)
    cfg = sim.SimConfig(
        model=benchmark_model, graph=g, params=bench_params, disturbance=signals.chirp_signal(),
        x0=sim.default_initial_state(g.n_nodes, benchmark_model.n, seed=7),
        t_end=0.5, dt=1e-3, record_every=10,
    )
    traj = sim.simulate(cfg)
    s = analysis.summarize(traj, tail_fraction=0.2)
    ntail = 10  # round(0.2 * 51 samples)
    levels = protocol.feedback(traj.gains, traj.zetas, bench_params, bench_params.spec.d)[2]
    assert s.tail_max_Vi == levels[-ntail:].max()
    assert s.tail_max_zeta_norm == np.linalg.norm(traj.zetas[-ntail:], axis=1).max()
    assert s.max_final_gain == traj.gains[-1].max()


def test_summarize_passing_run(bench_params):
    times = np.arange(20.0)
    zetas = (0.5 ** np.arange(20.0)).reshape(20, 1, 1) * np.ones((20, 1, 3)) * 0.2
    gains = np.full((20, 1), 3.0)
    s = analysis.summarize(make_traj(times, zetas, params=bench_params, gains=gains), label="demo")
    assert s.passed
    assert s.bound == bench_params.spec.delta_bar
    assert s.settled
    assert s.gains_converged
    assert s.label == "demo"
    assert s.n_agents == 1
    assert s.max_final_gain == 3.0
    assert s.min_delta == pytest.approx(protocol.minimal_delta(0.5, bench_params.P))


def test_summarize_failing_run(bench_params):
    zetas = np.full((10, 2, 3), 2.0)  # V far above delta_bar at every sample
    s = analysis.summarize(make_traj(np.arange(10.0), zetas, params=bench_params))
    assert not s.bound_ok
    assert not s.passed
    assert not s.settled
    assert s.T is None


def test_require_settled_joins_the_verdict(bench_params):
    # the bound and the gains pass, but |zeta| = 2 sqrt(3) never settles below delta
    traj = make_traj(np.arange(10.0), np.full((10, 1, 3), 2.0), params=bench_params, gains=np.ones((10, 1)))
    loose = analysis.summarize(traj, bound=1e6)
    strict = analysis.summarize(traj, bound=1e6, require_settled=True)
    assert loose.passed and not loose.settled
    assert not strict.passed
    assert analysis.summary_text(strict).startswith("run run: FAIL")
    assert analysis.summary_csv_row(strict)[analysis.REPORT_CSV_HEADER.index("passed")] == "0"


def test_summary_text(bench_params):
    zetas = np.zeros((10, 2, 3))
    gains = np.full((10, 2), 1.0)
    good = analysis.summarize(make_traj(np.arange(10.0), zetas, params=bench_params, gains=gains), label="good-run")
    text = analysis.summary_text(good)
    assert "run good-run: PASS" in text
    assert "2/2 converged" in text

    bad = analysis.summarize(
        make_traj(np.arange(10.0), np.full((10, 2, 3), 2.0), params=bench_params), label="bad-run",
    )
    bad_text = analysis.summary_text(bad)
    assert "run bad-run: FAIL" in bad_text
    assert "VIOLATED" in bad_text
    assert "settled at level delta: no" in bad_text


def test_report_csv_header_is_pinned():
    # the sweep report and external readers of report.csv rely on this order
    assert analysis.REPORT_CSV_HEADER == [
        "label", "n_agents", "d", "delta", "delta_bar", "min_delta", "bound", "bound_ok",
        "tail_max_Vi", "settled", "T", "tail_max_zeta_norm", "worst_agent", "gains_converged",
        "n_converged", "max_final_gain", "max_gain_variation", "passed",
    ]


def test_summary_csv_row_matches_header(bench_params):
    zetas = np.zeros((10, 2, 3))
    s = analysis.summarize(make_traj(np.arange(10.0), zetas, params=bench_params), label="rowcheck")
    row = analysis.summary_csv_row(s)
    assert len(row) == len(analysis.REPORT_CSV_HEADER)
    cell = dict(zip(analysis.REPORT_CSV_HEADER, row))
    # floats written with repr parse back exactly; flags are 0/1, counts plain integers
    assert float(cell["delta_bar"]) == s.delta_bar
    assert cell["T"] == "0.0"
    assert cell["passed"] == "1"
    assert cell["bound_ok"] == "1"
    assert cell["n_agents"] == "2"
    assert cell["label"] == "rowcheck"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(analysis.REPORT_CSV_HEADER)
    writer.writerow(row)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[0] == analysis.REPORT_CSV_HEADER
    assert parsed[1] == [str(c) for c in row]


def test_summary_csv_row_empty_T_when_unsettled(bench_params):
    s = analysis.summarize(make_traj(np.arange(10.0), np.full((10, 1, 3), 2.0), params=bench_params))
    row = analysis.summary_csv_row(s)
    assert row[analysis.REPORT_CSV_HEADER.index("T")] == ""
    assert row[analysis.REPORT_CSV_HEADER.index("settled")] == "0"
