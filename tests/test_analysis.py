import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from cohsync import analysis, protocol


def make_traj(times, zetas, gains=None, P=None):
    """Stand-in with a Trajectory's attributes, built from given disagreements."""
    times = np.asarray(times, dtype=float)
    zetas = np.asarray(zetas, dtype=float)
    S, N, n = zetas.shape
    gains = np.zeros((S, N)) if gains is None else np.asarray(gains, dtype=float)
    P = np.eye(n) if P is None else P
    return SimpleNamespace(
        times=times, states=np.zeros((S, N, n)), gains=gains, config=None,
        n_samples=S, n_agents=N, zetas=zetas, controls=np.zeros((S, N, 1)),
        vi_values=np.einsum("sij,jk,sik->si", zetas, P, zetas),
    )


@pytest.fixture(scope="module")
def bench_params(benchmark_model, benchmark_P):
    spec = protocol.spec_from_deadzone(0.5, benchmark_P)
    return protocol.ProtocolParams(benchmark_P, benchmark_model.B, spec)


def test_coherence_levels_345():
    traj = make_traj([0.0], [[[3.0, 4.0]]])
    levels = analysis.coherence_levels(traj)
    assert levels.shape == (1, 1)
    assert levels[0, 0] == 5.0


def test_settling_time_on_decaying_series():
    times = np.arange(11.0)
    mags = 8.0 * 0.5 ** np.arange(11.0)
    zetas = mags.reshape(11, 1, 1)
    traj = make_traj(times, zetas)

    loose = analysis.settling_time(traj, delta=1.0)
    assert loose.settled
    assert loose.T == 3.0  # first sample with 8*0.5^k <= 1
    tight = analysis.settling_time(traj, delta=0.3)
    assert tight.settled
    assert tight.T == 5.0
    # larger target never settles later
    assert loose.T <= tight.T
    assert loose.sample_dt == 1.0


def test_settling_time_boundary_is_inclusive():
    traj = make_traj([0.0, 1.0], [[[2.0]], [[1.0]]])
    report = analysis.settling_time(traj, delta=1.0)
    assert report.settled
    assert report.T == 1.0


def test_settling_requires_holding_to_the_end():
    # dips below delta but comes back up: not settled
    traj = make_traj([0.0, 1.0, 2.0], [[[0.1]], [[0.1]], [[5.0]]])
    report = analysis.settling_time(traj, delta=1.0)
    assert not report.settled
    assert report.T is None


def test_settling_worst_agent():
    zetas = np.zeros((4, 2, 1))
    zetas[:, 0, 0] = 0.1
    zetas[:, 1, 0] = 0.3
    report = analysis.settling_time(make_traj(np.arange(4.0), zetas), delta=1.0)
    assert report.worst_agent == 2
    assert report.tail_max_zeta_norm == pytest.approx(0.3)


def test_settling_validation():
    traj = make_traj([0.0], [[[1.0]]])
    with pytest.raises(ValueError):
        analysis.settling_time(traj, delta=0.0)
    with pytest.raises(ValueError, match="tail_fraction"):
        analysis.settling_time(traj, delta=1.0, tail_fraction=0.0)


def test_gain_report_constant_gains_converge():
    gains = np.full((10, 3), 2.5)
    traj = make_traj(np.arange(10.0), np.zeros((10, 3, 1)), gains=gains)
    report = analysis.gain_report(traj)
    assert report.all_converged
    assert np.all(report.variation == 0.0)
    assert np.array_equal(report.final, [2.5, 2.5, 2.5])


def test_gain_report_ramp_does_not_converge():
    times = np.arange(11.0)
    gains = np.tile(times[:, None], (1, 2))
    traj = make_traj(times, np.zeros((11, 2, 1)), gains=gains)
    report = analysis.gain_report(traj, tail_fraction=0.2, tol=1e-3)
    # tail holds the last two samples, one unit apart
    assert np.all(report.variation == 1.0)
    assert not report.all_converged
    assert np.all(report.converged == np.array([False, False]))
    with pytest.raises(ValueError):
        analysis.gain_report(traj, tol=0.0)


def test_check_delta_level_bound_semantics(bench_params):
    zetas = np.zeros((10, 1, 3))
    zetas[:, 0, 0] = 0.2
    traj = make_traj(np.arange(10.0), zetas, P=bench_params.P)
    ok, tail_max = analysis.check_delta_level(traj, bound=1.0)
    assert ok
    expected = 0.04 * bench_params.P[0, 0]
    assert tail_max == pytest.approx(expected, rel=1e-12)
    # the comparison is inclusive at the bound and strict below it
    assert analysis.check_delta_level(traj, bound=tail_max)[0]
    assert not analysis.check_delta_level(traj, bound=tail_max * 0.99)[0]
    with pytest.raises(ValueError):
        analysis.check_delta_level(traj, bound=0.0)


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


def test_summarize_passing_run(bench_params):
    times = np.arange(20.0)
    zetas = (0.5 ** np.arange(20.0)).reshape(20, 1, 1) * np.ones((20, 1, 3)) * 0.2
    gains = np.full((20, 1), 3.0)
    traj = make_traj(times, zetas, gains=gains, P=bench_params.P)
    s = analysis.summarize(traj, bench_params, label="demo")
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
    traj = make_traj(np.arange(10.0), zetas, P=bench_params.P)
    s = analysis.summarize(traj, bench_params)
    assert not s.bound_ok
    assert not s.passed
    assert not s.settled
    assert s.T is None


def test_summary_text(bench_params):
    zetas = np.zeros((10, 2, 3))
    gains = np.full((10, 2), 1.0)
    traj = make_traj(np.arange(10.0), zetas, gains=gains, P=bench_params.P)
    good = analysis.summarize(traj, bench_params, label="good-run")
    text = analysis.summary_text(good)
    assert "run good-run: PASS" in text
    assert "2/2 converged" in text

    bad = analysis.summarize(
        make_traj(np.arange(10.0), np.full((10, 2, 3), 2.0), P=bench_params.P),
        bench_params, label="bad-run",
    )
    bad_text = analysis.summary_text(bad)
    assert "run bad-run: FAIL" in bad_text
    assert "VIOLATED" in bad_text
    assert "settled at level delta: no" in bad_text


def test_summary_csv_row_matches_header(bench_params):
    zetas = np.zeros((10, 2, 3))
    traj = make_traj(np.arange(10.0), zetas, P=bench_params.P)
    s = analysis.summarize(traj, bench_params, label="rowcheck")
    row = analysis.summary_csv_row(s)
    assert len(row) == len(analysis.REPORT_CSV_HEADER)
    # floats written with repr parse back exactly
    assert float(row[analysis.REPORT_CSV_HEADER.index("delta_bar")]) == s.delta_bar
    assert row[analysis.REPORT_CSV_HEADER.index("passed")] == "1"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(analysis.REPORT_CSV_HEADER)
    writer.writerow(row)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[0] == analysis.REPORT_CSV_HEADER
    assert parsed[1] == [str(c) for c in row]


def test_summary_csv_row_empty_T_when_unsettled(bench_params):
    traj = make_traj(np.arange(10.0), np.full((10, 1, 3), 2.0), P=bench_params.P)
    s = analysis.summarize(traj, bench_params)
    row = analysis.summary_csv_row(s)
    assert row[analysis.REPORT_CSV_HEADER.index("T")] == ""
