import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohsync import cli, signals


def test_chirp_values():
    assert signals.chirp(1, 0.0) == 0.0
    # 0.1 sin(0.1*1*5 + 0.01*25) = 0.1 sin(0.75)
    assert signals.waveform(signals.chirp_signal(), [1])(5.0)[0] == pytest.approx(0.068164, abs=1e-6)
    assert signals.waveform(signals.chirp_signal(), [1])(5.0)[0] == pytest.approx(0.1 * math.sin(0.75), abs=1e-15)


def test_chirp_respects_bound():
    sig = signals.chirp_signal()
    assert sig.bound == 0.1
    t = np.linspace(0.0, 100.0, 100001)
    for i in (1, 5, 121):
        assert np.abs(signals.chirp(i, t)).max() <= 0.1


def test_sawtooth_values():
    assert signals.sawtooth(1, 0.0) == 0.0
    assert signals.waveform(signals.sawtooth_signal(), [1])(25.0)[0] == 0.25
    assert signals.sawtooth(3, 10.0) == pytest.approx(0.3, abs=1e-12)


def test_sawtooth_tie_convention():
    # at the half-integer points the round goes away from zero, so the
    # wave lands on the falling edge
    assert signals.sawtooth(2, 25.0) == -0.5
    assert signals.sawtooth(1, 150.0) == -0.5
    assert signals.sawtooth(2, -25.0) == 0.5


def test_sawtooth_respects_bound():
    sig = signals.sawtooth_signal()
    assert sig.bound == 0.5
    t = np.arange(0.0, 50.0 + 1e-9, 0.01)
    worst = max(np.abs(signals.sawtooth(i, t)).max() for i in range(1, 122))
    assert worst <= 0.5


def test_zero_signal():
    sig = signals.zero_signal()
    assert sig.bound == 0.0
    assert np.all(signals.waveform(sig, np.arange(1, 9))(3.7) == 0.0)


def test_dispatch_matches_direct_functions():
    agents = np.arange(1, 6)
    for t in (0.0, 1.3, 27.5):
        assert np.array_equal(
            signals.waveform(signals.chirp_signal(), agents)(t), signals.chirp(agents, t)
        )
        assert np.array_equal(
            signals.waveform(signals.sawtooth_signal(), agents)(t), signals.sawtooth(agents, t)
        )


def test_agent_labels_are_one_based():
    with pytest.raises(ValueError, match="1-based"):
        signals.waveform(signals.chirp_signal(), [0])(1.0)
    # refused when the waveform is built, before any time is asked for
    for sig in (signals.zero_signal(), signals.sawtooth_signal(), signals.table_signal([0.0, 1.0], [[1.0], [2.0]])):
        with pytest.raises(ValueError, match="1-based"):
            signals.waveform(sig, [1, 0])


def test_table_interpolation():
    sig = signals.table_signal([0.0, 1.0], [[1.0], [2.0]])
    assert signals.waveform(sig, [1])(0.5)[0] == 1.5
    assert signals.waveform(sig, [1])(0.0)[0] == 1.0
    assert signals.waveform(sig, [1])(1.0)[0] == 2.0
    assert sig.bound == 2.0


def test_table_multiple_agents():
    sig = signals.table_signal([0.0, 1.0], [[1.0, 10.0], [2.0, 20.0]])
    assert np.array_equal(signals.waveform(sig, np.array([1, 2]))(0.5), [1.5, 15.0])
    with pytest.raises(ValueError, match="agent columns"):
        signals.waveform(sig, [3])(0.5)


def test_table_refuses_extrapolation():
    sig = signals.table_signal([0.0, 1.0], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="extrapolation is refused"):
        signals.waveform(sig, [1])(1.5)
    with pytest.raises(ValueError, match="extrapolation is refused"):
        signals.waveform(sig, [1])(-0.1)
    # a waveform built once still refuses each query outside the range
    wave = signals.waveform(sig, [1])
    assert wave(0.5)[0] == 1.5
    for t in (1.5, -0.1):
        with pytest.raises(ValueError, match="extrapolation is refused"):
            wave(t)


def test_table_refuses_an_array_holding_one_time_outside():
    wave = signals.waveform(signals.table_signal([0.0, 1.0], [[1.0], [2.0]]), [1])
    T = np.array([[0.0, 0.5, 1.0], [0.25, 1.5, 0.75]])
    with pytest.raises(ValueError, match=r"queried at t=1.5, .*extrapolation is refused"):
        wave(T)
    assert np.array_equal(wave(T[:1]), [[[1.0], [1.5], [2.0]]])


def stage_times(k0, k1, dt):
    """The RK4 stage times of steps k0..k1-1 as the simulator forms them: t_k, t_k + dt/2, t_k + dt."""
    tk = np.arange(k0, k1) * dt
    return np.stack([tk, tk + 0.5 * dt, tk + dt], axis=1)


TABLE_30S = signals.table_signal(np.linspace(0.0, 30.0, 61), np.random.default_rng(5).uniform(-1.0, 1.0, (61, 121)))


@pytest.mark.parametrize(
    "signal",
    [signals.zero_signal(), signals.chirp_signal(), signals.sawtooth_signal(), TABLE_30S],
    ids=["zero", "chirp", "sawtooth", "table"],
)
def test_waveform_of_an_array_of_times_is_the_scalar_calls(signal):
    labels = np.arange(1, 122)
    wave = signals.waveform(signal, labels)
    # the first steps of a 30 s run, and its last ones, whose last stage ends the table
    T = np.concatenate([stage_times(0, 40, 1e-3), stage_times(29960, 30000, 1e-3)])
    W = wave(T)
    assert W.shape == T.shape + labels.shape
    for idx in np.ndindex(T.shape):
        assert np.array_equal(W[idx], wave(float(T[idx])))
    # labels of any shape: w has shape t.shape + labels.shape
    assert np.array_equal(signals.waveform(signal, labels.reshape(11, 11))(T), W.reshape(T.shape + (11, 11)))


def test_table_validation():
    with pytest.raises(ValueError, match="at least two"):
        signals.table_signal([0.0], [[1.0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        signals.table_signal([0.0, 0.0], [[1.0], [2.0]])
    # NaN compares false with everything, so no difference of it is <= 0;
    # inf would hold the last row to the end of time, which is extrapolation
    for bad in ([0.0, np.nan, 2.0], [np.nan, 1.0, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            signals.table_signal(bad, [[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError, match="one row"):
        signals.table_signal([0.0, 1.0], [[1.0]])
    with pytest.raises(ValueError, match="finite"):
        signals.table_signal([0.0, 1.0], [[np.nan], [2.0]])


def test_load_table(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("t,w1,w2\n0,1,10\n1,2,20\n")
    sig = signals.load_table(path)
    assert sig.kind == "custom-table"
    assert sig.bound == 20.0
    assert signals.waveform(sig, [2])(0.5)[0] == 15.0


def test_load_table_header_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,w1\n0,1\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        signals.load_table(bad)
    misnumbered = tmp_path / "mis.csv"
    misnumbered.write_text("t,w2\n0,1\n1,2\n")
    with pytest.raises(ValueError, match="w1"):
        signals.load_table(misnumbered)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,w1\n0,1\n1\n")
    with pytest.raises(ValueError):
        signals.load_table(ragged)


@st.composite
def signals_at_labels(draw):
    """A signal of each kind over a few agents, labels into it and times it covers."""
    kind = draw(st.sampled_from(tuple(cli.SCHEMA["disturbance"].table)))
    agents = draw(st.integers(1, 8))
    if kind == "custom-table":
        times = sorted(set(draw(st.lists(st.floats(-5.0, 40.0), min_size=2, max_size=6))))
        if len(times) < 2:
            times = [times[0], times[0] + 1.0]
        values = draw(hnp.arrays(float, (len(times), agents), elements=st.floats(-3.0, 3.0)))
        sig = signals.table_signal(times, values)
        moments = st.floats(times[0], times[-1])
    else:
        sig = {"zero": signals.zero_signal, "chirp": signals.chirp_signal, "sawtooth": signals.sawtooth_signal}[kind]()
        moments = st.floats(0.0, 50.0)
    labels = draw(hnp.arrays(int, st.integers(1, 12), elements=st.integers(1, agents)))
    return sig, labels, draw(st.lists(moments, min_size=1, max_size=4))


def table_at(sig, column, t):
    # linear interpolation between the tabulated samples around t, one column
    ts, values = sig.table_times.tolist(), sig.table_values[:, column - 1].tolist()
    k = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
    lam = (t - ts[k]) / (ts[k + 1] - ts[k])
    return (1.0 - lam) * values[k] + lam * values[k + 1]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(signals_at_labels())
def test_waveform_is_the_formula_at_each_label(case):
    sig, labels, moments = case
    wave = signals.waveform(sig, labels)
    for t in moments:
        w = wave(t)
        assert w.shape == labels.shape
        if sig.kind == "zero":
            expected = np.zeros(labels.shape)
        elif sig.kind == "chirp":
            expected = signals.chirp(labels, t)
        elif sig.kind == "sawtooth":
            expected = signals.sawtooth(labels, t)
        else:
            expected = np.array([table_at(sig, c, t) for c in labels.tolist()])
        assert np.array_equal(w, expected)
        assert np.array_equal(w, signals.waveform(sig, labels)(t))
