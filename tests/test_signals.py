import math

import numpy as np
import pytest

from cohsync import signals


def test_chirp_values():
    assert signals.chirp(1, 0.0) == 0.0
    # 0.1 sin(0.1*1*5 + 0.01*25) = 0.1 sin(0.75)
    assert signals.evaluate_all(signals.chirp_signal(), [1], 5.0)[0] == pytest.approx(0.068164, abs=1e-6)
    assert signals.evaluate_all(signals.chirp_signal(), [1], 5.0)[0] == pytest.approx(0.1 * math.sin(0.75), abs=1e-15)


def test_chirp_respects_bound():
    sig = signals.chirp_signal()
    assert sig.bound == 0.1
    t = np.linspace(0.0, 100.0, 100001)
    for i in (1, 5, 121):
        assert np.abs(signals.chirp(i, t)).max() <= 0.1


def test_sawtooth_values():
    assert signals.sawtooth(1, 0.0) == 0.0
    assert signals.evaluate_all(signals.sawtooth_signal(), [1], 25.0)[0] == 0.25
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
    assert np.all(signals.evaluate_all(sig, np.arange(1, 9), 3.7) == 0.0)


def test_dispatch_matches_direct_functions():
    agents = np.arange(1, 6)
    for t in (0.0, 1.3, 27.5):
        assert np.array_equal(
            signals.evaluate_all(signals.chirp_signal(), agents, t), signals.chirp(agents, t)
        )
        assert np.array_equal(
            signals.evaluate_all(signals.sawtooth_signal(), agents, t), signals.sawtooth(agents, t)
        )


def test_agent_labels_are_one_based():
    with pytest.raises(ValueError, match="1-based"):
        signals.evaluate_all(signals.chirp_signal(), [0], 1.0)


def test_table_interpolation():
    sig = signals.table_signal([0.0, 1.0], [[1.0], [2.0]])
    assert signals.evaluate_all(sig, [1], 0.5)[0] == 1.5
    assert signals.evaluate_all(sig, [1], 0.0)[0] == 1.0
    assert signals.evaluate_all(sig, [1], 1.0)[0] == 2.0
    assert sig.bound == 2.0


def test_table_multiple_agents():
    sig = signals.table_signal([0.0, 1.0], [[1.0, 10.0], [2.0, 20.0]])
    assert np.array_equal(signals.evaluate_all(sig, np.array([1, 2]), 0.5), [1.5, 15.0])
    with pytest.raises(ValueError, match="agent columns"):
        signals.evaluate_all(sig, [3], 0.5)


def test_table_refuses_extrapolation():
    sig = signals.table_signal([0.0, 1.0], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="extrapolation is refused"):
        signals.evaluate_all(sig, [1], 1.5)
    with pytest.raises(ValueError, match="extrapolation is refused"):
        signals.evaluate_all(sig, [1], -0.1)


def test_table_validation():
    with pytest.raises(ValueError, match="at least two"):
        signals.table_signal([0.0], [[1.0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        signals.table_signal([0.0, 0.0], [[1.0], [2.0]])
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
    assert signals.evaluate_all(sig, [2], 0.5)[0] == 15.0


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


def test_relabel_moves_waveforms_with_the_nodes():
    perm = np.array([2, 0, 1])
    sig = signals.relabel(signals.chirp_signal(), perm)
    for i in range(3):
        for t in (0.5, 4.0, 9.25):
            # new position perm[i] carries what old node i produced
            assert signals.evaluate_all(sig, [int(perm[i]) + 1], t)[0] == signals.chirp(i + 1, t)


def test_relabel_composes():
    p1 = np.array([1, 2, 0])
    p2 = np.array([2, 1, 0])
    once = signals.relabel(signals.relabel(signals.sawtooth_signal(), p1), p2)
    combined = signals.relabel(signals.sawtooth_signal(), p2[p1])
    for label in (1, 2, 3):
        assert signals.evaluate_all(once, [label], 7.0)[0] == signals.evaluate_all(combined, [label], 7.0)[0]


def test_relabel_table_signal():
    sig = signals.table_signal([0.0, 1.0], [[1.0, 10.0], [2.0, 20.0]])
    swapped = signals.relabel(sig, np.array([1, 0]))
    assert signals.evaluate_all(swapped, [2], 0.0)[0] == 1.0
    assert signals.evaluate_all(swapped, [1], 0.0)[0] == 10.0


def test_relabel_validation():
    with pytest.raises(ValueError, match="permutation"):
        signals.relabel(signals.chirp_signal(), np.array([0, 0, 1]))
    sig3 = signals.relabel(signals.chirp_signal(), np.array([2, 0, 1]))
    with pytest.raises(ValueError, match="length"):
        signals.relabel(sig3, np.array([1, 0]))
