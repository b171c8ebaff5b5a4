"""The three disturbance families and their amplitude bounds.

Each agent i receives its own scalar forcing w_i(t). The built-in families
are a swept-sine whose frequency grows with time and with the agent index,
and a slow agent-dependent sawtooth. Arbitrary forcing comes in as a CSV
table, linearly interpolated and never extrapolated.
"""

import numpy as np

from cohsync import signals


def main():
    chirp = signals.chirp_signal()
    saw = signals.sawtooth_signal()

    print("swept-sine, agent 1:")
    for t in (0.0, 2.5, 5.0, 10.0):
        print(f"  w(t={t:5.2f}) = {signals.evaluate_all(chirp, [1], t)[0]:+.6f}")
    print(f"  amplitude bound: {chirp.bound}")

    print("\nsawtooth, agents 1..3 at t=25:")
    for i in (1, 2, 3):
        print(f"  w_{i}(25) = {signals.evaluate_all(saw, [i], 25.0)[0]:+.4f}")
    print(f"  amplitude bound: {saw.bound}")

    # empirical maxima stay inside the declared bounds
    ts = np.linspace(0.0, 100.0, 20001)
    worst = max(np.abs(signals.chirp(i, ts)).max() for i in (1, 5, 121))
    print(f"\nmax |chirp| over agents {{1,5,121}}, t in [0,100]: {worst:.6f}")

    # tables: two breakpoints per agent column, queried midway
    table = signals.table_signal(
        np.array([0.0, 1.0, 2.0]),
        np.array([[0.0, 1.0], [0.5, 1.0], [0.0, 1.0]]),
    )
    print(f"\ntable w_1(0.5) = {signals.evaluate_all(table, [1], 0.5)[0]}  (linear between 0.0 and 0.5)")
    print(f"table w_2(1.7) = {signals.evaluate_all(table, [2], 1.7)[0]}  (constant column)")
    try:
        signals.evaluate_all(table, [1], 2.5)
    except ValueError as exc:
        print(f"query past the table: {exc}")


if __name__ == "__main__":
    main()
