"""Adaptive deadzone protocol: coherency thresholds, gain adaptation, control law."""

from dataclasses import dataclass

import numpy as np

from .linalg import min_eigenvalue_sym


@dataclass(frozen=True)
class CoherenceSpec:
    """Target level delta, ellipsoid level delta_bar, deadzone threshold d."""

    delta: float
    delta_bar: float
    d: float


def _require_positive(value, name):
    if not 0 < value < np.inf:  # NaN fails the comparison too
        raise ValueError(f"{name} must be positive and finite, got {value}")


def minimal_delta(d, P):
    """Smallest target level for which the threshold d is admissible."""
    _require_positive(d, "d")
    return float(np.sqrt(d / min_eigenvalue_sym(P)))


class ProtocolParams:
    """Precomputed gain matrix of the protocol, and the coherency spec of its P.

    BtP = B'P steers the control, and its output's squared norm drives
    gain growth. Kt = [P | (B'P)']', held contiguous, stacks the two maps an
    agent reads of its own zeta_i, so that one product Kt @ Z per stage
    gives every agent's level, gain rate and input (see feedback).

    The spec is formed from this P: delta_bar = delta^2 lambda_min(P), so
    zeta' P zeta <= delta_bar implies |zeta| <= delta, and 0 < d < delta_bar.
    Given only d, delta_bar = 2 d, the bound the tail checks use; given
    delta without d, d = delta_bar / 2.
    """

    def __init__(self, P, B, *, d=None, delta=None):
        P = np.asarray(P, dtype=float)
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if B.shape[0] != P.shape[0]:
            raise ValueError("B must have as many rows as P")
        if not np.isfinite(P).all():
            raise ValueError("P must be finite")
        lam = min_eigenvalue_sym(P)
        if not lam > 0:
            raise ValueError(f"P must be positive definite, got lambda_min(P) = {lam}")
        if delta is None:
            if d is None:
                raise ValueError("the protocol needs d, delta, or both")
            _require_positive(d, "d")
            delta_bar = 2.0 * float(d)
            delta = float(np.sqrt(2.0 * d / lam))
        else:
            _require_positive(delta, "delta")
            delta_bar = float(delta) * float(delta) * lam
            if d is None:
                d = 0.5 * delta_bar
            if not 0 < d < delta_bar:
                raise ValueError(
                    f"deadzone threshold requires 0 < d < delta_bar, got d={d} with delta_bar={delta_bar:.6g}"
                )
        self.P = P
        self.BtP = B.T @ P
        self.m, self.n = self.BtP.shape  # input and state dimensions
        self.Kt = np.ascontiguousarray(np.hstack([P, self.BtP.T]).T)
        self.spec = CoherenceSpec(delta=float(delta), delta_bar=delta_bar, d=float(d))


def zeta(L, x):
    """Disagreement signals of agent rows x, shape (N, n): row i is sum_j l_ij x_j."""
    return np.asarray(L, dtype=float) @ np.asarray(x, dtype=float)


def feedback(rho, zetas, params, d, out=None):
    """Gain rates, control inputs and levels of all agents, from one product KZ = [P | (B'P)']' @ Z.

    Z holds one agent's zeta_i per column, shape (n, N). Column i's level
    is V_i = zeta_i' P zeta_i. With y_i = B'P zeta_i, its rate is |y_i|^2
    while V_i >= d (the boundary counts as active) and exactly 0.0 inside
    the deadzone; as a sum of squares a rate is never negative. Column i's
    input is -rho_i y_i. Returns (rates, inputs, levels). The deadzone
    threshold d broadcasts against the levels: a run's spec.d, or one level
    per column where runs of different specs share a closed loop. Leading
    sample axes broadcast: gains (S, N) with disagreements (S, n, N) give
    rates (S, N), inputs (S, m, N) and levels (S, N). The levels' products
    are formed in place in KZ and the rates' row by row, so no temporary is
    the size of Z.
    out, for Z (n, N) and gains (N,), holds what a stage writes and the views it reads, so
    that it forms no view and allocates nothing: (rates (N,), inputs (m, N), levels (N,),
    KZ (n + m, N) C-contiguous, KZ[:n], KZ[n:], tuple(KZ[n:]), a bool array (N,) for V >= d).
    """
    if out is None:
        n, KZ, rho = params.n, params.Kt @ zetas, np.asarray(rho, dtype=float)[..., None, :]
        PZ, Y, rates, U, V, active = KZ[..., :n, :], KZ[..., n:, :], None, None, None, None
        rows = [Y[..., j, :] for j in range(params.m)]
    else:
        rates, U, V, KZ, PZ, Y, rows, active = out
        np.dot(params.Kt, zetas, KZ)
    multiply = np.multiply  # every out positional: a keyword costs each call more to parse
    V = np.add.reduce(multiply(zetas, PZ, PZ), -2, None, V)
    rates = multiply(rows[0], rows[0], rates)
    for y in rows[1:]:  # row by row, as a sum over the axis adds them
        rates += y * y
    multiply(rates, np.greater_equal(V, d, active), rates)  # a bool mask: a float one was slower
    U = multiply(rho, Y, U)
    return rates, np.negative(U, U), V
