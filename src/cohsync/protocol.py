"""Adaptive deadzone protocol: coherency thresholds, gain adaptation, control law."""

import sys
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
    gain growth; an RK4 stage (sim.RK4Step) forms the feedback from P and BtP.

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
        for value, name in ((d, "d"), (delta, "delta")):  # printed, such an int's digits could run to thousands
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"{name} must be positive and finite, got an int beyond the float range")
        if delta is None:
            if d is None:
                raise ValueError("the protocol needs d, delta, or both")
            _require_positive(d, "d")
            delta_bar = 2.0 * float(d)
            delta = float(np.sqrt(2.0 * d / lam))
        else:
            _require_positive(delta, "delta")
            delta_bar = float(delta) * float(delta) * lam
            if not 0.5 * delta_bar > 0:  # delta^2 lam underflows to 0, or to the least subnormal float
                raise ValueError(f"delta={delta:.6g} is too small: delta^2 lambda_min(P) leaves no d in (0, delta_bar)")
        if not np.isfinite([delta, delta_bar]).all():  # 2 d, 2 d / lam or delta^2 lam can overflow
            raise ValueError(f"the coherency levels must be finite, got delta={delta:.6g}, delta_bar={delta_bar:.6g}")
        if d is None:
            d = 0.5 * delta_bar
        if not 0 < d < delta_bar:
            raise ValueError(f"deadzone threshold requires 0 < d < delta_bar, got d={d} with delta_bar={delta_bar:.6g}")
        self.P = P
        self.BtP = B.T @ P
        self.m, self.n = self.BtP.shape  # input and state dimensions
        self.spec = CoherenceSpec(delta=float(delta), delta_bar=delta_bar, d=float(d))


def zeta(L, x):
    """Disagreement signals of agent rows x, shape (N, n): row i is sum_j l_ij x_j."""
    return np.asarray(L, dtype=float) @ np.asarray(x, dtype=float)

