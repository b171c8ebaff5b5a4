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


def make_spec(delta, P, d=None):
    """Coherency spec from the target level delta and the design matrix P.

    delta_bar = delta^2 * lambda_min(P); whenever zeta' P zeta <= delta_bar,
    also |zeta| <= delta. A supplied threshold must satisfy
    0 < d < delta_bar; when omitted it defaults to the midpoint delta_bar/2.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    lam = min_eigenvalue_sym(P)
    delta_bar = float(delta) * float(delta) * lam
    if d is None:
        d = 0.5 * delta_bar
    if not 0 < d < delta_bar:
        raise ValueError(
            f"deadzone threshold requires 0 < d < delta_bar, got d={d} with delta_bar={delta_bar:.6g}"
        )
    return CoherenceSpec(delta=float(delta), delta_bar=delta_bar, d=float(d))


def spec_from_deadzone(d, P):
    """Coherency spec for experiments that fix only the threshold d.

    Picks the target level so the ellipsoid level sits at twice the
    threshold (delta_bar = 2 d), which is the bound the tail checks use;
    any delta at or above minimal_delta(d, P) would be admissible.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    lam = min_eigenvalue_sym(P)
    return CoherenceSpec(delta=float(np.sqrt(2.0 * d / lam)), delta_bar=2.0 * float(d), d=float(d))


def minimal_delta(d, P):
    """Smallest target level for which the threshold d is admissible."""
    if d <= 0:
        raise ValueError("d must be positive")
    return float(np.sqrt(d / min_eigenvalue_sym(P)))


class ProtocolParams:
    """Precomputed gain matrices of the protocol.

    BtP = B'P steers the control, PBBtP = P B B' P drives gain growth;
    both are cached so the inner simulation loop touches no matrix
    products beyond one matvec per agent.
    """

    def __init__(self, P, B, spec):
        P = np.asarray(P, dtype=float)
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if B.shape[0] != P.shape[0]:
            raise ValueError("B must have as many rows as P")
        if not isinstance(spec, CoherenceSpec):
            raise ValueError("spec must be a CoherenceSpec")
        self.P = P
        self.BtP = B.T @ P
        self.PBBtP = self.BtP.T @ self.BtP
        self.spec = spec

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def m(self):
        return self.BtP.shape[0]


def zeta(L, x):
    """Disagreement signals: block i is sum_j l_ij x_j.

    Accepts a stacked vector of length N*n or an (N, n) array of agent
    rows; the output matches the input layout.
    """
    L = np.asarray(L, dtype=float)
    x = np.asarray(x, dtype=float)
    N = L.shape[0]
    if x.ndim == 1:
        if x.size % N != 0:
            raise ValueError(f"stacked state length {x.size} is not a multiple of the node count {N}")
        return (L @ x.reshape(N, -1)).reshape(-1)
    if x.shape[0] != N:
        raise ValueError("state rows must match the node count")
    return L @ x


def gain_rates(zetas, params):
    """Adaptation rates for all agents at once.

    Row i yields zeta_i' PBB'P zeta_i while zeta_i' P zeta_i >= d (the
    boundary counts as active) and exactly 0.0 inside the deadzone.
    """
    Z = np.atleast_2d(np.asarray(zetas, dtype=float))
    V = np.einsum("ij,ij->i", Z, Z @ params.P)
    growth = np.einsum("ij,ij->i", Z, Z @ params.PBBtP)
    return np.where(V >= params.spec.d, growth, 0.0)


def control_all(rho, zetas, params):
    """Control inputs for all agents: row i is -rho_i B'P zeta_i, shape (N, m).

    Leading sample axes broadcast: gains (S, N) with disagreements
    (S, N, n) give inputs of shape (S, N, m).
    """
    Z = np.atleast_2d(np.asarray(zetas, dtype=float))
    rho = np.asarray(rho, dtype=float)
    return -rho[..., None] * (Z @ params.BtP.T)
