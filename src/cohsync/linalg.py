"""Dense small-matrix numerics: Riccati design, stabilizability, symmetric spectra."""

from dataclasses import dataclass

import numpy as np


class AssumptionError(ValueError):
    """A standing assumption of the synchronization design does not hold."""


def _as_matrix(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    return M


PBH_TOL = 1e-8  # relative rank tolerance of the PBH test (see is_stabilizable)


def is_stabilizable(A, B):
    """Eigenvector (PBH) test for stabilizability of the pair (A, B).

    For every eigenvalue of A with nonnegative real part, [A - lambda I, B]
    must have full row rank. Singular values at or below PBH_TOL times the
    larger of the largest one and the 2-norm of [A, B] count as zero; the
    norm keeps a one-state pair, whose [A - lambda I, B] has a single
    singular value, from passing for any nonzero B. A small guard band
    (-1e-9) on the real part absorbs eigensolver round-off on marginally
    stable modes.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n or B.shape[0] != n:
        raise ValueError("A must be square and B must have matching row count")
    return not _pbh_defects(A, B)


def _pbh_defects(A, B):
    # eigenvalues at which [A - lambda I, B] loses row rank; one that overflowed
    # cannot pass the test, and counts as a defect too
    n = A.shape[0]
    with np.errstate(all="ignore"):
        scale = np.linalg.norm(np.hstack([A, B]), 2)
        bad = []
        for lam in np.linalg.eigvals(A):
            if lam.real < -1e-9:
                continue
            if not np.isfinite(lam):
                bad.append(complex(lam))
                continue
            M = np.hstack([A - lam * np.eye(n), B.astype(complex)])
            s = np.linalg.svd(M, compute_uv=False)
            if s[-1] <= PBH_TOL * max(s[0], scale):
                bad.append(complex(lam))
    return bad


def image_containment(E, B):
    """Least-squares X with B X = E, for disturbances entering through the input.

    Raises AssumptionError when the residual shows that the columns of E
    are not realizable through B (the disturbance is not input-additive).
    """
    E = _as_matrix(E, "E")
    B = _as_matrix(B, "B")
    if B.shape[0] != E.shape[0]:
        raise ValueError("B and E must have the same row count")
    # decided in units of a power of two near the largest entry: exact, and no norm overflows
    e = int(np.frexp(max(np.abs(B).max(initial=0.0), np.abs(E).max(initial=0.0)))[1])
    with np.errstate(all="ignore"):  # a solution beyond the float range fails the test below
        Bs, Es = np.ldexp(B, -e), np.ldexp(E, -e)
        X = np.atleast_2d(np.linalg.lstsq(Bs, Es, rcond=None)[0])
        resid = np.linalg.norm(Bs @ X - Es)
        if not resid <= 1e-9 * max(np.ldexp(1.0, -e), np.linalg.norm(Es)):
            raise AssumptionError(
                "disturbance is not input-additive: im E is not contained in im B "
                f"(least-squares residual {np.ldexp(resid, e):.3e})"
            )
    return X


def min_eigenvalue_sym(M):
    """Smallest eigenvalue of a symmetric matrix (asymmetry above 1e-10 is rejected)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if np.abs(M - M.T).max() > 1e-10:
        raise ValueError("matrix must be symmetric")
    return float(np.linalg.eigvalsh(M)[0])


class AgentModel:
    """Linear agent dx/dt = A x + B u + E w.

    The disturbance is one scalar channel per agent, and it must be
    realizable through the input channel: construction refuses an E with
    more than one column, and one for which E = B X has no solution X.

    Parameters
    ----------
    A : (n, n) array
    B : (n, m) array
    E : (n, 1) array
    """

    def __init__(self, A, B, E):
        self.A = _as_matrix(A, "A")
        self.B = _as_matrix(B, "B")
        self.E = _as_matrix(E, "E")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.E.shape[0] != n:
            raise ValueError("B and E must have as many rows as A")
        if self.E.shape[1] != 1:
            raise ValueError("E must have one column: each agent has a single disturbance channel")
        image_containment(self.E, self.B)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def __repr__(self):
        return f"AgentModel(n={self.n}, m={self.m})"


def triple_integrator():
    """The benchmark agent: a chain of three integrators driven through the last state.

    Scalar input and a disturbance entering through the same channel
    (E = B), so the disturbance is trivially input-additive.
    """
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0], [0.0], [1.0]])
    E = np.array([[0.0], [0.0], [1.0]])
    return AgentModel(A, B, E)


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing solution P of A'P + PA - PBB'P + Q = 0 plus its residual norm."""

    P: np.ndarray
    residual_norm: float


def care_residual(P, A, B, Q=None):
    """Residual A'P + PA - P B B' P + Q (Q defaults to the identity).

    The quadratic term is evaluated as K'K with K = B'P: the products then
    stay at the scale of the result, which keeps the rounding floor low
    enough to certify large-norm solutions.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if Q is None:
        Q = np.eye(A.shape[0])
    K = B.T @ P
    return A.T @ P + P @ A - K.T @ K + Q


def lyapunov(Ac, rhs):
    """Solve Ac' X + X Ac = rhs for symmetric X by Kronecker vectorization.

    Dense and cubic in n^2; meant for the small state dimensions this
    toolkit works at.
    """
    Ac = _as_matrix(Ac, "Ac")
    n = Ac.shape[0]
    M = np.kron(np.eye(n), Ac.T) + np.kron(Ac.T, np.eye(n))
    X = np.linalg.solve(M, np.asarray(rhs, dtype=float).reshape(-1)).reshape(n, n)
    return 0.5 * (X + X.T)


def solve_care(A, B, Q=None):
    """Stabilizing solution of the continuous algebraic Riccati equation.

    Solves A'P + PA - P B B' P + Q = 0 for symmetric positive definite P
    with A - B B' P Hurwitz. Q defaults to the identity; a different
    symmetric positive definite Q supports coordinate-change experiments.

    Method: the n eigenvectors of the Hamiltonian [[A, -BB'], [-Q, -A']]
    whose eigenvalues have negative real part span [I; P] (Laub 1979, here
    in eigenvector form); their blocks U1, U2 give the starting P = U2 U1^-1.
    Newton-Kleinman iterations then polish it, each solving a Lyapunov
    equation for the correction; from a stabilizing iterate Newton
    converges quadratically.

    Raises
    ------
    AssumptionError
        If (A, B) fails the stabilizability test (no stabilizing solution
        exists), with the offending eigenvalues in the message.
    RuntimeError
        If the iteration does not reach the residual target; the last
        residual norm is carried in the ``residual`` attribute (inf when
        the Hamiltonian overflows or a step is singular).
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n or B.shape[0] != n:
        raise ValueError("A must be square and B must have matching row count")
    bad = _pbh_defects(A, B)
    if bad:
        desc = ", ".join(f"{lam:.6g}" for lam in bad)
        raise AssumptionError(
            f"(A, B) is not stabilizable: rank test fails at eigenvalue(s) {desc}"
        )
    if Q is None:
        Qm = np.eye(n)
    else:
        Qm = _as_matrix(Q, "Q")
        if np.abs(Qm - Qm.T).max() > 1e-10:
            raise ValueError("Q must be symmetric")
        Qm = 0.5 * (Qm + Qm.T)

    try:
        with np.errstate(all="ignore"):  # an overflow, or NaN, fails the certificate below
            BBt = B @ B.T
            w, V = np.linalg.eig(np.block([[A, -BBt], [-Qm, -A.T]]))
            U = V[:, w.real < 0]
            P = np.real(np.linalg.solve(U[:n].T, U[n:].T).T)
            P = 0.5 * (P + P.T)
            for _ in range(50):
                R = care_residual(P, A, B, Qm)
                # the relative target governs well-scaled problems; the absolute
                # cap keeps large-norm solutions iterating until the returned
                # invariant (residual <= 1e-8) actually holds
                if np.linalg.norm(R) <= min(1e-8, 1e-13 * max(1.0, np.linalg.norm(P))):
                    break
                Ac = A - BBt @ P
                delta = lyapunov(Ac, -R)
                P = P + delta
                P = 0.5 * (P + P.T)

            rnorm = float(np.linalg.norm(care_residual(P, A, B, Qm)))
            sym_err = float(np.abs(P - P.T).max())
            min_eig = float(np.linalg.eigvalsh(0.5 * (P + P.T))[0])
            cl_max = float(np.linalg.eigvals(A - BBt @ P).real.max())
    except np.linalg.LinAlgError:  # eig refuses a Hamiltonian that overflowed, solve a singular step
        rnorm, sym_err, min_eig, cl_max = np.inf, np.nan, np.nan, np.nan
    if not (rnorm <= 1e-8 and sym_err <= 1e-10 and min_eig > 0 and cl_max < 0):
        exc = RuntimeError(
            "Riccati iteration did not converge to a stabilizing solution: "
            f"residual {rnorm:.3e}, symmetry error {sym_err:.3e}, "
            f"smallest eigenvalue {min_eig:.3e}, closed-loop real part {cl_max:.3e}"
        )
        exc.residual = rnorm
        raise exc
    return RiccatiSolution(P=P, residual_norm=rnorm)
