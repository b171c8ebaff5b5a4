"""Dense small-matrix numerics: Riccati design, stabilizability, symmetric spectra."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class AssumptionError(ValueError):
    """A standing assumption of the synchronization design does not hold."""


def _as_matrix(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    return M


def _key(M):
    # what the memos below key a matrix by: its shape and bytes, so that equal values share an entry
    return M.shape, M.tobytes()


def _matrices(keys):
    # the matrices of the memos' keys, read-only
    return (np.frombuffer(data).reshape(shape) for shape, data in keys)


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
    return not _pbh_test(_key(A), _key(B))


@lru_cache(maxsize=8)
def _pbh_test(*keys):
    # the eigenvalues at which [A - lambda I, B] loses row rank, from the shapes and
    # bytes of A and B: the verdict depends on the values alone, and solve_care and
    # SimConfig both ask it of one pair while an experiment is built. One eigenvalue
    # that overflowed cannot pass the test, and counts as a defect too
    A, B = _matrices(keys)
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
    return tuple(bad)


def image_containment(E, B):
    """Least-squares X with B X = E, for disturbances entering through the input.

    Raises AssumptionError when the residual shows that the columns of E
    are not realizable through B (the disturbance is not input-additive).

    Memoized on the shapes and bytes of (E, B), as a sweep asks it of one
    model per entry: equal inputs share one X, which is read-only; a
    refusal is raised anew on every call.
    """
    E = _as_matrix(E, "E")
    B = _as_matrix(B, "B")
    if B.shape[0] != E.shape[0]:
        raise ValueError("B and E must have the same row count")
    return _containment(_key(E), _key(B))


@lru_cache(maxsize=8)
def _containment(*keys):
    # image_containment on the shapes and bytes of E and B; lru_cache keeps no call that raised
    E, B = _matrices(keys)
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
    X.setflags(write=False)  # shared by every caller of these inputs
    return X


def min_eigenvalue_sym(M):
    """Smallest eigenvalue of a symmetric matrix (asymmetry above 1e-10 is rejected).

    Memoized on the shape and bytes of M, as a sweep asks it of one P per
    entry; a refusal is raised anew on every call.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    return _min_eigenvalue(_key(M))


@lru_cache(maxsize=8)
def _min_eigenvalue(*keys):
    # min_eigenvalue_sym on the shape and bytes of M; lru_cache keeps no call that raised
    (M,) = _matrices(keys)
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
    """Stabilizing solution P of A'P + PA - PBB'P + I = 0 plus its residual norm."""

    P: np.ndarray
    residual_norm: float


def care_residual(P, A, B):
    """Residual A'P + PA - P B B' P + I.

    The quadratic term is evaluated as K'K with K = B'P: the products then
    stay at the scale of the result, which keeps the rounding floor low
    enough to certify large-norm solutions.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    K = B.T @ P
    return A.T @ P + P @ A - K.T @ K + np.eye(A.shape[0])


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


def solve_care(A, B):
    """Stabilizing solution of the continuous algebraic Riccati equation.

    Solves A'P + PA - P B B' P + I = 0 for symmetric positive definite P
    with A - B B' P Hurwitz.

    Method: the n eigenvectors of the Hamiltonian [[A, -BB'], [-I, -A']]
    whose eigenvalues have negative real part span [I; P] (Laub 1979, here
    in eigenvector form); their blocks U1, U2 give the starting P = U2 U1^-1.
    Newton-Kleinman iterations then polish it, each solving a Lyapunov
    equation for the correction; from a stabilizing iterate Newton
    converges quadratically.

    Memoized on the bytes of (A, B), as a sweep asks it of one model per
    entry: equal inputs share one solution, whose P is read-only; a
    failure is raised anew on every call.

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
    keys = _key(A), _key(B)
    bad = _pbh_test(*keys)
    if bad:
        desc = ", ".join(f"{lam:.6g}" for lam in bad)
        raise AssumptionError(
            f"(A, B) is not stabilizable: rank test fails at eigenvalue(s) {desc}"
        )
    return _care(*keys)


@lru_cache(maxsize=8)
def _care(*keys):
    # solve_care on the shapes and bytes of A and B; lru_cache keeps no call that raised
    A, B = _matrices(keys)
    n = A.shape[0]
    try:
        with np.errstate(all="ignore"):  # an overflow, or NaN, fails the certificate below
            BBt = B @ B.T
            w, V = np.linalg.eig(np.block([[A, -BBt], [-np.eye(n), -A.T]]))
            U = V[:, w.real < 0]
            P = np.real(np.linalg.solve(U[:n].T, U[n:].T).T)
            P = 0.5 * (P + P.T)
            for _ in range(50):
                R = care_residual(P, A, B)
                # the relative target governs well-scaled problems; the absolute
                # cap keeps large-norm solutions iterating until the returned
                # invariant (residual <= 1e-8) actually holds
                if np.linalg.norm(R) <= min(1e-8, 1e-13 * max(1.0, np.linalg.norm(P))):
                    break
                Ac = A - BBt @ P
                delta = lyapunov(Ac, -R)
                P = P + delta
                P = 0.5 * (P + P.T)

            rnorm = float(np.linalg.norm(care_residual(P, A, B)))
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
    P.setflags(write=False)  # shared by every caller of these inputs
    return RiccatiSolution(P=P, residual_norm=rnorm)
