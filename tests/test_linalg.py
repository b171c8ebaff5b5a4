import numpy as np
import pytest

from cohsync import linalg

# smallest eigenvalue of the benchmark design matrix, frozen from the
# bisection oracle below before the solver existed
LAMBDA_MIN_REF = 0.6346522708156397


def _min_eig_bisect(M):
    # independent oracle: sign change of det(M - lam I) on [lo, hi],
    # no eigensolver involved
    n = M.shape[0]

    def f(lam):
        return np.linalg.det(M - lam * np.eye(n))

    lo, hi = 0.0, 1.0
    while f(lo) * f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_min_eigenvalue_examples():
    assert linalg.min_eigenvalue_sym(np.eye(3)) == 1.0
    assert linalg.min_eigenvalue_sym(np.diag([5.0, 2.0, 7.0])) == 2.0


def test_min_eigenvalue_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        linalg.min_eigenvalue_sym(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.min_eigenvalue_sym(np.ones((2, 3)))


def test_min_eigenvalue_of_benchmark_matrix(exact_P):
    lam = linalg.min_eigenvalue_sym(exact_P)
    assert lam == pytest.approx(LAMBDA_MIN_REF, abs=1e-12)
    # the frozen constant itself agrees with the bisection construction
    assert _min_eig_bisect(exact_P) == pytest.approx(LAMBDA_MIN_REF, abs=1e-10)


def test_min_eigenvalue_rayleigh_bound():
    rng = np.random.default_rng(11)
    for _ in range(5):
        S = rng.normal(size=(4, 4))
        M = S + S.T
        lam = linalg.min_eigenvalue_sym(M)
        for _ in range(100):
            v = rng.normal(size=4)
            assert lam <= (v @ M @ v) / (v @ v) + 1e-12


def test_stabilizable_examples():
    assert linalg.is_stabilizable([[0.0]], [[1.0]])
    assert not linalg.is_stabilizable([[1.0]], [[0.0]])
    # one state: [A - lambda I, B] has a single singular value, scaled by |[A, B]|
    assert not linalg.is_stabilizable([[1.0]], [[1e-300]])
    # stable modes need no control authority
    assert linalg.is_stabilizable([[-1.0]], [[0.0]])
    assert linalg.is_stabilizable(np.diag([-1.0, -2.0]), np.zeros((2, 1)))
    # unstable mode outside the reachable subspace
    assert not linalg.is_stabilizable(np.diag([1.0, -2.0]), np.array([[0.0], [1.0]]))
    assert linalg.is_stabilizable(np.diag([1.0, -2.0]), np.array([[1.0], [0.0]]))


def test_stabilizable_benchmark(benchmark_model):
    assert linalg.is_stabilizable(benchmark_model.A, benchmark_model.B)


def test_image_containment_accepts_and_refuses():
    B = np.array([[0.0], [0.0], [1.0]])
    X = linalg.image_containment(B, B)
    assert np.allclose(X, [[1.0]], atol=1e-12)

    Z = linalg.image_containment(np.zeros((3, 2)), B)
    assert Z.shape == (1, 2)
    assert np.allclose(Z, 0.0, atol=1e-12)

    with pytest.raises(linalg.AssumptionError, match="not input-additive"):
        linalg.image_containment(np.array([[1.0], [0.0], [0.0]]), B)
    # at 1e300 the squares that a Frobenius norm sums overflow to inf
    B = np.array([[1.0e300], [0.0]])
    assert np.allclose(linalg.image_containment(3.0 * B, B), [[3.0]])
    with pytest.raises(linalg.AssumptionError, match="not input-additive"):
        linalg.image_containment(np.array([[0.0], [1.0e300]]), B)
    with pytest.raises(linalg.AssumptionError, match="not input-additive"):
        linalg.image_containment(np.array([[1.0e154]]), np.zeros((1, 1)))


def test_agent_model_basic(benchmark_model):
    m = benchmark_model
    assert (m.n, m.m) == (3, 1)
    assert np.array_equal(m.B, m.E)


def test_agent_model_rejects_off_channel_disturbance():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    E = np.array([[1.0], [0.0]])
    with pytest.raises(linalg.AssumptionError):
        linalg.AgentModel(A, B, E)


def test_agent_model_refuses_multi_channel_disturbance():
    # E = B X holds, but each agent carries a single disturbance channel
    B = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="one column"):
        linalg.AgentModel([[0.0, 1.0], [0.0, 0.0]], B, np.hstack([B, 2.0 * B]))


def test_lyapunov_identity():
    rng = np.random.default_rng(5)
    Ac = rng.normal(size=(4, 4)) - 5.0 * np.eye(4)
    S = rng.normal(size=(4, 4))
    rhs = S + S.T
    X = linalg.lyapunov(Ac, rhs)
    assert np.allclose(Ac.T @ X + X @ Ac, rhs, atol=1e-10)
    assert np.array_equal(X, X.T)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (3.0, 1.0), (-2.0, 0.5), (0.0, 1e-4)])
def test_care_scalar_analytic(a, b):
    # 2aP - b^2 P^2 + 1 = 0 has the stabilizing root (a + sqrt(a^2 + b^2)) / b^2
    expected = (a + np.sqrt(a * a + b * b)) / (b * b)
    sol = linalg.solve_care([[a]], [[b]])
    assert abs(sol.P[0, 0] - expected) <= 1e-9 * expected


def test_care_double_integrator_analytic():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    expected = np.array([[np.sqrt(3.0), 1.0], [1.0, np.sqrt(3.0)]])
    sol = linalg.solve_care(A, B)
    assert np.abs(sol.P - expected).max() <= 1e-9


def test_care_benchmark_closed_form(benchmark_P, exact_P):
    assert np.abs(benchmark_P - exact_P).max() <= 1e-9


def test_care_benchmark_gain_row(benchmark_model, benchmark_P):
    c = 1.0 + np.sqrt(2.0)
    row = (benchmark_model.B.T @ benchmark_P)[0]
    assert np.abs(row - np.array([1.0, c, c])).max() <= 1e-9
    G = benchmark_P @ benchmark_model.B @ benchmark_model.B.T @ benchmark_P
    assert G[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_care_residual_and_certificates(benchmark_model, benchmark_P):
    A, B = benchmark_model.A, benchmark_model.B
    R = linalg.care_residual(benchmark_P, A, B)
    assert np.linalg.norm(R) <= 1e-8
    assert np.abs(benchmark_P - benchmark_P.T).max() <= 1e-10
    assert np.linalg.eigvalsh(benchmark_P)[0] > 0
    assert np.linalg.eigvals(A - B @ B.T @ benchmark_P).real.max() < 0


def test_care_solution_reports_its_residual(benchmark_model):
    sol = linalg.solve_care(benchmark_model.A, benchmark_model.B)
    R = linalg.care_residual(sol.P, benchmark_model.A, benchmark_model.B)
    assert sol.residual_norm == pytest.approx(np.linalg.norm(R), abs=1e-15)
    assert sol.residual_norm <= 1e-8


def test_care_random_systems_certificates():
    # property test over generic stabilizable pairs, after the harmonic
    # oscillator, whose open-loop eigenvalues lie on the imaginary axis
    pairs = [(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]))]
    rng = np.random.default_rng(12345)
    while len(pairs) < 51:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        if linalg.is_stabilizable(A, B):
            pairs.append((A, B))
    for A, B in pairs:
        sol = linalg.solve_care(A, B)
        P = sol.P
        assert np.linalg.norm(linalg.care_residual(P, A, B)) <= 1e-8
        assert np.abs(P - P.T).max() <= 1e-10
        assert np.linalg.eigvalsh(P)[0] > 0
        assert np.linalg.eigvals(A - B @ B.T @ P).real.max() < 0


def test_care_rejects_unstabilizable_pair():
    with pytest.raises(linalg.AssumptionError, match="not stabilizable"):
        linalg.solve_care([[1.0]], [[0.0]])
    with pytest.raises(linalg.AssumptionError, match="1"):
        linalg.solve_care(np.diag([1.0, -2.0]), np.array([[0.0], [1.0]]))


def test_care_whose_hamiltonian_overflows_is_uncertified():
    # B B' = 1e600 overflows: the documented RuntimeError, not a LinAlgError or a warning
    with pytest.raises(RuntimeError, match="did not converge") as caught:
        linalg.solve_care([[0.0]], [[1.0e300]])
    assert caught.value.residual == np.inf


def test_care_is_memoized_on_its_inputs_and_shared_read_only(benchmark_model):
    linalg._care.cache_clear()
    A, B = benchmark_model.A, benchmark_model.B
    sol = linalg.solve_care(A, B)
    assert linalg.solve_care(A.copy(), B.copy()) is sol  # equal values, not the same arrays
    assert linalg.solve_care(A, 2 * B) is not sol
    with pytest.raises(ValueError, match="read-only"):
        sol.P[0, 0] = 0.0
    # a failure is raised anew on every call, never memoized
    for _ in range(2):
        with pytest.raises(RuntimeError, match="did not converge"):
            linalg.solve_care([[0.0]], [[1.0e300]])
    info = linalg._care.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 1, 2)


def test_care_runtime(benchmark_model):
    import time

    linalg._care.cache_clear()  # time a solve, not a memo hit
    t0 = time.perf_counter()
    linalg.solve_care(benchmark_model.A, benchmark_model.B)
    assert time.perf_counter() - t0 < 1.0
