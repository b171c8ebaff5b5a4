import numpy as np
import pytest

from cohsync import graph, linalg, protocol

LAMBDA_MIN_REF = 0.6346522708156397


@pytest.fixture(scope="module")
def bench_params(benchmark_model, benchmark_P):
    spec = protocol.spec_from_deadzone(0.5, benchmark_P)
    return protocol.ProtocolParams(benchmark_P, benchmark_model.B, spec)


def test_make_spec_identity_example():
    spec = protocol.make_spec(2.0, np.eye(3))
    assert spec.delta == 2.0
    assert spec.delta_bar == 4.0
    assert spec.d == 2.0  # defaults to the midpoint


def test_make_spec_accepts_valid_threshold(benchmark_P):
    spec = protocol.make_spec(1.0, benchmark_P, d=0.5)
    assert spec.d == 0.5
    assert spec.delta_bar == pytest.approx(LAMBDA_MIN_REF, abs=1e-9)


def test_make_spec_rejections(benchmark_P):
    with pytest.raises(ValueError, match="delta must be positive"):
        protocol.make_spec(0.0, benchmark_P)
    with pytest.raises(ValueError, match="0 < d < delta_bar"):
        protocol.make_spec(1.0, benchmark_P, d=0.7)
    with pytest.raises(ValueError, match="0 < d < delta_bar"):
        protocol.make_spec(1.0, benchmark_P, d=0.0)
    with pytest.raises(ValueError, match="0 < d < delta_bar"):
        protocol.make_spec(1.0, benchmark_P, d=-0.1)


def test_spec_from_deadzone_level_convention(benchmark_P):
    spec = protocol.spec_from_deadzone(0.5, benchmark_P)
    assert spec.delta_bar == 1.0  # exactly 2 d
    assert spec.d == 0.5
    # consistency with the forward construction
    again = protocol.make_spec(spec.delta, benchmark_P, d=0.5)
    assert again.delta_bar == pytest.approx(spec.delta_bar, rel=1e-12)
    with pytest.raises(ValueError):
        protocol.spec_from_deadzone(0.0, benchmark_P)


def test_minimal_delta(benchmark_P):
    got = protocol.minimal_delta(0.5, benchmark_P)
    assert got == pytest.approx(np.sqrt(0.5 / LAMBDA_MIN_REF), abs=1e-12)
    assert got == pytest.approx(0.8876, abs=1e-4)
    # the smallest admissible level: anything below it rejects d
    with pytest.raises(ValueError):
        protocol.make_spec(got * 0.999, benchmark_P, d=0.5)
    assert protocol.make_spec(got * 1.001, benchmark_P, d=0.5).d == 0.5


def test_params_cache_matches_definitions(benchmark_model, benchmark_P, bench_params):
    assert np.array_equal(bench_params.BtP, benchmark_model.B.T @ benchmark_P)
    assert np.array_equal(bench_params.PBBtP, bench_params.BtP.T @ bench_params.BtP)
    assert (bench_params.n, bench_params.m) == (3, 1)
    # the cached growth matrix is symmetric positive semidefinite
    assert np.array_equal(bench_params.PBBtP, bench_params.PBBtP.T)
    assert np.linalg.eigvalsh(bench_params.PBBtP)[0] >= -1e-12


def test_params_validation(benchmark_P):
    spec = protocol.spec_from_deadzone(0.5, benchmark_P)
    with pytest.raises(ValueError):
        protocol.ProtocolParams(np.ones((2, 3)), np.ones((2, 1)), spec)
    with pytest.raises(ValueError):
        protocol.ProtocolParams(benchmark_P, np.ones((2, 1)), spec)
    with pytest.raises(ValueError):
        protocol.ProtocolParams(benchmark_P, np.ones((3, 1)), spec="nope")


def test_zeta_two_node_chain():
    L = graph.laplacian(graph.from_edge_list(2, [(1, 2, 1.0)]))
    z = protocol.zeta(L, np.array([0.0, 1.0]))
    assert np.array_equal(z, np.array([0.0, 1.0]))


def test_zeta_stacked_and_matrix_layouts_agree():
    rng = np.random.default_rng(2)
    g = graph.vicsek_fractal(1, directed=True)
    L = graph.laplacian(g)
    X = rng.normal(size=(5, 3))
    Z = protocol.zeta(L, X)
    z = protocol.zeta(L, X.reshape(-1))
    assert np.array_equal(Z.reshape(-1), z)


def test_zeta_identical_integer_states_is_exactly_zero():
    # integer-valued states keep every dot product exact
    L = graph.laplacian(graph.vicsek_fractal(1))
    X = np.tile(np.array([3.0, -2.0, 5.0]), (5, 1))
    assert np.all(protocol.zeta(L, X) == 0.0)


def test_zeta_identical_random_states_is_negligible():
    rng = np.random.default_rng(8)
    L = graph.laplacian(graph.vicsek_fractal(2))
    X = np.tile(rng.uniform(-5, 5, size=3), (25, 1))
    assert np.abs(protocol.zeta(L, X)).max() <= 1e-12


def test_zeta_shape_errors():
    L = graph.laplacian(graph.vicsek_fractal(1))
    with pytest.raises(ValueError):
        protocol.zeta(L, np.zeros(7))  # not a multiple of N
    with pytest.raises(ValueError):
        protocol.zeta(L, np.zeros((4, 3)))


def test_gain_rate_inside_deadzone_is_exact_zero(bench_params):
    z = np.array([0.01, 0.0, 0.0])  # V ~ 2.4e-4, far below d = 0.5
    assert protocol.gain_rates(z, bench_params)[0] == 0.0


def test_gain_rate_active_example(bench_params):
    # zeta = e1: V = P[0,0] ~ 2.41 >= d, growth = (B'P zeta)^2 = P[2,0]^2 = 1
    z = np.array([1.0, 0.0, 0.0])
    assert protocol.gain_rates(z, bench_params)[0] == pytest.approx(1.0, abs=1e-9)


def test_gain_rate_boundary_counts_as_active():
    spec = protocol.make_spec(2.0, np.eye(3), d=1.0)
    params = protocol.ProtocolParams(np.eye(3), np.array([[1.0], [0.0], [0.0]]), spec)
    e1 = np.array([1.0, 0.0, 0.0])
    # V = 1.0 equals d exactly: the boundary belongs to the active side
    assert protocol.gain_rates(e1, params)[0] == 1.0
    spec_above = protocol.make_spec(2.0, np.eye(3), d=1.0 + 1e-9)
    params_above = protocol.ProtocolParams(np.eye(3), np.array([[1.0], [0.0], [0.0]]), spec_above)
    assert protocol.gain_rates(e1, params_above)[0] == 0.0


def test_gain_rate_quadratic_identity(bench_params):
    rng = np.random.default_rng(31)
    Z = rng.normal(scale=3.0, size=(1000, 3))
    rates = protocol.gain_rates(Z, bench_params)
    V = np.einsum("ij,jk,ik->i", Z, bench_params.P, Z)
    expected = np.einsum("ij,ij->i", Z @ bench_params.BtP.T, Z @ bench_params.BtP.T)
    active = V >= bench_params.spec.d
    assert np.all(rates[~active] == 0.0)
    assert np.abs(rates[active] - expected[active]).max() <= 1e-10
    assert np.all(rates >= 0.0)


def test_level_set_implies_norm_bound(benchmark_P):
    # inside the V ellipsoid at level delta_bar, the plain norm is at most delta
    rng = np.random.default_rng(17)
    spec = protocol.spec_from_deadzone(0.5, benchmark_P)
    lam, U = np.linalg.eigh(benchmark_P)
    P_inv_half = U @ np.diag(lam ** -0.5) @ U.T
    for _ in range(500):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        r = rng.uniform(0.0, 1.0)
        z = np.sqrt(spec.delta_bar * r) * (P_inv_half @ u)
        assert z @ benchmark_P @ z <= spec.delta_bar * (1 + 1e-12)
        assert np.linalg.norm(z) <= spec.delta * (1 + 1e-12)


def test_control_zero_cases(bench_params):
    z = np.array([1.0, 2.0, 3.0])
    assert np.all(protocol.control_all([0.0], z, bench_params) == 0.0)
    assert np.all(protocol.control_all([5.0], np.zeros(3), bench_params) == 0.0)


def test_control_example_and_linearity(bench_params):
    z = np.array([1.0, 0.0, 0.0])
    u = protocol.control_all([2.0], z, bench_params)[0]
    assert u.shape == (1,)
    # B'P zeta = P[2,0] ~ 1, scaled by -rho
    assert u[0] == pytest.approx(-2.0, abs=1e-9)
    # doubling the gain doubles the input bit for bit
    assert np.array_equal(protocol.control_all([4.0], z, bench_params)[0], 2.0 * u)


def test_vectorized_and_scalar_routes_agree(bench_params):
    # one call over a stack of samples (S, N, n) gives each sample's inputs
    # bit for bit, which lets a trajectory derive its controls in one pass
    rng = np.random.default_rng(44)
    Z = rng.normal(scale=2.0, size=(6, 40, 3))
    rho = rng.uniform(0.0, 3.0, size=(6, 40))
    U = protocol.control_all(rho, Z, bench_params)
    assert U.shape == (6, 40, 1)
    for s in range(6):
        assert np.array_equal(U[s], protocol.control_all(rho[s], Z[s], bench_params))


def test_control_all_shape(bench_params):
    Z = np.zeros((7, 3))
    U = protocol.control_all(np.ones(7), Z, bench_params)
    assert U.shape == (7, 1)
