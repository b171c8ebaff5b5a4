import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohsync import graph, linalg, protocol

LAMBDA_MIN_REF = 0.6346522708156397


@pytest.fixture(scope="module")
def bench_params(benchmark_model, benchmark_P):
    return protocol.ProtocolParams(benchmark_P, benchmark_model.B, d=0.5)


def feedback_rows(rho, zetas, params, d):
    """protocol.feedback on agent rows zetas (..., N, n), through its state-major layout (..., n, N)."""
    rates, U, V = protocol.feedback(rho, zetas.swapaxes(-1, -2), params, d)
    return rates, U.swapaxes(-1, -2), V


def rates_of(zetas, params):
    return feedback_rows(np.zeros(zetas.shape[:-1]), zetas, params, params.spec.d)[0]


def inputs_of(rho, zetas, params):
    return feedback_rows(np.asarray(rho, dtype=float), zetas, params, params.spec.d)[1]


def spec_of(P, **given):
    # the spec ProtocolParams forms from P, with a B that fits any P
    return protocol.ProtocolParams(P, np.ones((len(P), 1)), **given).spec


def test_spec_from_delta_identity_example():
    spec = spec_of(np.eye(3), delta=2.0)
    assert spec.delta == 2.0
    assert spec.delta_bar == 4.0
    assert spec.d == 2.0  # defaults to the midpoint


def test_spec_from_delta_accepts_valid_threshold(benchmark_P):
    spec = spec_of(benchmark_P, delta=1.0, d=0.5)
    assert spec.d == 0.5
    assert spec.delta_bar == pytest.approx(LAMBDA_MIN_REF, abs=1e-9)


def test_spec_from_delta_rejections(benchmark_P):
    with pytest.raises(ValueError, match="delta must be positive"):
        spec_of(benchmark_P, delta=0.0)
    with pytest.raises(ValueError, match="0 < d < delta_bar"):
        spec_of(benchmark_P, delta=1.0, d=0.7)
    with pytest.raises(ValueError, match="0 < d < delta_bar"):
        spec_of(benchmark_P, delta=1.0, d=0.0)
    with pytest.raises(ValueError, match="0 < d < delta_bar"):
        spec_of(benchmark_P, delta=1.0, d=-0.1)


def test_spec_from_d_level_convention(benchmark_P):
    spec = spec_of(benchmark_P, d=0.5)
    assert spec.delta_bar == 1.0  # exactly 2 d
    assert spec.d == 0.5
    # consistency with the forward construction
    again = spec_of(benchmark_P, delta=spec.delta, d=0.5)
    assert again.delta_bar == pytest.approx(spec.delta_bar, rel=1e-12)
    with pytest.raises(ValueError, match="d must be positive"):
        spec_of(benchmark_P, d=0.0)


def test_non_finite_levels_and_an_indefinite_P_are_refused(benchmark_P):
    # before, d = nan gave a spec of NaNs and a negative definite P gave delta = nan
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="d must be positive and finite"):
            spec_of(benchmark_P, d=bad)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            spec_of(benchmark_P, delta=bad)
        with pytest.raises(ValueError, match="0 < d < delta_bar"):
            spec_of(benchmark_P, delta=1.0, d=bad)
        with pytest.raises(ValueError, match="d must be positive and finite"):
            protocol.minimal_delta(bad, benchmark_P)
    for P in (-np.eye(2), np.diag([1.0, 0.0])):
        with pytest.raises(ValueError, match="P must be positive definite"):
            protocol.ProtocolParams(P, np.eye(2), d=0.5)
    for P in (np.diag([1.0, np.inf]), np.diag([np.nan, 1.0])):
        with pytest.raises(ValueError, match="P must be finite"):
            protocol.ProtocolParams(P, np.eye(2), d=0.5)


def test_minimal_delta(benchmark_P):
    got = protocol.minimal_delta(0.5, benchmark_P)
    assert got == pytest.approx(np.sqrt(0.5 / LAMBDA_MIN_REF), abs=1e-12)
    assert got == pytest.approx(0.8876, abs=1e-4)
    # the smallest admissible level: anything below it rejects d
    with pytest.raises(ValueError):
        spec_of(benchmark_P, delta=got * 0.999, d=0.5)
    assert spec_of(benchmark_P, delta=got * 1.001, d=0.5).d == 0.5


def test_params_cache_matches_definitions(benchmark_model, benchmark_P, bench_params):
    assert np.array_equal(bench_params.BtP, benchmark_model.B.T @ benchmark_P)
    assert np.array_equal(bench_params.Kt, np.hstack([benchmark_P, (benchmark_model.B.T @ benchmark_P).T]).T)
    assert bench_params.Kt.flags.c_contiguous
    assert (bench_params.n, bench_params.m) == (3, 1)


def test_params_validation(benchmark_P):
    with pytest.raises(ValueError):
        protocol.ProtocolParams(np.ones((2, 3)), np.ones((2, 1)), d=0.5)
    with pytest.raises(ValueError):
        protocol.ProtocolParams(benchmark_P, np.ones((2, 1)), d=0.5)
    with pytest.raises(ValueError):
        protocol.ProtocolParams(benchmark_P, np.ones((3, 1)), d=-0.5)
    with pytest.raises(ValueError, match="needs d, delta, or both"):
        protocol.ProtocolParams(benchmark_P, np.ones((3, 1)))
    with pytest.raises(TypeError):  # a spec cannot be passed in, only d and delta by keyword
        protocol.ProtocolParams(benchmark_P, np.ones((3, 1)), 0.5)


def test_zeta_two_node_chain():
    L = graph.laplacian(graph.from_edge_list(2, [(1, 2, 1.0)]))
    z = protocol.zeta(L, np.array([[0.0], [1.0]]))
    assert np.array_equal(z, np.array([[0.0], [1.0]]))


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
        protocol.zeta(L, np.zeros(7))  # not N rows
    with pytest.raises(ValueError):
        protocol.zeta(L, np.zeros((4, 3)))


def test_gain_rate_inside_deadzone_is_exact_zero(bench_params):
    z = np.array([[0.01, 0.0, 0.0]])  # V ~ 2.4e-4, far below d = 0.5
    assert rates_of(z, bench_params)[0] == 0.0


def test_gain_rate_active_example(bench_params):
    # zeta = e1: V = P[0,0] ~ 2.41 >= d, growth = (B'P zeta)^2 = P[2,0]^2 = 1
    z = np.array([[1.0, 0.0, 0.0]])
    assert rates_of(z, bench_params)[0] == pytest.approx(1.0, abs=1e-9)


def test_gain_rate_boundary_counts_as_active():
    params = protocol.ProtocolParams(np.eye(3), np.array([[1.0], [0.0], [0.0]]), delta=2.0, d=1.0)
    e1 = np.array([[1.0, 0.0, 0.0]])
    # V = 1.0 equals d exactly: the boundary belongs to the active side
    assert rates_of(e1, params)[0] == 1.0
    params_above = protocol.ProtocolParams(np.eye(3), np.array([[1.0], [0.0], [0.0]]), delta=2.0, d=1.0 + 1e-9)
    assert rates_of(e1, params_above)[0] == 0.0


def test_gain_rate_quadratic_identity(bench_params):
    rng = np.random.default_rng(31)
    Z = rng.normal(scale=3.0, size=(1000, 3))
    rates = rates_of(Z, bench_params)
    V = np.einsum("ij,jk,ik->i", Z, bench_params.P, Z)
    expected = np.einsum("ij,ij->i", Z @ bench_params.BtP.T, Z @ bench_params.BtP.T)
    active = V >= bench_params.spec.d
    assert np.all(rates[~active] == 0.0)
    assert np.abs(rates[active] - expected[active]).max() <= 1e-10
    assert np.all(rates >= 0.0)


def test_level_set_implies_norm_bound(benchmark_P):
    # inside the V ellipsoid at level delta_bar, the plain norm is at most delta
    rng = np.random.default_rng(17)
    spec = spec_of(benchmark_P, d=0.5)
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
    z = np.array([[1.0, 2.0, 3.0]])
    assert np.all(inputs_of([0.0], z, bench_params) == 0.0)
    assert np.all(inputs_of([5.0], np.zeros((1, 3)), bench_params) == 0.0)


def test_control_example_and_linearity(bench_params):
    z = np.array([[1.0, 0.0, 0.0]])
    u = inputs_of([2.0], z, bench_params)[0]
    assert u.shape == (1,)
    # B'P zeta = P[2,0] ~ 1, scaled by -rho
    assert u[0] == pytest.approx(-2.0, abs=1e-9)
    # doubling the gain doubles the input bit for bit
    assert np.array_equal(inputs_of([4.0], z, bench_params)[0], 2.0 * u)


def test_levels_keep_leading_axes(bench_params):
    rng = np.random.default_rng(45)
    Z = rng.normal(scale=2.0, size=(4, 6, 3))
    V = feedback_rows(np.zeros((4, 6)), Z, bench_params, 0.5)[2]
    assert V.shape == (4, 6)
    expected = [[z @ bench_params.P @ z for z in sample] for sample in Z]
    assert np.allclose(V, expected, rtol=1e-13, atol=0.0)
    assert np.array_equal(V[2], feedback_rows(np.zeros(6), Z[2], bench_params, 0.5)[2])


def test_vectorized_and_scalar_routes_agree(bench_params):
    # one call over a stack of samples (S, N, n) gives each sample's rates and
    # inputs bit for bit, which lets a trajectory derive its controls in one pass
    rng = np.random.default_rng(44)
    Z = rng.normal(scale=2.0, size=(6, 40, 3))
    rho = rng.uniform(0.0, 3.0, size=(6, 40))
    rates, U, V = feedback_rows(rho, Z, bench_params, 0.5)
    assert rates.shape == V.shape == (6, 40)
    assert U.shape == (6, 40, 1)
    for s in range(6):
        rates_s, U_s, V_s = feedback_rows(rho[s], Z[s], bench_params, 0.5)
        assert np.array_equal(rates[s], rates_s)
        assert np.array_equal(U[s], U_s)
        assert np.array_equal(V[s], V_s)


def test_feedback_shapes(bench_params):
    rates, U, V = feedback_rows(np.ones(7), np.zeros((7, 3)), bench_params, 0.5)
    assert rates.shape == V.shape == (7,)
    assert U.shape == (7, 1)
    # a single zeta is one agent: one column
    rate, u, v = protocol.feedback(np.array([2.0]), np.array([[1.0], [0.0], [0.0]]), bench_params, 0.5)
    assert rate.shape == v.shape == (1,)
    assert u.shape == (1, 1)


def test_feedback_into_buffers_is_the_allocating_call():
    # the stage's call writes into the arrays it is given and returns them, with
    # the bits of the record-wide call that allocates, whatever n and m
    rng = np.random.default_rng(8)
    for n, m in ((1, 1), (3, 1), (4, 2), (3, 3)):
        A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
        params = protocol.ProtocolParams(linalg.solve_care(A, B).P, B, d=0.5)
        Z, rho = rng.normal(size=(4, n, 30)), rng.uniform(0, 3, (4, 30))
        d = rng.choice([0.05, 0.5, 5.0], 30)  # some columns inside their deadzone, some outside
        record = protocol.feedback(rho, Z, params, d)
        for s in range(4):
            KZ = np.empty((n + m, 30))
            out = (np.empty(30), np.empty((m, 30)), np.empty(30), KZ, KZ[:n], KZ[n:], tuple(KZ[n:]),
                   np.empty(30, dtype=bool))
            got = protocol.feedback(rho[s], np.ascontiguousarray(Z[s]), params, d, out=out)
            assert all(g is o for g, o in zip(got, out[:3]))
            for g, r in zip(got, record, strict=True):
                assert np.array_equal(g, r[s]) and np.array_equal(np.signbit(g), np.signbit(r[s]))
        assert (record[0] == 0.0).any() and (record[0] > 0.0).any()


# feedback forms B'P zeta from one product with P beside it, so its sums may
# round in another order than a per-agent matvec: allow a few ulps of the
# scale |B'P| |zeta| of each output
FEEDBACK_ULPS = 8 * np.finfo(float).eps
TINY = np.finfo(float).tiny  # a floor for products that underflow


@st.composite
def feedback_cases(draw, integer=False):
    """(rho, zetas, P, B) for n states and m inputs, zetas of shape (N, n) or (S, N, n)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (3,)])) + (draw(st.integers(1, 6)),)
    if integer:  # small integers keep every product and sum exact
        entries = st.integers(-4, 4).map(float)
    else:
        entries = st.floats(-5.0, 5.0, allow_subnormal=False)
    M = draw(hnp.arrays(float, (n, n), elements=entries))
    P = M @ M.T + np.eye(n)  # positive definite, lambda_min >= 1
    B = draw(hnp.arrays(float, (n, m), elements=entries))
    zetas = draw(hnp.arrays(float, lead + (n,), elements=entries))
    rho = draw(hnp.arrays(float, lead, elements=st.floats(0.0, 10.0)))
    return rho, zetas, P, B


def per_agent(zetas, P, B):
    """Levels, B'P zeta and its error scale |B'P| |zeta|, one agent at a time."""
    BtP = B.T @ P
    rows = zetas.reshape(-1, P.shape[0])
    V = np.array([z @ P @ z for z in rows])
    Y = np.array([BtP @ z for z in rows])
    scale = np.array([np.abs(BtP) @ np.abs(z) for z in rows])
    lead = zetas.shape[:-1]
    return V.reshape(lead), Y.reshape(lead + (-1,)), scale.reshape(lead + (-1,))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(feedback_cases(), st.floats(0.01, 50.0))
def test_feedback_matches_the_per_agent_formulas(case, d):
    rho, zetas, P, B = case
    params = protocol.ProtocolParams(P, B, d=d)
    rates, U, levels = feedback_rows(rho, zetas, params, d)
    V, Y, scale = per_agent(zetas, P, B)
    assert rates.shape == levels.shape == zetas.shape[:-1]
    assert U.shape == Y.shape
    assert np.all(np.abs(U + rho[..., None] * Y) <= FEEDBACK_ULPS * rho[..., None] * scale + TINY)
    # away from the boundary the deadzone decides alike whatever the rounding
    margin = FEEDBACK_ULPS * np.einsum("...j,jk,...k->...", np.abs(zetas), np.abs(P), np.abs(zetas))
    assert np.all(np.abs(levels - V) <= margin + TINY)
    active, inside = V >= d + margin, V < d - margin
    expected = (Y * Y).sum(axis=-1)
    assert np.all(np.abs(rates - expected)[active] <= (FEEDBACK_ULPS * (scale * scale).sum(axis=-1) + TINY)[active])
    assert np.all(rates[inside] == 0.0)
    assert np.all(rates >= 0.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(feedback_cases(integer=True), st.data())
def test_feedback_is_exact_on_integers_and_the_boundary_is_active(case, data):
    rho, zetas, P, B = case
    V, Y, _ = per_agent(zetas, P, B)
    assume(V.max() > 0.0)
    # d is some agent's level exactly, so that agent sits on the boundary
    d = data.draw(st.sampled_from(sorted(set(V[V > 0.0].tolist()))))
    rates, U, levels = feedback_rows(rho, zetas, protocol.ProtocolParams(P, B, d=d), d)
    assert np.array_equal(levels, V)
    assert np.array_equal(rates, np.where(V >= d, (Y * Y).sum(axis=-1), 0.0))
    assert np.array_equal(U, -rho[..., None] * Y)
