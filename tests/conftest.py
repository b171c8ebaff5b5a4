import numpy as np
import pytest
import yaml

from cohsync import cli, graph, linalg, sim


@pytest.fixture(params=["LOADER", "SafeLoader"])
def yaml_loader(request, monkeypatch):
    """cli.load_config as this PyYAML parses a config, then as one built without libyaml parses it."""
    if request.param == "SafeLoader":
        monkeypatch.setattr(cli, "LOADER", yaml.SafeLoader)
    return cli.LOADER


@pytest.fixture(scope="session")
def benchmark_model():
    return linalg.triple_integrator()


@pytest.fixture(scope="session")
def benchmark_P(benchmark_model):
    # solved once per session; every consumer sees the same bits
    return linalg.solve_care(benchmark_model.A, benchmark_model.B).P


@pytest.fixture(scope="session")
def exact_P():
    # closed-form solution for the chain-of-three-integrators plant
    c = 1.0 + np.sqrt(2.0)
    return np.array([[c, c, 1.0], [c, 2.0 * c, c], [1.0, c, c]])


def feedback(rho, zetas, params, d):
    """Gain rates, control inputs and levels of all agents, record-wide: the reference the RK4 stage is held to.

    Z holds one agent's zeta_i per column, shape (..., n, N); one product
    Kt @ Z with Kt = [P | (B'P)']' gives P Z and Y = B'P Z. Column i's
    level is V_i = zeta_i' P zeta_i; its rate is |y_i|^2 while V_i >= d
    (the boundary counts as active) and exactly 0.0 inside the deadzone;
    its input is -rho_i y_i. Returns (rates, inputs, levels). d broadcasts
    against the levels, and leading sample axes broadcast: gains (S, N)
    with disagreements (S, n, N) give rates (S, N), inputs (S, m, N) and
    levels (S, N). The rates' squares are summed row by row, as a sum over
    rows adds them.
    """
    n = params.n
    KZ = np.ascontiguousarray(np.hstack([params.P, params.BtP.T]).T) @ zetas
    PZ, Y = KZ[..., :n, :], KZ[..., n:, :]
    V = np.add.reduce(np.multiply(zetas, PZ, PZ), -2)
    rates = Y[..., 0, :] * Y[..., 0, :]
    for j in range(1, params.m):
        rates += Y[..., j, :] * Y[..., j, :]
    rates *= V >= d
    U = np.asarray(rho, dtype=float)[..., None, :] * Y
    return rates, np.negative(U, U), V


def stage_rows(rho, zetas, params, d):
    """The rates, inputs -rho y and levels an RK4 stage forms for agent rows zetas (..., N, n).

    Each agent hears a root held at the origin, so its disagreement is its
    state; the loop hands on stage 1's Y as -U and V as they stand after
    the stage. A and B enter only the state derivative, so they are zero.
    """
    n, m, lead = params.n, params.m, zetas.shape[:-1]
    agents = int(np.prod(lead))
    star = graph.from_edge_list(agents + 1, [(1, i, 1.0) for i in range(2, agents + 2)])
    S = np.zeros((n + 1, agents + 1))
    S[:n, 1:], S[n, 1:] = zetas.reshape(agents, n).T, np.broadcast_to(rho, lead).reshape(-1)
    step = sim.RK4Step(params, np.zeros((n, n)), np.zeros((n, m)), np.full(agents + 1, d),
                       graph.LaplacianOperator(star), 1e-3, S)
    rates = step.first(np.zeros((n, agents + 1)))[n, 1:].copy()
    assert np.array_equal(step.Z[:, 1:], S[:n, 1:])  # each agent's disagreement is its state, exactly
    return rates.reshape(lead), -step.Y[:, 1:].T.reshape(lead + (m,)), step.V[1:].reshape(lead)
