"""Run the five-agent benchmark end to end through the library API.

Builds the network and protocol by hand instead of going through the CLI,
so each ingredient is visible: graph, agent model, Riccati design, deadzone
threshold, disturbance, integration settings.
"""

from pathlib import Path

import numpy as np

from cohsync import analysis, graph, linalg, protocol, signals, sim


def main():
    g = graph.vicsek_fractal(1, directed=True)
    model = linalg.triple_integrator()
    P = linalg.solve_care(model.A, model.B).P
    params = protocol.ProtocolParams(P, model.B, d=0.5)

    cfg = sim.SimConfig(
        model=model,
        graph=g,
        params=params,
        disturbance=signals.chirp_signal(),
        x0=sim.default_initial_state(g.n_nodes, model.n, seed=7),
        t_end=30.0,
        dt=1e-3,
        record_every=10,
    )
    out = Path("out")
    out.mkdir(exist_ok=True)
    verdict = analysis.Verdict(cfg, bound=1.0, label="demo")
    writer = sim.TrajectoryCSV(out / "demo_trajectory.csv", cfg)
    final = {}

    def keep_final(t, X, rho, zeta_norm, U, V):  # any callable is a sink; its arguments are valid for this call only
        final.update(rho=rho.copy(), V=V.max(), zeta=zeta_norm.max())

    # the loop hands each of the run's cfg.samples samples to every sink, as it forms them
    sim.simulate_union([cfg], [[verdict, writer, keep_final]])
    writer.close(keep=True)
    print(analysis.summary_text(verdict.summary()))

    # a few raw numbers behind the verdict
    print(f"samples handed on:   {cfg.samples}")
    print(f"final gains:         {np.round(final['rho'], 4)}")
    # each sample's coherency levels |zeta_i| and V_i = zeta_i' P zeta_i, as the loop formed them
    spec = params.spec
    print(f"final max V_i:       {final['V']:.6f}  (deadzone d={spec.d}, delta_bar={spec.delta_bar})")
    print(f"final max |zeta_i|:  {final['zeta']:.6f}  (guaranteed level delta={spec.delta:.4f})")
    print(f"\nfull trajectory written to {out / 'demo_trajectory.csv'}")


if __name__ == "__main__":
    main()
