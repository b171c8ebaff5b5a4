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
    traj = sim.simulate(cfg)

    summary = analysis.summarize(traj, bound=1.0, label="demo")
    print(analysis.summary_text(summary))

    # a few raw numbers behind the verdict
    print(f"samples recorded:    {traj.times.size}")
    print(f"final gains:         {np.round(traj.gains[-1], 4)}")
    # the loop recorded each sample's disagreements zeta_i and levels V_i = zeta_i' P zeta_i as it formed them
    spec = params.spec
    print(f"final max V_i:       {traj.levels[-1].max():.6f}  (deadzone d={spec.d}, delta_bar={spec.delta_bar})")
    print(f"final max |zeta_i|:  {np.linalg.norm(traj.zetas[-1], axis=0).max():.6f}  "
          f"(guaranteed level delta={spec.delta:.4f})")

    out = Path("out")
    out.mkdir(exist_ok=True)
    sim.write_trajectory_csv(traj, out / "demo_trajectory.csv")
    print(f"\nfull trajectory written to {out / 'demo_trajectory.csv'}")


if __name__ == "__main__":
    main()
