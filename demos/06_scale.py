"""Run the protocol on the directed generation-6 fractal: 15,001 agents.

The design is scale-free: P and d come from the agent model alone, so the
gains that steer the 5-agent star steer fifteen thousand agents too. A
graph holds only its edges (15,000 here, where a dense weight matrix
would take 1.8 GB), and from graph.EDGE_PATH_NODES agents on the coupling
is applied per edge. The graph is a directed tree, every agent hearing at
most one other, so a stage couples the agents by one gather of each
agent's parent, with no scatter. The closed loop holds its state as X of
shape (n, N), one agent per column, so every gather and product of a
stage runs along the 15,001-agent axis, not along the 3 states. This demo
builds the graph, checks its spanning tree, integrates a short closed loop
and reports the cost per RK4 step.
"""

import time

import numpy as np

from cohsync import analysis, graph, linalg, protocol, signals, sim


def main():
    t0 = time.perf_counter()
    g = graph.vicsek_fractal(6, directed=True)
    built = time.perf_counter() - t0
    print(f"directed generation 6: {g.n_nodes} agents, {g.n_edges} edges, built in {built:.3f} s")
    print(f"directed spanning tree: {graph.has_directed_spanning_tree(g)}")

    model = linalg.triple_integrator()
    P = linalg.solve_care(model.A, model.B).P
    params = protocol.ProtocolParams(P, model.B, d=0.5)
    cfg = sim.SimConfig(
        model=model, graph=g, params=params, disturbance=signals.chirp_signal(),
        x0=sim.default_initial_state(g.n_nodes, model.n, seed=7),
        t_end=0.3, dt=1e-3, record_every=100,
    )
    verdict = analysis.Verdict(cfg)  # running figures only: no record of the 15,001 agents' samples
    t0 = time.perf_counter()
    sim.simulate_union([cfg], [[verdict]])
    elapsed = time.perf_counter() - t0
    print(f"{cfg.steps} RK4 steps to t = {cfg.t_end:g} s: {1e6 * elapsed / cfg.steps:.0f} us per step")

    s = verdict.summary()  # its tail window is the last of the run's four samples
    print(f"max |zeta_i| at t = {cfg.t_end:g}: {s.tail_max_zeta_norm:.3f} (agent {s.worst_agent})")
    print(f"largest gain so far: {s.max_final_gain:.4f} (the gains only grow)")


if __name__ == "__main__":
    main()
