"""Adaptive deadzone synchronization of networked linear agents.

Graph generators and spectra, Riccati-based protocol design, closed-loop
fixed-step simulation, and post-run coherency analysis. The protocol is
scale-free: it is designed from the agent model alone and never sees the
graph, its spectrum, or the agent count.
"""

__version__ = "0.1.0"

from .analysis import RunSummary, summarize, summary_text
from .graph import (
    WeightedDigraph,
    algebraic_connectivity,
    circulant,
    from_edge_list,
    has_directed_spanning_tree,
    laplacian,
    read_edge_list,
    vicsek_fractal,
    write_edge_list,
)
from .linalg import (
    AgentModel,
    AssumptionError,
    RiccatiSolution,
    care_residual,
    image_containment,
    is_stabilizable,
    lyapunov,
    min_eigenvalue_sym,
    solve_care,
    triple_integrator,
)
from .protocol import (
    CoherenceSpec,
    ProtocolParams,
    make_spec,
    minimal_delta,
    spec_from_deadzone,
    zeta,
)
from .signals import (
    DisturbanceSignal,
    chirp,
    chirp_signal,
    load_table,
    sawtooth,
    sawtooth_signal,
    table_signal,
    zero_signal,
)
from .sim import (
    DivergenceError,
    SimConfig,
    Trajectory,
    default_initial_state,
    rhs,
    simulate,
    write_trajectory_csv,
)
