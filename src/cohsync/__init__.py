"""Adaptive deadzone synchronization of networked linear agents.

Graph generators and spectra, Riccati-based protocol design, closed-loop
fixed-step simulation, and post-run coherency analysis. The protocol is
scale-free: it is designed from the agent model alone and never sees the
graph, its spectrum, or the agent count.
"""

__version__ = "0.1.0"
