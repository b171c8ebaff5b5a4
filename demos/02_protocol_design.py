"""Design the coupling gain and deadzone for the triple-integrator model.

Every agent runs the same local rule: integrate the neighborhood
disagreement through the gain row B'P, and grow the coupling strength
only while the disagreement energy sits above the deadzone threshold d.
The threshold fixes the guaranteed disagreement level delta.
"""

import numpy as np

from cohsync import linalg, protocol


def main():
    model = linalg.triple_integrator()
    sol = linalg.solve_care(model.A, model.B)

    np.set_printoptions(precision=6, suppress=True)
    print("Riccati solution P:")
    print(sol.P)
    print(f"\nresidual norm: {sol.residual_norm:.3e}")
    print(f"gain row B'P:  {model.B.T @ sol.P}")

    lam = linalg.min_eigenvalue_sym(sol.P)
    print(f"lambda_min(P): {lam:.12f}")

    # pick the threshold, read off the level the analysis guarantees;
    # the params form the spec from the P they run with
    spec = protocol.ProtocolParams(sol.P, model.B, d=0.5).spec
    print(f"\nd=0.5 gives delta={spec.delta:.6f} (delta_bar={spec.delta_bar:.6f})")

    # or go the other way: a target level bounds the usable threshold
    target = 1.5
    spec2 = protocol.ProtocolParams(sol.P, model.B, delta=target, d=0.5).spec
    print(f"delta={target} admits d up to {spec2.delta_bar:.6f}, using d={spec2.d}")

    # the smallest level any threshold can certify
    print(f"minimal certifiable delta at d=0.5: {protocol.minimal_delta(0.5, sol.P):.6f}")


if __name__ == "__main__":
    main()
