"""Build the benchmark communication graphs and inspect their spectra.

The fractal family grows by replacing every node with a five-node cross,
so the network gets sparser and slower with each generation. The directed
variant keeps only the edges pointing away from the center, which gives a
spanning tree rooted there.
"""

from pathlib import Path

import numpy as np

from cohsync import graph


def describe(name, g):
    lam2 = graph.algebraic_connectivity(g)
    tree = graph.has_directed_spanning_tree(g)
    print(f"{name:28s} N={g.n_nodes:4d} edges={g.n_edges:4d} "
          f"lambda_2={lam2:.6f} spanning_tree={tree}")


def main():
    print("fractal family, undirected:")
    for gen in (1, 2, 3):
        describe(f"  generation {gen}", graph.vicsek_fractal(gen, directed=False))

    print("\nfractal family, directed (center-rooted):")
    for gen in (1, 2, 3):
        describe(f"  generation {gen}", graph.vicsek_fractal(gen, directed=True))

    print("\nring with skip links:")
    ring = graph.circulant(121, [1, 2], directed=True)
    describe("  n=121 offsets {1,2}", ring)

    # the three-node case has a closed-form spectrum: 1 - exp(2*pi*i*k/3)
    small = graph.circulant(3, [1], directed=True)
    eig = np.sort_complex(np.linalg.eigvals(graph.laplacian(small)))
    print(f"\n3-ring Laplacian eigenvalues: {np.round(eig, 6)}")

    # graphs round-trip through a plain edge-list text format
    path = Path("out") / "demo_graph.txt"
    path.parent.mkdir(exist_ok=True)
    graph.write_edge_list(graph.vicsek_fractal(1, directed=True), path)
    back = graph.read_edge_list(path)
    print(f"\nedge-list round trip ok: "
          f"{np.array_equal(back.weights, graph.vicsek_fractal(1, directed=True).weights)}")


if __name__ == "__main__":
    main()
