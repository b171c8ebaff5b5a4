import numpy as np
import pytest

from cohsync import graph


def test_laplacian_single_edge():
    g = graph.from_edge_list(2, [(1, 2, 1.0)])
    L = graph.laplacian(g)
    assert np.array_equal(L, np.array([[0.0, 0.0], [-1.0, 1.0]]))


def test_laplacian_directed_three_cycle():
    # each node listens to its predecessor: edges 3->1, 1->2, 2->3
    g = graph.from_edge_list(3, [(3, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    expected = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(graph.laplacian(g), expected)


def test_laplacian_row_sums_exactly_zero():
    # dyadic weights so the row-sum identity holds bit for bit
    cases = [
        graph.vicsek_fractal(1),
        graph.vicsek_fractal(2, directed=True),
        graph.vicsek_fractal(3),
        graph.circulant(7, [1, 2]),
        graph.from_edge_list(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 0.25), (4, 1, 1.5)]),
    ]
    for g in cases:
        assert np.all(graph.laplacian(g).sum(axis=1) == 0.0)


# L x summed per edge against the dense row order: the two may differ by
# rounding wherever a node has more than one in-neighbour
ORDER_TOL = 1e-14


def both_paths(g, monkeypatch):
    """The operator of g built densely, then per edge."""
    ops = []
    for threshold in (g.n_nodes + 1, g.n_nodes):
        monkeypatch.setattr(graph, "EDGE_PATH_NODES", threshold)
        ops.append(graph.LaplacianOperator(g))
    assert ops[0].dense is not None and ops[1].dense is None
    return ops


def assert_applies_laplacian(g, x, monkeypatch, exact):
    ref = graph.laplacian(g) @ x
    for op in both_paths(g, monkeypatch):
        got = op(x)
        assert got.shape == x.shape
        if exact:
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))  # zeros keep their sign too
        else:
            assert np.abs(got - ref).max() <= ORDER_TOL * np.abs(ref).max()


@pytest.mark.parametrize("generation", [2, 3, 4])
def test_operator_is_bit_identical_on_directed_fractals(monkeypatch, generation):
    g = graph.vicsek_fractal(generation, directed=True)
    x = np.random.default_rng(generation).uniform(-5, 5, (g.n_nodes, 3))
    assert_applies_laplacian(g, x, monkeypatch, exact=True)


@pytest.mark.parametrize(
    "g",
    [graph.vicsek_fractal(3), graph.vicsek_fractal(4), graph.circulant(601, [1, 2], directed=False)],
    ids=["undirected-3", "undirected-4", "circulant-601"],
)
def test_operator_within_order_tolerance_on_undirected_graphs(monkeypatch, g):
    x = np.random.default_rng(g.n_nodes).uniform(-5, 5, (g.n_nodes, 3))
    assert_applies_laplacian(g, x, monkeypatch, exact=False)


def test_operator_on_a_weighted_edge_list(monkeypatch):
    edges = [(1, 2, 0.5), (3, 2, 2.5), (2, 4, 1e-3), (5, 6, 7.0), (4, 6, 0.25), (1, 5, 3.0), (6, 1, 1.5)]
    g = graph.from_edge_list(6, edges)
    x = np.random.default_rng(6).uniform(-5, 5, (6, 2))
    assert_applies_laplacian(g, x, monkeypatch, exact=False)


def test_operator_root_without_in_edges_is_plus_zero(monkeypatch):
    # the directed star's center (node 3) listens to nobody; negative
    # states make 0 * x a negative zero, which must not surface
    g = graph.vicsek_fractal(1, directed=True)
    x = -np.arange(1.0, 16.0).reshape(5, 3)
    assert_applies_laplacian(g, x, monkeypatch, exact=True)
    for op in both_paths(g, monkeypatch):
        assert np.all(op(x)[2] == 0.0) and not np.signbit(op(x)[2]).any()


def test_operator_node_hearing_every_other(monkeypatch):
    # node 1 has in-degree N - 1; the rest hear only node 1
    N = 40
    edges = [(j, 1, 1.0 + j / N) for j in range(2, N + 1)] + [(1, j, 0.5) for j in range(2, N + 1)]
    g = graph.from_edge_list(N, edges)
    x = np.random.default_rng(N).uniform(-5, 5, (N, 3))
    assert_applies_laplacian(g, x, monkeypatch, exact=False)


def test_operator_on_stacked_states(monkeypatch):
    for g, exact in ((graph.vicsek_fractal(4, directed=True), True), (graph.vicsek_fractal(3), False)):
        x = np.random.default_rng(1).uniform(-5, 5, (2, 4, g.n_nodes, 3))
        assert_applies_laplacian(g, x, monkeypatch, exact)
        for op in both_paths(g, monkeypatch):
            stacked = op(x)
            for idx in np.ndindex(2, 4):
                assert np.array_equal(stacked[idx], op(x[idx]))


def test_operator_path_follows_the_node_count():
    assert graph.LaplacianOperator(graph.vicsek_fractal(3)).dense is not None
    assert graph.LaplacianOperator(graph.vicsek_fractal(4)).dense is None


def test_digraph_validation():
    with pytest.raises(ValueError):
        graph.WeightedDigraph([[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        graph.WeightedDigraph([[1.0, 0.0], [0.0, 0.0]])  # self-loop
    with pytest.raises(ValueError):
        graph.WeightedDigraph(np.zeros((2, 3)))
    for w in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            graph.WeightedDigraph([[0.0, w], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            graph.from_edge_list(2, [(1, 2, w)])


def test_weights_are_read_only():
    g = graph.vicsek_fractal(1)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_spanning_tree_simple_cases():
    assert graph.has_directed_spanning_tree(graph.from_edge_list(2, [(1, 2, 1.0)]))
    assert not graph.has_directed_spanning_tree(graph.from_edge_list(2, []))
    # two disjoint pairs: locally rooted but no global root
    g = graph.from_edge_list(4, [(1, 2, 1.0), (3, 4, 1.0)])
    assert not graph.has_directed_spanning_tree(g)


def _reachability_has_root(g):
    # independent oracle: squared boolean reachability matrix
    n = g.n_nodes
    R = ((g.weights > 0) | np.eye(n, dtype=bool)).astype(int)
    for _ in range(n):
        R = ((R @ R) > 0).astype(int)
    return any(R[:, r].all() for r in range(n))


def test_spanning_tree_matches_reachability_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        W = (rng.random((n, n)) < 0.25).astype(float)
        np.fill_diagonal(W, 0.0)
        g = graph.WeightedDigraph(W)
        assert graph.has_directed_spanning_tree(g) == _reachability_has_root(g)


def test_spanning_tree_implies_single_zero_eigenvalue():
    cases = [
        graph.vicsek_fractal(2, directed=True),
        graph.vicsek_fractal(2),
        graph.circulant(9, [1]),
        graph.circulant(8, [1, 3], directed=False),
    ]
    for g in cases:
        assert graph.has_directed_spanning_tree(g)
        ev = np.linalg.eigvals(graph.laplacian(g))
        assert np.sum(np.abs(ev) < 1e-8) == 1
        assert np.all(ev[np.abs(ev) >= 1e-8].real > 0)


def test_vicsek_node_counts():
    assert graph.vicsek_fractal(1).n_nodes == 5
    assert graph.vicsek_fractal(2).n_nodes == 25
    assert graph.vicsek_fractal(3).n_nodes == 121


def test_vicsek_rejects_nonpositive_generation():
    with pytest.raises(ValueError):
        graph.vicsek_fractal(0)


def test_vicsek_generation_one_is_a_star():
    g = graph.vicsek_fractal(1)
    deg = (g.weights > 0).sum(axis=1)
    assert sorted(deg.tolist()) == [1, 1, 1, 1, 4]
    # star on five nodes has second-smallest Laplacian eigenvalue 1
    assert graph.algebraic_connectivity(g) == pytest.approx(1.0, abs=1e-9)


def test_vicsek_connectivity_sequence():
    # frozen from dense symmetric eigensolves on the three generations
    assert graph.algebraic_connectivity(graph.vicsek_fractal(1)) == pytest.approx(1.0, abs=5e-7)
    assert graph.algebraic_connectivity(graph.vicsek_fractal(2)) == pytest.approx(0.069198, abs=5e-7)
    assert graph.algebraic_connectivity(graph.vicsek_fractal(3)) == pytest.approx(0.005252, abs=5e-7)


def test_vicsek_connected_every_generation():
    for gen in (1, 2, 3):
        g = graph.vicsek_fractal(gen)
        assert graph.has_directed_spanning_tree(g)
        assert np.array_equal(g.weights, g.weights.T)


def test_vicsek_directed_is_an_arborescence():
    gd = graph.vicsek_fractal(2, directed=True)
    gu = graph.vicsek_fractal(2)
    indeg = (gd.weights > 0).sum(axis=1)
    # one root hears nothing, everyone else hears exactly one parent
    assert sorted(indeg.tolist()) == [0] + [1] * (gd.n_nodes - 1)
    assert gd.n_edges == gd.n_nodes - 1
    assert graph.has_directed_spanning_tree(gd)
    # every oriented edge exists in the undirected generator
    assert np.all(gu.weights[gd.weights > 0] == 1.0)


def test_circulant_three_cycle_spectrum():
    g = graph.circulant(3, [1])
    lam = graph.algebraic_connectivity(g)
    # nonzero eigenvalues of the 3-cycle shift Laplacian have real part 3/2
    exact = sorted((1.0 - np.exp(2j * np.pi * k / 3)).real for k in range(3))[1]
    assert lam == pytest.approx(exact, abs=1e-12)
    assert lam == pytest.approx(1.5, abs=1e-12)


def test_circulant_structure():
    g = graph.circulant(4, [1, 2])
    L = graph.laplacian(g)
    assert np.all(np.diag(L) == 2.0)
    for i in range(4):
        assert g.weights[i, (i + 1) % 4] == 1.0
        assert g.weights[i, (i + 2) % 4] == 1.0


def test_circulant_single_offset_rings_are_rooted():
    for n in range(2, 9):
        assert graph.has_directed_spanning_tree(graph.circulant(n, [1]))


def test_circulant_undirected_symmetrizes():
    g = graph.circulant(6, [2], directed=False)
    assert np.array_equal(g.weights, g.weights.T)


def test_circulant_rejects_bad_offsets():
    with pytest.raises(ValueError):
        graph.circulant(5, [])
    with pytest.raises(ValueError):
        graph.circulant(5, [5])
    with pytest.raises(ValueError):
        graph.circulant(5, [0])
    with pytest.raises(ValueError):
        graph.circulant(1, [1])


def test_connectivity_complete_graph():
    n = 5
    g = graph.WeightedDigraph(np.ones((n, n)) - np.eye(n))
    # complete graph on n nodes: all nonzero eigenvalues equal n
    assert graph.algebraic_connectivity(g) == pytest.approx(5.0, abs=1e-9)


def test_connectivity_two_node_pair():
    g = graph.WeightedDigraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert graph.algebraic_connectivity(g) == pytest.approx(2.0, abs=1e-12)


def test_connectivity_needs_two_nodes():
    with pytest.raises(ValueError):
        graph.algebraic_connectivity(graph.WeightedDigraph(np.zeros((1, 1))))


def test_from_edge_list_receiver_convention():
    g = graph.from_edge_list(2, [(1, 2, 1.0)])
    assert g.weights[1, 0] == 1.0
    assert np.count_nonzero(g.weights) == 1


def test_from_edge_list_duplicate_last_wins():
    g = graph.from_edge_list(2, [(1, 2, 1.0), (1, 2, 3.0)])
    assert g.weights[1, 0] == 3.0


def test_from_edge_list_rejections():
    with pytest.raises(ValueError):
        graph.from_edge_list(2, [(1, 1, 1.0)])
    with pytest.raises(ValueError):
        graph.from_edge_list(2, [(1, 3, 1.0)])
    with pytest.raises(ValueError):
        graph.from_edge_list(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        graph.from_edge_list(2, [(1, 2, 0.0)])
    with pytest.raises(ValueError):
        graph.from_edge_list(2, [(1, 2, -1.0)])


def test_relabel_conjugates_laplacian():
    rng = np.random.default_rng(3)
    g = graph.circulant(6, [1, 2])
    perm = rng.permutation(6)
    Pi = np.zeros((6, 6))
    Pi[perm, np.arange(6)] = 1.0
    L2 = graph.laplacian(graph.relabel(g, perm))
    assert np.array_equal(L2, Pi @ graph.laplacian(g) @ Pi.T)


def test_relabel_rejects_non_permutation():
    g = graph.circulant(4, [1])
    with pytest.raises(ValueError):
        graph.relabel(g, [0, 0, 1, 2])
    with pytest.raises(ValueError):
        graph.relabel(g, [0, 1, 2])


def test_edge_list_file_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    # the directed star: center node 3 sends to every other node
    graph.write_edge_list(graph.vicsek_fractal(1, directed=True), path)
    assert path.read_text() == "nodes 5\n3 1 1.0\n3 2 1.0\n3 4 1.0\n3 5 1.0\n"
    weighted = graph.from_edge_list(3, [(2, 1, 0.5), (3, 1, 2.0), (1, 3, 1e-3)])
    for g in [graph.vicsek_fractal(2, directed=True), graph.circulant(5, [1, 2]), weighted]:
        graph.write_edge_list(g, path)
        assert np.array_equal(graph.read_edge_list(path).weights, g.weights)
        # edges are listed by receiver, then by sender, weights in repr
        W, n = g.weights, g.n_nodes
        edges = [f"{j + 1} {i + 1} {W[i, j].item()!r}" for i in range(n) for j in range(n) if W[i, j] > 0]
        assert path.read_text() == "\n".join([f"nodes {g.n_nodes}", *edges]) + "\n"


def test_edge_list_file_format(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# demo graph\nnodes 2   # inline note\n\n1 2 1.0\n")
    g = graph.read_edge_list(path)
    assert g.n_nodes == 2
    assert g.weights[1, 0] == 1.0


def test_edge_list_parser_errors(tmp_path):
    missing_header = tmp_path / "a.txt"
    missing_header.write_text("1 2 1.0\n")
    with pytest.raises(ValueError, match="nodes"):
        graph.read_edge_list(missing_header)

    short_row = tmp_path / "b.txt"
    short_row.write_text("nodes 2\n1 2\n")
    with pytest.raises(ValueError, match=r":2: expected"):
        graph.read_edge_list(short_row)

    bad_weight = tmp_path / "c.txt"
    bad_weight.write_text("nodes 2\n1 2 frogs\n")
    with pytest.raises(ValueError, match=r":2:"):
        graph.read_edge_list(bad_weight)
