import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsync import graph


def from_matrix(W):
    """The graph whose receiver-convention weight matrix is W: an edge j -> i wherever W[i, j] != 0."""
    W = np.asarray(W, dtype=float)
    r, s = np.nonzero(W)
    return graph.WeightedDigraph(len(W), r, s, W[r, s])


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
    """The operator of g built densely, then per edge, neither the gather of a unit-weight tree."""
    monkeypatch.setattr(graph, "TREE_GATHER_COLUMNS", np.inf)
    ops = []
    for threshold in (g.n_nodes + 1, g.n_nodes):
        monkeypatch.setattr(graph, "EDGE_PATH_NODES", threshold)
        ops.append(graph.LaplacianOperator(g))
    assert [structure(op) for op in ops] == [[(1, (g.n_nodes, g.n_nodes))], [(1, None)]]
    return ops


def structure(op):
    """Each block's copies and dense L's shape (None per edge), in order."""
    return [(b.copies, None if b.dense is None else b.dense.shape) for b in op.blocks or [op]]


def on_rows(op, x):
    """op applied to agent rows x of shape (..., N, n), through its state-major layout (..., n, N)."""
    return op(x.swapaxes(-1, -2)).swapaxes(-1, -2)


def assert_applies_laplacian(g, x, monkeypatch, exact):
    ref = graph.laplacian(g) @ x
    for op in both_paths(g, monkeypatch):
        got = on_rows(op, x)
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
        assert np.all(on_rows(op, x)[2] == 0.0) and not np.signbit(on_rows(op, x)[2]).any()


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
            stacked = on_rows(op, x)
            for idx in np.ndindex(2, 4):
                assert np.array_equal(stacked[idx], on_rows(op, x[idx]))


def test_operator_of_a_disjoint_union_acts_per_block(monkeypatch):
    # each graph's rows get what its lone operator gives, bit for bit and sign bit
    # for sign bit, whichever map each graph takes by its own node count; the
    # two circulants form one block of copies, written into its slice of the output
    graphs = [graph.vicsek_fractal(2, directed=True), *[graph.circulant(7, [1, 2])] * 2, graph.vicsek_fractal(1)]
    sizes = [g.n_nodes for g in graphs]
    x = np.random.default_rng(3).uniform(-5, 5, (2, sum(sizes), 3))
    blocks = np.split(x, np.cumsum(sizes)[:-1], axis=1)
    monkeypatch.setattr(graph, "TREE_GATHER_COLUMNS", np.inf)  # the directed fractal too follows its node count
    for threshold, dense in ((26, [True] * 3), (7, [False, False, True]), (1, [False] * 3)):
        monkeypatch.setattr(graph, "EDGE_PATH_NODES", threshold)
        op = graph.LaplacianOperator(*graphs)
        assert [b.dense is not None for b in op.blocks] == dense
        got = np.split(on_rows(op, x), np.cumsum(sizes)[:-1], axis=1)
        for g, block, part in zip(graphs, blocks, got, strict=True):
            lone = on_rows(graph.LaplacianOperator(g), block)
            assert np.array_equal(part, lone) and np.array_equal(np.signbit(part), np.signbit(lone))
            ref = graph.laplacian(g) @ block
            assert np.abs(part - ref).max() <= ORDER_TOL * np.abs(ref).max()


def test_operator_of_a_union_writes_into_the_given_array(monkeypatch):
    # a lone dense graph, dense copies and a per-edge graph: each block writes
    # its columns of the caller's array, which the union returns
    monkeypatch.setattr(graph, "EDGE_PATH_NODES", 26)
    graphs = [graph.vicsek_fractal(1), *[graph.circulant(7, [1, 2])] * 2, graph.vicsek_fractal(3, directed=True)]
    op = graph.LaplacianOperator(*graphs)
    assert structure(op) == [(1, (5, 5)), (2, (7, 7)), (1, None)]
    rng = np.random.default_rng(4)
    for shape in ((3, op.n_nodes), (2, 3, op.n_nodes)):
        X, out = rng.uniform(-5, 5, shape), np.full(shape, np.nan)
        assert op(X, out=out) is out
        assert np.array_equal(out, op(X))


def test_operator_path_follows_the_node_count():
    one, other, big = graph.vicsek_fractal(2), graph.circulant(25, [1, 2]), graph.vicsek_fractal(4)
    cases = [
        # a lone graph: the dense product below EDGE_PATH_NODES, per edge from there
        ((graph.vicsek_fractal(3),), [(1, (121, 121))]),
        ((big,), [(1, None)]),
        # copies of one graph (built twice, so equal but not the same object): one block
        ((one, graph.vicsek_fractal(2), one), [(3, (25, 25))]),
        ((one,) * 20, [(20, (25, 25))]),
        # distinct graphs: a block each, each on its own graph's map, whatever the union's size
        ((one, other), [(1, (25, 25)), (1, (25, 25))]),
        ((one, other, *[one] * 17), [(1, (25, 25)), (1, (25, 25)), (17, (25, 25))]),
        ((big, one, big), [(1, None), (1, (25, 25)), (1, None)]),
        # copies of a graph of EDGE_PATH_NODES nodes or more: one block, per edge
        ((big, big), [(2, None)]),
    ]
    for graphs, blocks in cases:
        op = graph.LaplacianOperator(*graphs)
        assert structure(op) == blocks
        assert op.n_nodes == sum(g.n_nodes for g in graphs)


def test_operator_of_copies_of_one_graph_is_each_copy_alone():
    # one block applies its graph's map to every copy: each copy's rows are its
    # lone operator's, bit for bit, on (N, n) and (S, N, n), densely and per edge
    for g in (graph.circulant(30, [1, 2], directed=False), graph.vicsek_fractal(2), graph.vicsek_fractal(3),
              graph.vicsek_fractal(4)):
        lone, N1 = graph.LaplacianOperator(g), g.n_nodes
        for k, n in ((2, 3), (3, 1), (5, 4)):
            op = graph.LaplacianOperator(*[g] * k)
            assert structure(op) == [(k, structure(lone)[0][1])]
            rng = np.random.default_rng(k * n)
            for lead in ((), (4,)):
                x = rng.uniform(-5, 5, lead + (k * N1, n))
                got = on_rows(op, x)
                assert got.shape == x.shape
                for b in range(k):
                    block = x[..., b * N1 : (b + 1) * N1, :]
                    assert np.array_equal(got[..., b * N1 : (b + 1) * N1, :], on_rows(lone, block))


def weighted(g, seed):
    """g with seeded weights in [0.5, 2)."""
    w = np.random.default_rng(seed).uniform(0.5, 2.0, g.n_edges)
    return graph.WeightedDigraph(g.n_nodes, g.receivers, g.senders, w)


# one case per map, then a union of blocks mixing them: (graphs, each block's (copies, unit_tree, dense,
# parents)), each block's map asserted so that no case silently falls onto another branch
BOUND_CASES = {
    "dense": ([graph.vicsek_fractal(2)], [(1, False, True, False)]),
    "dense-copies": ([graph.circulant(7, [1, 2])] * 3, [(3, False, True, False)]),
    "tree": ([graph.vicsek_fractal(3, directed=True)], [(1, True, False, True)]),
    "tree-copies": ([graph.vicsek_fractal(1, directed=True)] * 4, [(4, True, False, True)]),
    "weighted-tree": ([weighted(graph.vicsek_fractal(4, directed=True), 1)], [(1, False, False, True)]),
    "scatter": ([graph.circulant(240, [1, 2], directed=False)], [(1, False, False, False)]),
    "union": (
        [graph.vicsek_fractal(2), *[graph.vicsek_fractal(1, directed=True)] * 2, graph.circulant(7, [1, 2]),
         weighted(graph.vicsek_fractal(4, directed=True), 2), graph.circulant(240, [1, 2], directed=False)],
        [(1, False, True, False), (2, True, False, True), (1, False, True, False), (1, False, False, True),
         (1, False, False, False)],
    ),
}


def bound_calls(op, n):
    """op's calls bound as a stage binds them: X the state rows of an (n + 1, N) array, out the first rows of a buffer."""
    S, W = np.empty((n + 1, op.n_nodes)), np.full((2 * n + 2, op.n_nodes), np.nan)
    return S[:n], W[:n], op.calls(S[:n], W[:n])


@pytest.mark.parametrize("case", BOUND_CASES)
def test_bound_calls_are_the_operator_for_the_values_they_find(case):
    # the calls bound once for (X, out) read X as it stands when they run and write out, equal to a
    # fresh op(X, out) in value and in the sign of every zero, X rewritten in place between runs
    graphs, blocks = BOUND_CASES[case]
    op = graph.LaplacianOperator(*graphs)
    got = [(b.copies, b.unit_tree, b.dense is not None, b.parents is not None) for b in op.blocks or [op]]
    assert got == blocks
    rng = np.random.default_rng(len(case))
    for n in (1, 3):
        X, out, calls = bound_calls(op, n)
        for trial in range(3):
            # a few values, so that neighbours are often equal (a zero, whose sign the maps fix),
            # and signed zeros among them; the draws change between runs
            X[:] = rng.integers(-2, 3, X.shape) * rng.choice([1.0, -1.0, 0.5], X.shape)
            X[:, trial::5] = -0.0
            for call, args in calls:
                call(*args)
            want = op(X.copy(), np.empty(X.shape))
            assert np.array_equal(out, want) and np.array_equal(np.signbit(out), np.signbit(want))


@pytest.mark.parametrize("case", ["dense", "tree", "tree-copies", "weighted-tree"])
def test_bound_calls_of_the_dense_and_gather_maps_allocate_nothing(case):
    # 100 runs of the calls on 3 state rows, densely, by the unit-weight tree's gather or by the weighted tree's
    # per-edge terms (its weights and row sums bound as (3, .) copies, so no multiply broadcasts a row), allocate
    # less than one (3, N) array
    op = graph.LaplacianOperator(*BOUND_CASES[case][0])
    X, out, calls = bound_calls(op, 3)
    X[:] = np.random.default_rng(5).uniform(-5, 5, X.shape)
    for call, args in calls:
        call(*args)
    tracemalloc.start()
    try:
        for _ in range(100):
            for call, args in calls:
                call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes


def test_digraph_validation():
    with pytest.raises(ValueError, match="positive"):
        from_matrix([[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="self-loops"):
        from_matrix([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="one length"):
        graph.WeightedDigraph(3, [0, 1], [1, 2], [1.0])
    with pytest.raises(ValueError, match="endpoints"):
        graph.WeightedDigraph(2, [0], [2], [1.0])
    with pytest.raises(ValueError, match="endpoints"):
        graph.WeightedDigraph(2, [-1], [0], [1.0])
    with pytest.raises(ValueError, match="more than once"):
        graph.WeightedDigraph(3, [1, 2, 1], [0, 0, 0], [1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        graph.WeightedDigraph(2, [1], [0], [0.0])
    with pytest.raises(ValueError, match="1 to"):
        graph.WeightedDigraph(0, [], [], [])
    for w in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            from_matrix([[0.0, w], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            graph.from_edge_list(2, [(1, 2, w)])


def test_edges_are_sorted_by_receiver_then_sender():
    g = graph.WeightedDigraph(4, [3, 1, 3, 0], [0, 2, 1, 3], [1.0, 2.0, 3.0, 4.0])
    assert g.receivers.tolist() == [0, 1, 3, 3]
    assert g.senders.tolist() == [3, 2, 0, 1]
    assert g.edge_weights.tolist() == [4.0, 2.0, 1.0, 3.0]
    r, s = np.nonzero(g.weights)  # the row-major order of the dense matrix
    assert np.array_equal(r, g.receivers) and np.array_equal(s, g.senders)


def test_weights_are_read_only():
    g = graph.vicsek_fractal(1)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0
    for edges in (g.receivers, g.senders, g.edge_weights):
        with pytest.raises(ValueError):
            edges[0] = 1


def test_spanning_tree_simple_cases():
    assert graph.has_directed_spanning_tree(graph.from_edge_list(2, [(1, 2, 1.0)]))
    assert not graph.has_directed_spanning_tree(graph.from_edge_list(2, []))
    # two disjoint pairs: locally rooted but no global root
    g = graph.from_edge_list(4, [(1, 2, 1.0), (3, 4, 1.0)])
    assert not graph.has_directed_spanning_tree(g)
    # two disjoint undirected 1,500-node rings, which a search per root took seconds to refuse
    ring = [(k + 1, (k + 1) % 1500 + 1, 1.0) for k in range(1500)]
    edges = ring + [(j, i, w) for i, j, w in ring]
    edges += [(i + 1500, j + 1500, w) for i, j, w in edges]
    assert not graph.has_directed_spanning_tree(graph.from_edge_list(3000, edges))


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
        g = from_matrix(W)
        assert graph.has_directed_spanning_tree(g) == _reachability_has_root(g)


def _rooted_by_some_search(W):
    # reference: the earlier test, one depth-first search per candidate root, O(N (N + E))
    n = W.shape[0]
    succ = [np.flatnonzero(W[:, j] > 0).tolist() for j in range(n)]
    for root in range(n):
        seen = {root}
        stack = [root]
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return True
    return False


@st.composite
def weighted_digraphs(draw):
    n = draw(st.integers(1, 10))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.1, 10.0))
    W = np.zeros((n, n))
    for i, j, w in draw(st.lists(edge, max_size=3 * n)):
        if i != j:
            W[i, j] = w
    return W


@settings(derandomize=True, deadline=None)
@given(weighted_digraphs())
def test_spanning_tree_matches_the_search_from_every_root(W):
    assert graph.has_directed_spanning_tree(from_matrix(W)) == _rooted_by_some_search(W)


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


def test_circulant_undirected_offsets_k_and_n_minus_k_coincide():
    # offset n - k is offset k the other way round: each edge is held once
    g = graph.circulant(8, [1, 7], directed=False)
    assert g.n_edges == 16
    assert np.array_equal(g.weights, graph.circulant(8, [1], directed=False).weights)
    assert np.array_equal(g.weights, graph.circulant(8, [1, 7]).weights)


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
    g = from_matrix(np.ones((n, n)) - np.eye(n))
    # complete graph on n nodes: all nonzero eigenvalues equal n
    assert graph.algebraic_connectivity(g) == pytest.approx(5.0, abs=1e-9)


def test_connectivity_two_node_pair():
    g = from_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert graph.algebraic_connectivity(g) == pytest.approx(2.0, abs=1e-12)


def test_connectivity_needs_two_nodes():
    with pytest.raises(ValueError):
        graph.algebraic_connectivity(from_matrix(np.zeros((1, 1))))


def traced_peak(build):
    """Peak bytes Python allocates while build() runs, and what it returned or raised."""
    tracemalloc.start()
    try:
        result = build()
    except ValueError as exc:
        result = exc
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak, result


def test_large_sparse_graphs_are_built_from_their_edges():
    # a dense weight matrix would take 12.8 GB for the chain and 72 MB for
    # the fractal; the edges take a few MiB
    chain = [(k, k + 1, 1.0) for k in range(1, 40000)]
    peak, g = traced_peak(lambda: graph.from_edge_list(40000, chain))
    assert g.n_edges == 39999 and peak < 16 * 2**20
    peak, g = traced_peak(lambda: graph.vicsek_fractal(5, directed=True))
    assert g.n_nodes == 3001 and peak < 4 * 2**20


@pytest.mark.parametrize(
    "g",
    [graph.vicsek_fractal(4), graph.vicsek_fractal(4, directed=True), graph.circulant(601, [1, 2], directed=False)],
    ids=["undirected-4", "directed-4", "circulant-601"],
)
def test_a_graph_holds_only_its_edges(g):
    arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 3
    assert all(a.shape == (g.n_edges,) for a in arrays)


@pytest.mark.parametrize(
    "build",
    [
        lambda: graph.vicsek_fractal(9),
        lambda: graph.vicsek_fractal(10**9, directed=True),
        lambda: graph.circulant(10**7, [1, 2]),
        lambda: graph.from_edge_list(10**8, [(1, 2, 1.0)]),
    ],
    ids=["vicsek-9", "vicsek-huge", "circulant", "edge-list"],
)
def test_node_cap_refuses_before_anything_is_built(build):
    peak, exc = traced_peak(build)
    assert isinstance(exc, ValueError) and "graph.MAX_NODES" in str(exc)
    assert peak < 2**16


def test_edge_cap_refuses_before_anything_is_built():
    # 10**9 edges would take about 80 GB; the count is refused from the offsets
    peak, exc = traced_peak(lambda: graph.circulant(10**6, range(1, 1001)))
    assert isinstance(exc, ValueError) and "graph.MAX_EDGES" in str(exc)
    assert peak < 2**16


def test_edge_cap_holds_in_the_constructor_and_the_edge_list_reader(tmp_path, monkeypatch):
    monkeypatch.setattr(graph, "MAX_EDGES", 2)
    assert graph.WeightedDigraph(3, [1, 2], [0, 1], [1.0, 1.0]).n_edges == 2
    with pytest.raises(ValueError, match=r"3 edges: .*\(graph.MAX_EDGES\)"):
        graph.WeightedDigraph(3, [1, 2, 0], [0, 1, 2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"3 edges"):
        graph.circulant(3, [1], directed=True)
    path = tmp_path / "edges.txt"
    path.write_text("nodes 3\n1 2 1.0\n2 3 1.0\n# the third edge\n3 1 1.0\n")
    # refused at the line that holds one edge too many, while the file is read
    with pytest.raises(ValueError, match=r"edges.txt:5: 3 edges: .*\(graph.MAX_EDGES\)"):
        graph.read_edge_list(path)


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
    L2 = graph.laplacian(graph.WeightedDigraph(6, perm[g.receivers], perm[g.senders], g.edge_weights))
    assert np.array_equal(L2, Pi @ graph.laplacian(g) @ Pi.T)


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
