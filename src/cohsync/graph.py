"""Weighted digraphs, Laplacians, and the topology families used by the presets."""

from collections import deque

import numpy as np


# the most nodes a graph may have: a node count arrives as one number (an edge
# list's header, a generator's argument) and is refused before anything is built
MAX_NODES = 10**6
# the most edges a graph may have: every generator's output at MAX_NODES and
# the presets' degree fits (undirected vicsek generation 8 has 750,000); an
# edge count is refused before its edges are built
MAX_EDGES = 4 * 10**6


def _node_count(n):
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"{n} nodes: a graph has 1 to {MAX_NODES} nodes (graph.MAX_NODES)")
    return int(n)


def _edge_count(e):
    if e > MAX_EDGES:
        raise ValueError(f"{e} edges: a graph has at most {MAX_EDGES} edges (graph.MAX_EDGES)")


class WeightedDigraph:
    """Weighted directed graph on N nodes, held as its edges.

    Edge k runs from node senders[k] to node receivers[k] with weight
    edge_weights[k] > 0, sorted by receiver, then sender: the row-major
    order of the weight matrix, where weights[i, j] > 0 means an edge from
    node j to node i. Nodes are 0-based in code; the text exchange format
    and agent labels are 1-based.
    """

    def __init__(self, n, receivers, senders, weights):
        self.n_nodes = n = _node_count(n)
        _edge_count(len(receivers))
        r = np.array(receivers, dtype=np.intp)
        s = np.array(senders, dtype=np.intp)
        w = np.array(weights, dtype=float)
        if not (r.ndim == 1 and r.shape == s.shape == w.shape):
            raise ValueError("receivers, senders and weights must be 1-D and of one length")
        if r.size and not (0 <= min(r.min(), s.min()) and max(r.max(), s.max()) < n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("edge weights must be finite and positive")
        if np.any(r == s):
            raise ValueError("self-loops are not allowed")
        order = np.argsort(r * n + s)
        if np.any(np.diff((r * n + s)[order]) == 0):
            raise ValueError("an edge is given more than once")
        self.receivers, self.senders, self.edge_weights = r[order], s[order], w[order]
        self.n_edges = r.size
        for a in (self.receivers, self.senders, self.edge_weights):
            a.setflags(write=False)  # shared freely; treat as immutable

    @property
    def weights(self):
        """The dense N x N weight matrix, built on each access (read-only)."""
        W = np.zeros((self.n_nodes, self.n_nodes))
        W[self.receivers, self.senders] = self.edge_weights
        W.setflags(write=False)
        return W


def laplacian(g):
    """Dense graph Laplacian: l_ii = sum_k a_ik, l_ij = -a_ij for i != j.

    The diagonal is the row sum of the weight matrix, so each row of the
    result sums to zero without floating-point subtraction tricks.
    """
    W = g.weights
    L = -W
    np.fill_diagonal(L, W.sum(axis=1))
    return L


DOT = getattr(np.dot, "_implementation", np.dot)  # np.dot's C function, less a dispatcher's Python frame (0.4 us)
# node count from which LaplacianOperator works per edge rather than densely (np.dot); per call on
# (3, N) states of the undirected circulant [1, 2] (timeit, one vCPU, OpenBLAS on 1 thread, mean over
# 8 node counts), dense against per edge: 13.2 against 13.8 us at 200-207 nodes, 15.0 against 14.6
# at 216-223, 20.1 against 15.8 at 248-255, 29.4 against 18.6 at 300-307; they cross near 220
EDGE_PATH_NODES = 224
# nodes from which a lone unit-weight tree gathers x_i - x_parent (copies gather at any count: 8 copies of the
# 5-node star took 3.44 us densely); per call on (3, N) states, dense against gather (min of 7 x 20,000): 1.45
# against 1.81 us at 36 nodes, 2.29 against 1.96 at 48, 4.72 against 2.40 at 121; 40 to 46 lie in the noise
TREE_GATHER_COLUMNS = 48


class LaplacianOperator:
    """The map X -> X L' of one graph, or of a disjoint union of graphs, for states X of shape (..., n, N).

    Column i of X is agent i's state; in a union, node i of the k-th graph
    is column i plus the earlier graphs' node count. Consecutive equal
    graphs (the same weighted edges) form a block, which maps each copy's
    columns by its graph's own map; a union holds one operator per block in
    blocks, each writing its columns of one output, so every graph gets its
    lone operator's values bit for bit. A graph's map follows its node count:

    - below EDGE_PATH_NODES, the dense product with L', held contiguous:
      exactly one X @ L' for a lone graph, one per copy for copies;
    - from there on, O(E n), over every copy at once (node i of copy k is
      column k N + i): the row sums times X, plus each node's edge terms,
      the senders' columns times the negated weights, summed from +0.0.
      Where no node has two in-neighbours (a directed tree, as every
      directed fractal) that is one take of each node's parent, weight 0 at
      a root, plus +0.0, which turns a -0.0 term into +0.0 as a bin does; it
      rounds as the dense product does. Elsewhere np.add.at adds every row's
      terms into the receivers' bins, zeroed first, in sorted edge order.

    Copies of a unit-weight tree, or a lone one of TREE_GATHER_COLUMNS nodes,
    take neither: they gather the parents into out, subtract them from X and
    add +0.0, the scatter's bits in three calls (+0.0 at a root).
    """

    def __init__(self, *graphs):
        # where each run of consecutive equal graphs starts, and the end
        starts = [k for k, g in enumerate(graphs) if k == 0 or not _same_edges(g, graphs[k - 1])] + [len(graphs)]
        self.n_nodes = sum(g.n_nodes for g in graphs)
        self.blocks = []  # empty when the operator is one block
        if len(starts) > 2:
            self.blocks = [LaplacianOperator(*graphs[lo:hi]) for lo, hi in zip(starts, starts[1:])]
            self.cols = np.cumsum([0] + [b.n_nodes for b in self.blocks]).tolist()
            return
        g = self.graph = graphs[0]
        self.copies = len(graphs)
        tree = bool(np.all(np.diff(g.receivers) > 0))  # sorted: no receiver twice
        self.unit_tree = tree and (self.copies > 1 or g.n_nodes >= TREE_GATHER_COLUMNS) and np.all(g.edge_weights == 1)
        self.zero = np.array(0.0)  # +0.0, a 0-d operand: a Python float costs the ufunc more to convert
        dense = g.n_nodes < EDGE_PATH_NODES and not self.unit_tree
        self.dense = np.ascontiguousarray(laplacian(g).T) if dense else None
        self.parents = None  # on a tree's gather (per edge or unit-weight), each column's one in-neighbour's column
        if self.dense is None:  # node i of the k-th copy is column k*N + i and hears columns of its copy
            senders, weights = g.senders, -g.edge_weights
            if tree:  # one term per column, its parent's; a root's is its own, with weight 0
                senders, weights = np.arange(g.n_nodes), np.zeros(g.n_nodes)
                senders[g.receivers], weights[g.receivers] = g.senders, -g.edge_weights
            offsets = g.n_nodes * np.arange(self.copies)[:, None]
            self.senders, self.receivers = ((a + offsets).reshape(-1) for a in (senders, g.receivers))
            self.parents = self.senders if tree else None
            self.neg_weights = np.tile(weights, self.copies)
            self.row_sums = np.tile(np.bincount(g.receivers, g.edge_weights, minlength=g.n_nodes), self.copies)

    def __call__(self, X, out=None):
        """X L' for X of shape (..., n, N), written into out when it is given."""
        out = np.empty(X.shape) if out is None else out
        for call, args in self.calls(X, out):
            call(*args)
        return out

    def calls(self, X, out):
        """X -> X L' into out as (NumPy function, arguments) pairs, called in turn, every operand, scratch array
        and out bound, positionally: they run no Python frame and, densely or on a unit tree, allocate nothing.
        Each map is defined here once; __call__ runs these, and an RK4 stage binds them once for its arrays."""
        if self.blocks:
            spans = zip(self.blocks, self.cols, self.cols[1:])
            return [c for b, lo, hi in spans for c in b.calls(X[..., lo:hi], out[..., lo:hi])]
        add, multiply, subtract = np.add, np.multiply, np.subtract
        if self.unit_tree:  # x_i - x_parent, then +0.0 for a -0.0; mode "clip" lets take write out unbuffered
            return [(X.take, (self.parents, -1, out, "clip")), (subtract, (X, out, out)), (add, (out, self.zero, out))]
        if self.dense is None:  # row sums times X, plus the senders' columns times the negated weights, from +0.0
            terms = np.empty(X.shape[:-1] + self.senders.shape)
            neg_weights, row_sums = self.neg_weights, self.row_sums
            if X.ndim == 2:  # (n, .) copies: NumPy buffers a multiply that broadcasts an (N,) row, on every call
                neg_weights, row_sums = (np.tile(a, (X.shape[0], 1)) for a in (neg_weights, row_sums))
            if self.parents is not None:  # a term per column, + 0.0: a root gets 0*x + +0.0, as densely
                sums, summed = terms, [(add, (terms, self.zero, terms))]
            else:  # each bin (row r, receiver column i: r*N + i) adds its edges' terms in sorted order to +0.0
                sums = np.empty(X.shape)
                bins = (self.receivers + X.shape[-1] * np.arange(X.size // X.shape[-1])[:, None]).reshape(-1)
                summed = [(sums.fill, (0.0,)), (np.add.at, (sums.reshape(-1), bins, terms.reshape(-1)))]
            return [(X.take, (self.senders, -1, terms, "clip")), (multiply, (terms, neg_weights, terms)),
                    *summed, (multiply, (row_sums, X, out)), (add, (out, sums, out))]
        if self.copies == 1:  # exactly one X @ L'; np.dot: the same GEMM, called faster
            return [(DOT if X.ndim == 2 and out.flags.c_contiguous else np.matmul, (X, self.dense, out))]
        # one product per copy (views split the copies off the node axis): one of all rows rounds otherwise at n = 1
        shape = X.shape[:-1] + (self.copies, self.graph.n_nodes)
        return [(np.matmul, (X.reshape(shape).swapaxes(-2, -3), self.dense, out.reshape(shape).swapaxes(-2, -3)))]


def _same_edges(g, h):
    # one graph twice: the same node count and the same (sorted) weighted edges
    return g is h or (
        g.n_nodes == h.n_nodes
        and np.array_equal(g.receivers, h.receivers)
        and np.array_equal(g.senders, h.senders)
        and np.array_equal(g.edge_weights, h.edge_weights)
    )


def _successors(g):
    # adjacency lists in travel direction, ascending: a sender reaches its receivers
    out = [[] for _ in range(g.n_nodes)]
    for i, j in zip(g.receivers.tolist(), g.senders.tolist()):
        out[j].append(i)
    return out


def _search(succ, root, seen):
    # breadth-first from root through nodes not yet seen: marks each node
    # it reaches and returns the tree edges (child, parent) in visiting order
    seen[root] = 1
    edges = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if not seen[v]:
                seen[v] = 1
                edges.append((v, u))
                queue.append(v)
    return edges


def has_directed_spanning_tree(g):
    """True if some root node has a directed path to every other node.

    Searches from each node not yet reached, in turn. The reached set stays
    closed under successors, so if any node reaches every other, the last
    start does; one more search from it decides, in O(N + E).
    """
    n = g.n_nodes
    succ = _successors(g)
    seen = bytearray(n)
    last = 0
    for root in range(n):
        if not seen[root]:
            _search(succ, root, seen)
            last = root
    return len(_search(succ, last, bytearray(n))) == n - 1


def algebraic_connectivity(g):
    """Real part of the Laplacian eigenvalue with second-smallest real part.

    For undirected graphs this is the classical Fiedler value. The zero
    eigenvalue (consensus mode) sorts first; the returned eigenvalue
    governs the slowest disagreement mode.
    """
    if g.n_nodes < 2:
        raise ValueError("algebraic connectivity needs at least 2 nodes")
    L = laplacian(g)
    try:
        if np.array_equal(L, L.T):
            ev = np.linalg.eigvalsh(L)
        else:
            ev = np.linalg.eigvals(L).real
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Laplacian eigensolver failed: {exc}") from exc
    return float(np.sort(ev)[1])


def _vicsek_cells(generation):
    # plus-shaped clusters of unit cells on the integer lattice
    cells = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    half = 1
    for gen in range(2, generation + 1):
        # generation 2 leaves facing corner cells one lattice step apart,
        # so the copies are joined by a bridge edge; later generations put
        # the facing corners on the same site, so each junction collapses
        # into a single shared node
        off = 2 * half + 1 if gen == 2 else 2 * half
        shifts = ((0, 0), (off, 0), (-off, 0), (0, off), (0, -off))
        cells = {(x + sx, y + sy) for sx, sy in shifts for x, y in cells}
        half += off
    return sorted(cells)


def vicsek_fractal(generation, directed=False):
    """Fractal plus-of-pluses graph family with unit edge weights.

    Generation 1 is a five-node star (a center cell and its four lattice
    neighbours). Each later generation assembles five copies of the
    previous one in a plus shape: the second generation connects facing
    corner cells with a single bridge edge, and from the third generation
    on the facing corners land on the same lattice site and merge into one
    shared junction node. Node counts therefore run 5, 25, 121, 601, ...
    and the algebraic connectivity collapses quickly with generation,
    which is what makes the family a stress test for synchronization.

    Parameters
    ----------
    generation : int
        Fractal generation, >= 1.
    directed : bool
        If True, orient every edge away from the global center along the
        breadth-first tree, so the center is the root of a directed
        spanning tree and has no incoming edges.
    """
    if not isinstance(generation, (int, np.integer)) or generation < 1:
        raise ValueError("generation must be a positive integer")
    n = 5  # five copies per generation, four junctions merged from the third on
    for gen in range(2, int(generation) + 1):
        n = 5 * n - 4 * (gen > 2)
        if n > MAX_NODES:
            raise ValueError(f"generation {generation} has over {MAX_NODES} nodes (graph.MAX_NODES)")
    cells = _vicsek_cells(int(generation))
    index = {c: k for k, c in enumerate(cells)}
    # each cell's lattice neighbours, ascending: cells sort by (x, y), so
    # (x - 1, y) < (x, y - 1) < (x, y + 1) < (x + 1, y) are appended in turn
    nbrs = [[] for _ in cells]
    for i, (x, y) in enumerate(cells):
        for nb in ((x, y + 1), (x + 1, y)):
            j = index.get(nb)
            if j is not None:
                nbrs[i].append(j)
                nbrs[j].append(i)
    if directed:  # the breadth-first arborescence, pointed away from the center
        children, parents = zip(*_search(nbrs, index[(0, 0)], bytearray(n)))
    else:
        children = [i for i, js in enumerate(nbrs) for _ in js]
        parents = [j for js in nbrs for j in js]
    return WeightedDigraph(n, children, parents, np.ones(len(children)))


def circulant(n, offsets, directed=True):
    """Ring-with-skips family: node i receives an edge from node (i+k) mod n.

    One edge per offset k, unit weights. The undirected variant
    symmetrizes the weight matrix.
    """
    if n < 2:
        raise ValueError("circulant graph needs n >= 2")
    n = _node_count(n)
    offs = {int(k) for k in offsets}
    if not offs:
        raise ValueError("offset set must be nonempty")
    if min(offs) < 1 or max(offs) > n - 1:
        raise ValueError(f"offsets must lie in [1, {n - 1}]")
    if not directed:
        offs |= {n - k for k in offs}  # node i + k hears node i: offset n - k
    _edge_count(n * len(offs))
    i = np.arange(n)
    senders = np.concatenate([(i + k) % n for k in offs])
    return WeightedDigraph(n, np.tile(i, len(offs)), senders, np.ones(senders.size))


def from_edge_list(n, edges):
    """Graph from (from, to, weight) triples with 1-based node indices.

    Duplicate edges keep the last weight. Self-loops, out-of-range
    indices, and nonpositive or non-finite weights are rejected.
    """
    n = _node_count(n)
    W = {}  # (receiver, sender) -> weight
    for src, dst, w in edges:
        if not (1 <= src <= n and 1 <= dst <= n):
            raise ValueError(f"edge ({src}, {dst}): node index out of range 1..{n}")
        if src == dst:
            raise ValueError(f"edge ({src}, {dst}): self-loops are not allowed")
        if w <= 0:
            raise ValueError(f"edge ({src}, {dst}): weight must be positive")
        W[dst - 1, src - 1] = float(w)
    return WeightedDigraph(n, [i for i, _ in W], [j for _, j in W], list(W.values()))


def write_edge_list(g, path):
    """Write the plain-text exchange format.

    First line is ``nodes N``; each edge follows as ``from to weight``
    with 1-based indices.
    """
    lines = [f"nodes {g.n_nodes}"]
    # the edges are sorted, so they come out by receiver, then sender
    edges = zip(g.receivers.tolist(), g.senders.tolist(), g.edge_weights.tolist())
    lines += [f"{j + 1} {i + 1} {w!r}" for i, j, w in edges]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path):
    """Parse the exchange format written by write_edge_list.

    ``#`` starts a comment (full-line or trailing); the first real line
    must be ``nodes N``.
    """
    n = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if n is None:
                    if len(parts) != 2 or parts[0] != "nodes":
                        raise ValueError("expected `nodes N` header")
                    n = int(parts[1])
                    continue
                if len(parts) != 3:
                    raise ValueError("expected `from to weight`")
                _edge_count(len(edges) + 1)
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if n is None:
        raise ValueError(f"{path}: missing `nodes N` header")
    return from_edge_list(n, edges)
