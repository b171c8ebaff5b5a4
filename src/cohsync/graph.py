"""Weighted digraphs, Laplacians, and the topology families used by the presets."""

from collections import deque

import numpy as np


class WeightedDigraph:
    """Weighted directed graph on N nodes.

    The weight matrix uses the receiver convention: ``weights[i, j] > 0``
    means an edge from node j to node i with that weight. Nodes are 0-based
    in code; the text exchange format and agent labels are 1-based.
    """

    def __init__(self, weights):
        W = np.array(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        if W.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.all(np.isfinite(W) & (W >= 0)):
            raise ValueError("edge weights must be finite and nonnegative")
        if np.any(np.diag(W) != 0):
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        W.setflags(write=False)  # shared freely; treat as immutable
        self.weights = W

    @property
    def n_nodes(self):
        return self.weights.shape[0]

    @property
    def n_edges(self):
        return int(np.count_nonzero(self.weights))

    def __repr__(self):
        return f"WeightedDigraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def laplacian(g):
    """Graph Laplacian: l_ii = sum_k a_ik, l_ij = -a_ij for i != j.

    The diagonal is assembled as the row sum of the weight matrix, so each
    row of the result sums to zero without any floating-point subtraction
    tricks.
    """
    W = g.weights
    L = -W.copy()
    np.fill_diagonal(L, W.sum(axis=1))
    return L


# node count from which LaplacianOperator works per edge rather than densely:
# where the dense product's cost jumps on undirected circulants, the densest
# graphs timed (4 edges per node; fractals have 1 or 2, so cross earlier)
EDGE_PATH_NODES = 450


class LaplacianOperator:
    """The map x -> L x of one graph, for states of shape (..., N, n).

    Given several graphs it is the map of their disjoint union: node i of
    the k-th graph is node i plus the earlier graphs' node count, so L is
    block-diagonal and each block acts on its own graph's rows alone.
    Below EDGE_PATH_NODES nodes in all it is the dense product with that
    L, whose zeros off the blocks are -0.0 like laplacian's own.
    From there on it costs O(E n) whatever the in-degrees: it gathers the
    senders' rows times the negated weights, scatters them onto the
    receivers with one np.bincount per state column, and adds the row
    sums times x. Where every node has at most one in-neighbour both ways
    round once per entry and agree bit for bit; elsewhere they sum in a
    different order.
    """

    def __init__(self, *graphs):
        offsets = np.cumsum([0] + [g.n_nodes for g in graphs])
        self.n_nodes = N = int(offsets[-1])
        if N < EDGE_PATH_NODES:
            self.dense = np.full((N, N), -0.0)
            for g, lo in zip(graphs, offsets):
                self.dense[lo : lo + g.n_nodes, lo : lo + g.n_nodes] = laplacian(g)
            return
        self.dense = None
        receivers, senders, neg_weights, row_sums = [], [], [], []
        for g, lo in zip(graphs, offsets):
            W = g.weights
            r, s = np.nonzero(W)
            receivers.append(r + lo)
            senders.append(s + lo)
            neg_weights.append(-W[r, s])
            row_sums.append(W.sum(axis=1))
        self.receivers = np.concatenate(receivers)
        self.senders = np.concatenate(senders)
        self.neg_weights = np.concatenate(neg_weights)[:, None]
        self.row_sums = np.concatenate(row_sums)[:, None]

    def __call__(self, x):
        if self.dense is not None:
            return self.dense @ x
        N = self.n_nodes
        n = x.shape[-1]
        stack = x.reshape(-1, N, n)
        S = stack.shape[0]
        # sample s, receiver i lands in bin s*N + i
        bins = (self.receivers + N * np.arange(S)[:, None]).reshape(-1)
        terms = np.take(stack, self.senders, axis=1)
        terms *= self.neg_weights
        terms = terms.reshape(-1, n)
        out = np.empty((S * N, n))
        for c in range(n):
            out[:, c] = np.bincount(bins, terms[:, c], minlength=S * N)
        # the bins start at +0.0, so a node without in-edges gets +0.0 + 0*x, as densely
        out = out.reshape(x.shape)
        out += self.row_sums * x
        return out


def _successors(W):
    # adjacency lists in travel direction: from j you can reach any i
    # with W[i, j] > 0
    n = W.shape[0]
    rows, cols = np.nonzero(W > 0)
    out = [[] for _ in range(n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
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
    succ = _successors(g.weights)
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


def _orient_from(W, root):
    # breadth-first arborescence: keep only tree edges, pointed away from
    # the root; receiver convention puts W[child, parent] = 1. W is
    # symmetric, so each node's successors are its neighbours, ascending
    A = np.zeros_like(W)
    for child, parent in _search(_successors(W), root, bytearray(W.shape[0])):
        A[child, parent] = 1.0
    return A


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
    cells = _vicsek_cells(int(generation))
    index = {c: k for k, c in enumerate(cells)}
    n = len(cells)
    W = np.zeros((n, n))
    for x, y in cells:
        i = index[(x, y)]
        for nb in ((x + 1, y), (x, y + 1)):
            j = index.get(nb)
            if j is not None:
                W[i, j] = W[j, i] = 1.0
    if directed:
        W = _orient_from(W, index[(0, 0)])
    return WeightedDigraph(W)


def circulant(n, offsets, directed=True):
    """Ring-with-skips family: node i receives an edge from node (i+k) mod n.

    One edge per offset k, unit weights. The undirected variant
    symmetrizes the weight matrix.
    """
    if n < 2:
        raise ValueError("circulant graph needs n >= 2")
    offs = sorted({int(k) for k in offsets})
    if not offs:
        raise ValueError("offset set must be nonempty")
    if offs[0] < 1 or offs[-1] > n - 1:
        raise ValueError(f"offsets must lie in [1, {n - 1}]")
    W = np.zeros((n, n))
    i = np.arange(n)
    for k in offs:
        W[i, (i + k) % n] = 1.0
        if not directed:
            W[(i + k) % n, i] = 1.0
    return WeightedDigraph(W)


def from_edge_list(n, edges):
    """Graph from (from, to, weight) triples with 1-based node indices.

    Duplicate edges keep the last weight. Self-loops, out-of-range
    indices, and nonpositive or non-finite weights are rejected.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    try:
        W = np.zeros((n, n))
    except MemoryError:
        raise ValueError(f"{n} nodes need a dense {n} x {n} weight matrix, which cannot be allocated") from None
    for src, dst, w in edges:
        if not (1 <= src <= n and 1 <= dst <= n):
            raise ValueError(f"edge ({src}, {dst}): node index out of range 1..{n}")
        if src == dst:
            raise ValueError(f"edge ({src}, {dst}): self-loops are not allowed")
        if w <= 0:
            raise ValueError(f"edge ({src}, {dst}): weight must be positive")
        W[dst - 1, src - 1] = float(w)
    return WeightedDigraph(W)


def relabel(g, perm):
    """Relabeled copy of g: node i becomes node perm[i] (0-based)."""
    perm = np.asarray(perm, dtype=int)
    n = g.n_nodes
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    W = np.zeros_like(g.weights)
    W[np.ix_(perm, perm)] = g.weights
    return WeightedDigraph(W)


def write_edge_list(g, path):
    """Write the plain-text exchange format.

    First line is ``nodes N``; each edge follows as ``from to weight``
    with 1-based indices.
    """
    W = g.weights
    lines = [f"nodes {g.n_nodes}"]
    # nonzero scans row-major, so edges come out by receiver, then sender
    lines += [f"{j + 1} {i + 1} {W[i, j].item()!r}" for i, j in zip(*np.nonzero(W > 0))]
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
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if n is None:
        raise ValueError(f"{path}: missing `nodes N` header")
    return from_edge_list(n, edges)
