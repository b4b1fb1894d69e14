"""The connectivity kernel against the breadth-first search and the union-find
it replaced, in blocks of any size, and its round bound; the whole-graph first
split against the components of each induced cluster, and its memory; the
induced subgraph against a set-based reference; the min cut on rows given in
any order, and against the solver that also offered each ordering's phase cut."""

import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wellconn import _kernels
from wellconn._engine import first_split
from wellconn.clustering import Clustering
from wellconn.gadgets import GadgetSpec, generate
from wellconn.graph import Graph, split_by_label


def bfs_labels(indptr, adj):
    """The breadth-first search `connected_labels` used to run."""
    n = len(indptr) - 1
    ip = indptr.tolist()
    nb = adj.tolist()
    labels = [-1] * n
    comp = 0
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = comp
        queue = [root]
        for v in queue:
            for u in nb[ip[v] : ip[v + 1]]:
                if labels[u] < 0:
                    labels[u] = comp
                    queue.append(u)
        comp += 1
    return np.array(labels, np.int64)


def reference_first_appearance_ids(keys):
    """The ranking `Clustering.from_assignment` ran on `np.unique`."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(first), np.int64)
    rank[by_first] = np.arange(len(first))
    return rank[inverse], distinct[by_first]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([(np.int64, -(2**63), 2**63 - 1), (np.int64, -3, 3),
                     (np.uint64, 0, 2**64 - 1), (np.uint64, 2**64 - 4, 2**64 - 1)])
    .flatmap(lambda kind: st.lists(st.integers(kind[1], kind[2]), max_size=60)
             .map(lambda values: np.array(values, kind[0])))
)
@example(np.array([], np.int64))
@example(np.array([], np.uint64))
def test_first_appearance_ids_match_unique(keys):
    ids, distinct = _kernels.first_appearance_ids(keys)
    expected_ids, expected_distinct = reference_first_appearance_ids(keys)
    assert ids.dtype == np.int64 and distinct.dtype == keys.dtype
    assert ids.tolist() == expected_ids.tolist()
    assert distinct.tolist() == expected_distinct.tolist()


def union_smaller(nv, pairs):
    """The union-find the min cut's contraction used to run."""
    up = list(range(nv))

    def find(x):
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for a, b in pairs:
        a = find(a)
        b = find(b)
        if a < b:
            up[b] = a
        elif b < a:
            up[a] = b
    return np.array([find(x) for x in range(nv)], np.int64)


def csr_of(n, edges):
    """Both directions of every edge, duplicates kept, as (indptr, int32 adj)."""
    e = np.array(edges, np.int64).reshape(-1, 2)
    src = np.concatenate((e[:, 0], e[:, 1]))
    dst = np.concatenate((e[:, 1], e[:, 0]))
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order].astype(np.int32)


def path_order(kind, n, rng):
    """Node ids along a path: in order, shuffled or zig-zag (0, n-1, 1, n-2, ...)."""
    if kind == "in-order":
        return np.arange(n)
    if kind == "shuffled":
        return rng.permutation(n)
    zig = np.empty(n, np.int64)
    zig[0::2] = np.arange((n + 1) // 2)
    zig[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return zig


def path_pairs(order):
    return np.stack((order[:-1], order[1:]), 1)


def random_tree_pairs(n, rng):
    """Each node after the first joins an earlier one; ids shuffled."""
    ids = rng.permutation(n)
    parent = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    return np.stack((ids[1:], ids[parent]), 1)


@st.composite
def graphs(draw):
    """Multigraphs with isolated nodes, and long paths in three id orders."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["multigraph", "in-order", "shuffled", "zig-zag"]))
    if kind == "multigraph":
        n = draw(st.integers(0, 60))
        m = draw(st.integers(0, 2 * n)) if n else 0
        edges = rng.integers(0, n, (m, 2)) if n else np.zeros((0, 2), np.int64)
        return n, edges
    n = draw(st.sampled_from([0, 1, 2, 3, 1000, 4097]))
    return n, path_pairs(path_order(kind, n, rng))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs())
@example((0, np.zeros((0, 2), np.int64)))
@example((1, np.zeros((0, 2), np.int64)))
@example((1, np.zeros((2, 2), np.int64)))
def test_connected_labels_match_bfs(graph):
    n, edges = graph
    indptr, adj = csr_of(n, edges)
    got = _kernels.connected_labels(indptr, adj)
    assert got.tolist() == bfs_labels(indptr, adj).tolist()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.sampled_from([1, 3, 64]))
def test_component_labels_in_small_blocks(graph, block):
    # each round relabels the kept edges block by block, into arrays of the
    # kernel's own: the caller's arrays are only read
    n, edges = graph
    if block == 1:
        edges = edges[:200]
    a, b = (np.array(col) for col in np.array(edges, np.int64).reshape(-1, 2).T)
    before = a.tolist(), b.tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_LABEL_BLOCK", block)
        got = _kernels.component_labels(n, a, b)
    assert got.tolist() == bfs_labels(*csr_of(n, edges)).tolist()
    assert (a.tolist(), b.tolist()) == before


def test_first_split_memory_bound():
    # the kernel reads the caller's edge arrays and relabels block by block
    # into two of its own: about 41 bytes per edge at the peak, against 50
    # when its first round copied the edge arrays whole, four times
    n, m, size = 20000, 100000, 2000
    rng = np.random.default_rng(9)
    u = rng.integers(0, n, m)
    v = u // size * size + rng.integers(0, size, m)
    g = Graph.from_edges(n, np.stack((u, v), 1))
    c = Clustering.from_assignment(np.arange(n) // size)
    tracemalloc.start()
    try:
        first_split(g, c, degrees=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.m <= 45


@st.composite
def contractions(draw):
    """(nv, last, prev, pairs) as the min cut's contraction step sees them."""
    nv = draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    last, prev = draw(pair)
    return nv, last, prev, draw(st.lists(pair, max_size=3 * nv))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(contractions())
@example((1, 0, 0, []))
@example((2, 1, 0, []))
@example((3, 2, 0, [(1, 1)]))
def test_contraction_matches_union_find(contraction):
    nv, last, prev, pairs = contraction
    rep = union_smaller(nv, [(last, prev), *pairs])
    is_root = rep == np.arange(nv)
    expected = (np.cumsum(is_root) - 1)[rep]
    src = np.array([a for a, _ in pairs], np.int64)
    dst = np.array([b for _, b in pairs], np.int64)
    got = _kernels.component_labels(nv, np.append(src, last), np.append(dst, prev))
    assert got.tolist() == expected.tolist()


class RoundCountingNumpy:
    """numpy, except that `minimum.at` is counted: two calls hook one round."""

    def __init__(self):
        self.rounds = 0
        counter = self

        class Minimum:
            __call__ = staticmethod(np.minimum)

            @staticmethod
            def at(*args):
                counter.rounds += 0.5
                return np.minimum.at(*args)

        self.minimum = Minimum()

    def __getattr__(self, name):
        return getattr(np, name)


def test_round_bound(monkeypatch):
    n = 2**16
    rng = np.random.default_rng(2026)
    star_ids = rng.permutation(n)
    families = {
        "shuffled path": path_pairs(path_order("shuffled", n, rng)),
        "zig-zag path": path_pairs(path_order("zig-zag", n, rng)),
        "random tree": random_tree_pairs(n, rng),
        "star": np.stack((np.full(n - 1, star_ids[0]), star_ids[1:]), 1),
    }
    bound = 2 * math.ceil(math.log2(n)) + 1
    for name, pairs in families.items():
        counting = RoundCountingNumpy()
        monkeypatch.setattr(_kernels, "np", counting)
        labels = _kernels.component_labels(n, pairs[:, 0], pairs[:, 1])
        monkeypatch.undo()
        assert labels.tolist() == [0] * n, name
        assert 1 <= counting.rounds <= bound, (name, counting.rounds)


@st.composite
def clustered_graphs(draw):
    """A multigraph with isolated nodes, a clustering of it, and an adj dtype."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 50))
    m = draw(st.integers(0, 2 * n)) if n else 0
    edges = rng.integers(0, n, (m, 2)) if n else np.zeros((0, 2), np.int64)
    kind = draw(st.sampled_from(["random", "singletons", "one"]))
    if kind == "random":
        assignment = rng.integers(0, draw(st.integers(1, 8)), n)
    elif kind == "singletons":
        assignment = np.arange(n)
    else:
        assignment = np.zeros(n, np.int64)
    return n, edges, assignment, draw(st.sampled_from([np.int32, np.int64]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clustered_graphs())
@example((0, np.zeros((0, 2), np.int64), np.zeros(0, np.int64), np.int32))
@example((3, np.zeros((0, 2), np.int64), np.zeros(3, np.int64), np.int64))
def test_first_split_matches_each_cluster_alone(case):
    n, edges, assignment, dtype = case
    indptr, adj = csr_of(n, edges)
    adj = adj.astype(dtype)
    c = Clustering.from_assignment(assignment)
    g = Graph(indptr, adj, [str(v) for v in range(n)])
    piece, owner, degree = first_split(g, c, degrees=True)
    assert first_split(g, c)[2] is None
    # pieces are numbered 0..p-1 in order of their smallest node
    labels, first = np.unique(piece, return_index=True)
    assert labels.tolist() == list(range(len(owner)))
    assert (np.diff(first) > 0).all()
    assert owner[piece].tolist() == c.assignment.tolist()
    for members in c.clusters:
        si, sa = _kernels.induced_csr(indptr, adj, members)
        alone = _kernels.connected_labels(si, sa)
        # the cluster's pieces, ranked by label, are its own components
        ranked = np.unique(piece[members], return_inverse=True)[1]
        assert ranked.tolist() == alone.tolist()
        # the degrees are the induced rows' lengths, self-loops left out
        rows = np.repeat(np.arange(len(members)), np.diff(si))
        own = np.bincount(rows[sa != rows], minlength=len(members))
        assert degree[members].tolist() == own.tolist()


def induced_reference(indptr, adj, nodes):
    """Rows of the subgraph induced by `nodes`, each in the given row order."""
    local = {v: i for i, v in enumerate(nodes)}
    return [
        [local[u] for u in adj[indptr[v] : indptr[v + 1]].tolist() if u in local]
        for v in nodes
    ]


@st.composite
def induced_cases(draw):
    """A multigraph with isolated nodes and two sorted node subsets of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 50))
    m = draw(st.integers(0, 2 * n))
    edges = rng.integers(0, n, (m, 2))
    subsets = []
    for _ in range(2):
        kind = draw(st.sampled_from(["random", "empty", "one", "all"]))
        if kind == "random":
            nodes = np.flatnonzero(rng.random(n) < rng.random())
        elif kind == "empty":
            nodes = np.zeros(0, np.int64)
        elif kind == "one":
            nodes = np.array([rng.integers(n)], np.int64)
        else:
            nodes = np.arange(n, dtype=np.int64)
        subsets.append(nodes)
    return n, edges, subsets


@settings(max_examples=300, deadline=None, derandomize=True)
@given(induced_cases())
@example((5, np.array([[0, 1], [1, 2]]), [np.arange(5), np.array([1, 3, 4])]))
def test_induced_csr_matches_reference(case):
    n, edges, subsets = case
    indptr, adj = csr_of(n, edges)
    # two calls in a row on one graph: nothing may carry over between them
    for nodes in subsets:
        sub_indptr, sub_adj = _kernels.induced_csr(indptr, adj, nodes)
        assert sub_indptr.dtype == np.int64 and sub_adj.dtype == np.int32
        assert len(sub_indptr) == len(nodes) + 1 and sub_indptr[0] == 0
        rows = [
            sub_adj[sub_indptr[i] : sub_indptr[i + 1]].tolist()
            for i in range(len(nodes))
        ]
        assert rows == induced_reference(indptr, adj, nodes)


@st.composite
def connected_graphs(draw):
    """Connected simple graphs on shuffled ids: random graphs over a path, and
    dense blocks in a ring, where tied cuts lie below the minimum degree."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(len(iu)) < draw(st.sampled_from([0.05, 0.2, 0.5]))
        pairs = [np.stack((iu[keep], ju[keep]), 1), path_pairs(np.arange(n))]
    else:
        sizes = rng.integers(4, 10, draw(st.integers(2, 5)))
        starts = np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        pairs = []
        for b, (start, size) in enumerate(zip(starts, sizes)):
            iu, ju = np.triu_indices(size, 1)
            keep = rng.random(len(iu)) < 0.8
            pairs.append(start + np.stack((iu[keep], ju[keep]), 1))
            pairs.append(start + path_pairs(np.arange(size)))
            following = starts[(b + 1) % len(sizes)]
            joins = np.arange(rng.integers(1, 3))  # ring joins of 1 or 2 edges
            pairs.append(np.stack((start + joins, following + len(joins) + joins), 1))
    ids = rng.permutation(n)
    pairs = ids[np.concatenate(pairs)]
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return n, np.unique(np.sort(pairs, 1), axis=0), rng


@settings(max_examples=200, deadline=None, derandomize=True)
@given(connected_graphs())
def test_min_cut_ignores_row_order(case):
    n, pairs, rng = case
    indptr, adj = csr_of(n, pairs)
    for v in range(n):  # ascending rows, as a Graph holds them
        adj[indptr[v] : indptr[v + 1]].sort()
    value, side = _kernels.min_cut_csr(indptr, adj)
    shuffled = adj.copy()
    for v in range(n):
        rng.shuffle(shuffled[indptr[v] : indptr[v + 1]])
    got_value, got_side = _kernels.min_cut_csr(indptr, shuffled)
    assert value > 0
    assert (got_value, got_side.tolist()) == (value, side.tolist())


def assert_min_cut_sides_connected(indptr, adj):
    """Each side of a global minimum cut of a connected graph is connected."""
    value, side = _kernels.min_cut_csr(indptr, adj)
    assert value > 0
    for part in (side, ~side):
        si, sa = _kernels.induced_csr(indptr, adj, np.flatnonzero(part))
        assert bfs_labels(si, sa).max() == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(connected_graphs())
def test_min_cut_sides_are_connected(case):
    n, pairs, _ = case
    assert_min_cut_sides_connected(*csr_of(n, pairs))


@pytest.mark.parametrize("spec", [
    GadgetSpec(kind="bridged-cliques", num_cliques=k, clique_size=s, bridges=b)
    for k, s, b in ((2, 5, 1), (4, 6, 1), (5, 5, 2), (6, 8, 3))
] + [
    GadgetSpec(kind="planted-partition-lite", sizes=(30, 30, 30, 30), p_in=p_in,
               p_out=0.01, seed=seed)
    for p_in in (0.15, 0.4) for seed in (1, 2, 3)
] + [GadgetSpec(kind="random-gnp", n=60, p=0.08, seed=seed) for seed in (1, 2, 3)])
def test_min_cut_sides_are_connected_on_gadgets(spec):
    # every connected piece of two nodes or more: the gadget's components and
    # its planted clusters' components
    g, truth = generate(spec)
    piece, _, _ = first_split(g, truth)
    labels = _kernels.connected_labels(g.indptr, g.adj)
    for nodes in [*split_by_label(labels), *split_by_label(piece)]:
        if len(nodes) > 1:
            assert_min_cut_sides_connected(*_kernels.induced_csr(g.indptr, g.adj, nodes))


def ma_ordering_with_key(ip, nb, wt, nv):
    """The maximum-adjacency ordering that also returned the last vertex's key."""
    wsum = [0] * nv
    done = [False] * nv
    qv = [0] * len(nb)
    heap = [0]
    scanned = last = prev = 0
    while heap:
        key, v = divmod(heapq.heappop(heap), nv)
        if done[v] or key != -wsum[v]:
            continue
        done[v] = True
        scanned += 1
        prev, last = last, v
        for pos in range(ip[v], ip[v + 1]):
            u = nb[pos]
            if not done[u]:
                s = wsum[u] + wt[pos]
                wsum[u] = s
                qv[pos] = s
                heapq.heappush(heap, u - s * nv)
    return scanned, last, prev, wsum[last], qv


def phase_cut_min_cut(indptr, adj):
    """The min cut that took the least degree before its loop and offered
    each ordering's phase cut, the key of its last vertex, as a candidate."""
    n = len(indptr) - 1
    deg = np.diff(indptr)
    side = np.zeros(n, np.bool_)
    v = int(np.argmin(deg))
    best = int(deg[v])
    if best == 0:
        return -1, side
    side[v] = True
    cindptr, src, dst = indptr, np.repeat(np.arange(n), deg), adj.astype(np.int64)
    cw = np.ones(len(dst), np.int64)
    sv = np.arange(n)
    nv = n
    while nv >= 2 and best > 1:
        star = np.zeros(nv, np.int64)
        np.add.at(star, src, cw)
        x = int(np.argmin(star))
        if star[x] < best:
            best = int(star[x])
            side = sv == x
            if best == 1:
                break
        scanned, last, prev, kappa, qv = ma_ordering_with_key(
            cindptr.tolist(), dst.tolist(), cw.tolist(), nv
        )
        if scanned < nv:
            return -1, side
        if kappa < best:
            best = kappa
            side = sv == last
            if best == 1:
                break
        sel = np.flatnonzero((np.array(qv, np.int64) > best) | (cw >= best))
        newid = _kernels.component_labels(
            nv, np.append(src[sel], last), np.append(dst[sel], prev)
        )
        nv = int(newid.max()) + 1
        sv = newid[sv]
        a, b = newid[src], newid[dst]
        kept = a != b
        keys, inv = np.unique(a[kept] * nv + b[kept], return_inverse=True)
        cw_merged = np.zeros(len(keys), np.int64)
        np.add.at(cw_merged, inv, cw[kept])
        src, dst, cw = keys // nv, keys % nv, cw_merged
        cindptr = np.zeros(nv + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=nv), out=cindptr[1:])
    return best, side if side[0] else ~side


def tie_heavy_pairs(kind, size, rng):
    """Edges of a graph family whose minimum cut is reached in many places."""
    if kind == "cycle":
        n = size + 3
        return n, path_pairs(np.append(np.arange(n), 0))
    if kind == "complete":
        n = size % 9 + 1
        return n, np.stack(np.triu_indices(n, 1), 1)
    if kind == "circulant":
        n = size + 5
        offsets = 1 + rng.choice(n // 2, rng.integers(1, 3), replace=False)
        pairs = [np.stack((np.arange(n), (np.arange(n) + k) % n), 1) for k in offsets]
        return n, np.concatenate(pairs)
    if kind == "bipartite":
        a, b = size % 4 + 1, size % 5 + 1
        left, right = np.meshgrid(np.arange(a), a + np.arange(b))
        return a + b, np.stack((left.ravel(), right.ravel()), 1)
    if kind == "hypercube":
        d = size % 5 + 1
        nodes = np.arange(2**d)
        return 2**d, np.concatenate(
            [np.stack((nodes, nodes ^ (1 << bit)), 1) for bit in range(d)]
        )
    if kind == "clique-ring":
        k, s = size % 3 + 2, size % 4 + 3
        pairs = [c * s + np.stack(np.triu_indices(s, 1), 1) for c in range(k)]
        joins = np.arange(rng.integers(1, 3))
        pairs += [np.stack((c * s + joins, (c + 1) % k * s + joins), 1) for c in range(k)]
        return k * s, np.concatenate(pairs)
    n = size % 25 + 1  # G(n, p), connected or not
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < rng.choice([0.1, 0.3, 0.6, 1.0])
    return n, np.stack((iu[keep], ju[keep]), 1)


@st.composite
def min_cut_inputs(draw):
    """Simple graphs on shuffled ids with shuffled rows: tie-heavy families,
    random graphs, n <= 2, and disjoint unions of two of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(
        ["cycle", "complete", "circulant", "bipartite", "hypercube", "clique-ring", "gnp"]
    )
    n, pairs = tie_heavy_pairs(draw(kinds), draw(st.integers(0, 40)), rng)
    if draw(st.integers(0, 3)) == 0:  # a disjoint union of two
        n2, pairs2 = tie_heavy_pairs(draw(kinds), draw(st.integers(0, 40)), rng)
        pairs = np.concatenate((pairs, n + pairs2))
        n += n2
    pairs = rng.permutation(n)[pairs]
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], 1), axis=0)
    indptr, adj = csr_of(n, pairs)
    for v in range(n):
        rng.shuffle(adj[indptr[v] : indptr[v + 1]])
    return indptr, adj


def tiny(n, edges):
    return csr_of(n, np.array(edges, np.int64).reshape(-1, 2))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(min_cut_inputs())
@example(tiny(1, []))
@example(tiny(2, []))
@example(tiny(2, [(0, 1)]))
@example(tiny(3, [(1, 2)]))
@example(tiny(4, [(0, 1), (2, 3)]))
@example(tiny(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
def test_min_cut_matches_phase_cut_solver(graph):
    indptr, adj = graph
    value, side = _kernels.min_cut_csr(indptr, adj)
    expected_value, expected_side = phase_cut_min_cut(indptr, adj)
    assert (value, side.tolist()) == (expected_value, expected_side.tolist())


def test_min_cut_of_no_nodes_raises_as_before():
    indptr, adj = tiny(0, [])
    for solver in (_kernels.min_cut_csr, phase_cut_min_cut):
        with pytest.raises(ValueError):
            solver(indptr, adj)
