"""Low-level CSR graph kernels in plain Python, numpy and heapq.

All kernels are deterministic: fixed scan orders, fixed tie-breaks (smallest
index wins), no randomness. Whole-array work, connectivity included, runs in
numpy; the only sequential loops left, the maximum-adjacency ordering and the
peel, run in Python over `.tolist()` lists with `heapq` as the priority queue.
"""

from __future__ import annotations

import heapq

import numpy as np

# printed by reports; the kernels are never compiled
NUMBA_ENABLED = False


# edges per block when component_labels relabels: 64 KB per int64 scratch array
_LABEL_BLOCK = 8192


def component_labels(n, a, b):
    """Component label per node over the edges (a, b), ordered by smallest node.

    Min-label hooking (Shiloach and Vishkin, 1982): each round hooks every
    root to its smallest neighbouring root, jumps pointers until every tree is
    a star and drops the edges inside one tree. Roots only point to smaller
    ids, so any hooking order ends with each node at its component's smallest
    id. Every unfinished tree merges within two rounds: 2*ceil(log2 n) + 1 at most.

    The caller's arrays are only read. The edges a round keeps are relabelled
    block by block into two arrays of the kernel's own, made in the first
    round and compacted in place after it, so the kernel holds about 16
    bytes per edge beside the caller's.
    """
    lab = np.arange(n)
    own = None
    while len(a):
        # lab[x] <= x always, so each edge can only lower the larger end's root
        np.minimum.at(lab, a, b)
        np.minimum.at(lab, b, a)
        while not np.array_equal(jump := lab[lab], lab):
            lab = jump
        if own is None:
            own = np.empty(len(a), np.int64), np.empty(len(b), np.int64)
        kept = 0
        # a block is read before its kept edges are written at or below its start
        for lo in range(0, len(a), _LABEL_BLOCK):
            la, lb = lab[a[lo : lo + _LABEL_BLOCK]], lab[b[lo : lo + _LABEL_BLOCK]]
            across = la != lb
            k = int(np.count_nonzero(across))
            own[0][kept : kept + k] = la[across]
            own[1][kept : kept + k] = lb[across]
            kept += k
        a, b = own[0][:kept], own[1][:kept]
    return (np.cumsum(lab == np.arange(n)) - 1)[lab]


def first_appearance_ids(keys):
    """Each key's id, 0..k-1 by its value's first position, and the values by id.

    One sort groups equal keys. The sorted copy is freed before `ids` is
    made, and the group ids are made in place.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    heads = np.empty(len(keys), bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    by_first = np.argsort(np.minimum.reduceat(order, np.flatnonzero(heads)))
    distinct = ordered[heads][by_first]
    del ordered
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    group = np.cumsum(heads)
    del heads
    group -= 1
    # out= the index array itself: "clip" skips the copy that "raise" makes
    np.take(rank, group, out=group, mode="clip")
    ids = np.empty(len(order), np.int64)
    ids[order] = group
    return ids, distinct


def upper_edges(indptr, adj):
    """Each undirected edge of a CSR graph once: int64 (u, v), u < v, in CSR order."""
    n = len(indptr) - 1
    # rows in adj's dtype: a graph's int32 rows take half the memory of int64
    u = np.repeat(np.arange(n, dtype=adj.dtype), np.diff(indptr))
    upper = u < adj
    return u[upper].astype(np.int64), adj[upper].astype(np.int64)


def connected_labels(indptr, adj):
    """Component label per node of a CSR graph; labels ordered by smallest node."""
    return component_labels(len(indptr) - 1, *upper_edges(indptr, adj))


def induced_csr(indptr, adj, nodes):
    """CSR of the subgraph induced by `nodes` (sorted ascending, relabeled 0..k-1).

    Returns (indptr, adj) as int64 and int32 arrays. The local-id map is made
    afresh on every call and written only at `nodes` and their neighbours.
    """
    k = len(nodes)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    # positions of every neighbour entry of every node, row by row
    offsets = np.cumsum(counts) - counts
    pos = np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))
    nb = adj[pos]
    local = np.empty(len(indptr) - 1, np.int64)
    local[nb] = -1
    local[nodes] = np.arange(k)
    local = local[nb]
    inside = local >= 0
    rows = np.repeat(np.arange(k), counts)[inside]
    sub_indptr = np.zeros(k + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=sub_indptr[1:])
    return sub_indptr, local[inside].astype(np.int32)


def low_degree_peel(indptr, adj, bound_of):
    """Strip minimum-degree vertices while their star alone breaks the bound.

    `bound_of(size)` is the bound f(size). While the minimum degree d of the
    current piece satisfies d <= f(size), the piece cannot be well-connected
    (its min cut is at most d), and the star of the lowest-index
    minimum-degree vertex is a small cut; strip that vertex and continue.
    Stops once the minimum degree exceeds the bound, a single-edge cut would
    already satisfy it, or one vertex remains.

    Returns (alive, peeled, n_peeled): a liveness mask over local ids and the
    strip order. Isolated vertices are never stripped; a disconnected
    remainder is the caller's to re-split.
    """
    n = len(indptr) - 1
    ip = indptr.tolist()
    nb = adj.tolist()
    deg = [ip[v + 1] - ip[v] for v in range(n)]
    alive = [True] * n
    # lazy min-heap over (degree, vertex) packed into one integer key
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    peeled = []
    size = n
    while size >= 2:
        bound = bound_of(size)
        if 1.0 > bound:
            break
        # drop stale entries and vertices isolated in the remainder (those
        # are left for the component step)
        while heap:
            d, v = divmod(heap[0], n)
            if alive[v] and deg[v] == d and d > 0:
                break
            heapq.heappop(heap)
        if not heap or d > bound:
            break
        heapq.heappop(heap)
        alive[v] = False
        deg[v] = 0
        size -= 1
        peeled.append(v)
        for u in nb[ip[v] : ip[v + 1]]:
            if alive[u]:
                deg[u] -= 1
                heapq.heappush(heap, deg[u] * n + u)
    return np.array(alive, np.bool_), np.array(peeled, np.int64), len(peeled)


def _ma_ordering(ip, nb, wt, nv):
    """Maximum-adjacency ordering of a weighted CSR graph from vertex 0.

    The next vertex is the one most strongly attached to those already
    scanned, the smallest id among equals. Returns (scanned, last, prev, qv)
    where qv[pos] is the attachment of nb[pos] just after its edge at
    position pos was scanned (0 for edges scanned from the other end).
    """
    wsum = [0] * nv
    done = [False] * nv
    qv = [0] * len(nb)
    # key u - s*nv: largest attachment s, then smallest id u
    heap = [0]
    heappop, heappush = heapq.heappop, heapq.heappush
    scanned = last = prev = 0
    while heap:
        key, v = divmod(heappop(heap), nv)
        if done[v] or key != -wsum[v]:
            continue  # stale entry
        done[v] = True
        scanned += 1
        prev, last = last, v
        for pos in range(ip[v], ip[v + 1]):
            u = nb[pos]
            if not done[u]:
                s = wsum[u] + wt[pos]
                wsum[u] = s
                qv[pos] = s
                heappush(heap, u - s * nv)
    return scanned, last, prev, qv


def _spanning_forest(n, a, b):
    """Positions of the edges (a, b) that make one maximal spanning forest.

    Each round, every tree's root hooks to the smallest root it touches,
    through the smallest such edge: one `np.minimum.at` over packed
    (root, edge) keys picks it. A hook always goes from a larger root to a
    smaller one, so the picked edges close no cycle.
    """
    m = len(a)
    lab = np.arange(n)
    pos = np.arange(m)
    picked = [pos[:0]]
    while len(pos):
        la, lb = lab[a[pos]], lab[b[pos]]
        across = la != lb
        pos, la, lb = pos[across], la[across], lb[across]
        key = np.full(n, n * m, np.int64)
        np.minimum.at(key, np.maximum(la, lb), np.minimum(la, lb) * m + pos)
        roots = np.flatnonzero(key < n * m)
        picked.append(key[roots] % m)
        lab[roots] = key[roots] // m
        while not np.array_equal(jump := lab[lab], lab):
            lab = jump
    return np.concatenate(picked)


def forest_certificate(n, a, b, k, w=None, exact=False):
    """Decide whether a connected graph's min cut λ is at least k, without a scan.

    The graph has n nodes and the edges (a, b), each of weight w (default 1),
    no self-loops. Each pass takes k - 1 maximal spanning forests, each in
    the units the earlier ones left, an edge of weight w counting as w units
    (Nagamochi and Ibaraki, Algorithmica 7:583, 1992). An edge with a unit
    left over joins two ends that k edge-disjoint paths join, so contracting
    every such edge keeps every cut below k; the next pass runs on the
    weighted multigraph that is left. Every supervertex star is a cut.

    Returns k once one supervertex is left (λ >= k), or the first star below
    k (λ is at most that star). With `exact`, k is lowered to each star below
    it and the passes go on, so the value returned is min(λ, k). Returns None
    when a pass contracts nothing: the graph is left undecided.
    """
    w = np.ones(len(a), np.int64) if w is None else w
    while n > 1:
        least = int((np.bincount(a, w, n) + np.bincount(b, w, n)).min())
        if least < k:
            if not exact:
                return least
            k = least
        left = w.copy()
        for _ in range(k - 1):
            live = np.flatnonzero(left)
            left[live[_spanning_forest(n, a[live], b[live])]] -= 1
        sel = left > 0
        if not sel.any():
            return None
        newid = component_labels(n, a[sel], b[sel])
        n = int(newid.max()) + 1
        a, b = newid[a], newid[b]
        kept = a != b
        keys, inv = np.unique(
            np.minimum(a[kept], b[kept]) * n + np.maximum(a[kept], b[kept]),
            return_inverse=True,
        )
        w = np.bincount(inv, w[kept]).astype(np.int64)
        a, b = keys // n, keys % n
    return k


def min_cut_csr(indptr, adj):
    """Exact global minimum edge cut of a connected simple graph in CSR form.

    The cut candidates are the supervertex stars, each a valid cut of the
    original graph; an ordering's phase cut, the star of its last vertex, is
    among them. Maximum-adjacency orderings (Nagamochi-Ibaraki, as in
    Stoer-Wagner) only certify the safe contractions: the final ordering pair
    always merges, as does any edge whose ordering-time connectivity
    certificate exceeds the best cut found so far and any edge at least as
    heavy as that best cut. Candidates only ever replace strictly worse ones,
    so the first optimum produced by the fixed scan order is returned.

    Supervertex ids stay in ascending order of their smallest node, so a
    tie-break on the id is a tie-break on that node.

    The given CSR is the first round's graph as it stands, and its rows may
    list their neighbours in any order: the ordering pops by (attachment, id)
    alone and every certificate is read per edge. Each contraction maps the
    CSR entries to supervertex ids, drops those inside a supervertex and
    merges parallel ones; their sorted (row, column) keys are the next
    round's CSR.

    Returns (value, side) with side a bool mask whose True part contains
    node 0. The input must be connected, and callers check that first:
    value == -1 only reports a disconnection the scan happens to find (a
    node of degree 0, or an ordering that stops short). Two disjoint edges
    return (1, side), since a minimum degree of 1 ends the loop before any
    scan.
    """
    n = len(indptr) - 1
    deg = np.diff(indptr)
    side = np.zeros(n, np.bool_)
    if deg.min() == 0:
        return -1, side
    best = len(adj)  # the degree sum: round 1's star check takes the least degree

    # the contracted graph over supervertex ids: at first the given CSR with
    # unit weights, src being the row of every entry
    cindptr, src, dst = indptr, np.repeat(np.arange(n), deg), adj.astype(np.int64)
    cw = np.ones(len(dst), np.int64)
    sv = np.arange(n)  # supervertex id of every node
    nv = n

    while nv >= 2 and best > 1:
        # star cuts of supervertices are valid cuts of the original graph
        star = np.zeros(nv, np.int64)
        np.add.at(star, src, cw)
        x = int(np.argmin(star))
        if star[x] < best:
            best = int(star[x])
            side = sv == x
            if best == 1:
                break

        scanned, last, prev, qv = _ma_ordering(
            cindptr.tolist(), dst.tolist(), cw.tolist(), nv
        )
        if scanned < nv:
            return -1, side

        # contract: the final ordering pair always merges; additionally any
        # edge certified at connectivity > best and any edge weighing >= best
        sel = np.flatnonzero((np.array(qv, np.int64) > best) | (cw >= best))
        newid = component_labels(
            nv, np.append(src[sel], last), np.append(dst[sel], prev)
        )
        nv = int(newid.max()) + 1
        sv = newid[sv]

        # remap to compact ids, drop collapsed entries, merge parallel ones
        a, b = newid[src], newid[dst]
        kept = a != b
        keys, inv = np.unique(a[kept] * nv + b[kept], return_inverse=True)
        cw_merged = np.zeros(len(keys), np.int64)
        np.add.at(cw_merged, inv, cw[kept])
        src, dst, cw = keys // nv, keys % nv, cw_merged
        cindptr = np.zeros(nv + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=nv), out=cindptr[1:])

    return best, side if side[0] else ~side
