"""Low-level CSR graph kernels in plain Python, numpy and heapq.

All kernels are deterministic: fixed scan orders, fixed tie-breaks (smallest
index wins), no randomness. Whole-array bookkeeping (gathers, sorts, sums)
runs in numpy; the inherently sequential parts (breadth-first search, the
maximum-adjacency ordering, union-find, the peel) run as Python loops over
lists taken with `.tolist()`, with `heapq` as the priority queue.
"""

from __future__ import annotations

import heapq

import numpy as np

# printed by reports; the kernels are never compiled
NUMBA_ENABLED = False


def connected_labels(indptr, adj):
    """Component label per node; labels ordered by smallest contained node."""
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
        for v in queue:  # breadth-first: the queue grows while it is read
            for u in nb[ip[v] : ip[v + 1]]:
                if labels[u] < 0:
                    labels[u] = comp
                    queue.append(u)
        comp += 1
    return np.array(labels, np.int64)


def induced_csr(indptr, adj, nodes, mark):
    """CSR of the subgraph induced by `nodes` (sorted ascending, relabeled 0..k-1).

    `mark` is a reusable int64 scratch array of global length filled with -1;
    it is restored to -1 before returning so callers can share one buffer.
    """
    k = len(nodes)
    mark[nodes] = np.arange(k)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    # positions of every neighbour entry of every node, row by row
    offsets = np.cumsum(counts) - counts
    pos = np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))
    local = mark[adj[pos]]
    inside = local >= 0
    rows = np.repeat(np.arange(k), counts)[inside]
    sub_indptr = np.zeros(k + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=sub_indptr[1:])
    mark[nodes] = -1
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
    scanned, the smallest id among equals. Returns (scanned, last, prev,
    key of last, qv) where qv[pos] is the attachment of nb[pos] just after
    its edge at position pos was scanned (0 for edges scanned from the
    other end).
    """
    wsum = [0] * nv
    done = [False] * nv
    qv = [0] * len(nb)
    heap = [(0, 0)]  # (-attachment, id): largest attachment, then smallest id
    scanned = last = prev = 0
    while heap:
        key, v = heapq.heappop(heap)
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
                heapq.heappush(heap, (-s, u))
    return scanned, last, prev, wsum[last], qv


def _union_smaller(nv, pairs):
    """Representative per id after joining `pairs`: the smallest id of its set."""
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


def min_cut_csr(indptr, adj):
    """Exact global minimum edge cut of a connected simple graph in CSR form.

    Maximum-adjacency orderings (Nagamochi-Ibaraki, as in Stoer-Wagner)
    drive both the cut candidates (the last vertex of each ordering yields a
    valid cut, as does every supervertex star) and the safe contractions:
    the final ordering pair always merges, as does any edge whose
    ordering-time connectivity certificate exceeds the best cut found so
    far and any edge at least as heavy as that best cut. Candidates only
    ever replace strictly worse ones, so the first optimum produced by the
    fixed scan order is returned.

    Supervertex ids stay in ascending order of their smallest node, so a
    tie-break on the id is a tie-break on that node.

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
    v = int(np.argmin(deg))
    best = int(deg[v])
    if best == 0:
        return -1, side
    side[v] = True

    # undirected edge list over supervertex ids, unit weights
    eu = np.repeat(np.arange(n), deg)
    ev = adj.astype(np.int64)
    upper = eu < ev
    eu, ev = eu[upper], ev[upper]
    ew = np.ones(len(eu), np.int64)
    sv = np.arange(n)  # supervertex id of every node
    nv = n

    while nv >= 2 and best > 1:
        # CSR of the contracted graph; each row lists its edges in edge order
        ends = np.stack((eu, ev), 1).ravel()
        order = np.argsort(ends, kind="stable")
        src = ends[order]
        dst = np.stack((ev, eu), 1).ravel()[order]
        cw = np.repeat(ew, 2)[order]
        cindptr = np.zeros(nv + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=nv), out=cindptr[1:])

        # star cuts of supervertices are valid cuts of the original graph
        star = np.zeros(nv, np.int64)
        np.add.at(star, src, cw)
        x = int(np.argmin(star))
        if star[x] < best:
            best = int(star[x])
            side = sv == x
            if best == 1:
                break

        scanned, last, prev, kappa, qv = _ma_ordering(
            cindptr.tolist(), dst.tolist(), cw.tolist(), nv
        )
        if scanned < nv:
            return -1, side
        if kappa < best:
            best = kappa
            side = sv == last
            if best == 1:
                break

        # contract: the final ordering pair always merges; additionally any
        # edge certified at connectivity > best and any edge weighing >= best
        sel = np.flatnonzero((np.array(qv, np.int64) > best) | (cw >= best))
        rep = _union_smaller(
            nv, [(last, prev), *zip(src[sel].tolist(), dst[sel].tolist())]
        )
        is_root = rep == np.arange(nv)
        newid = (np.cumsum(is_root) - 1)[rep]
        nv = int(is_root.sum())
        sv = newid[sv]

        # remap to compact ids, drop collapsed edges, merge parallel edges
        a = newid[eu]
        b = newid[ev]
        kept = a != b
        a, b = a[kept], b[kept]
        keys, inv = np.unique(
            np.minimum(a, b) * nv + np.maximum(a, b), return_inverse=True
        )
        ew_merged = np.zeros(len(keys), np.int64)
        np.add.at(ew_merged, inv, ew[kept])
        eu, ev, ew = keys // nv, keys % nv, ew_merged

    return best, side if side[0] else ~side
