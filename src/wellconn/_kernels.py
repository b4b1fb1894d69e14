"""Low-level CSR graph kernels, numba-compiled when numba is available.

All kernels are deterministic: fixed scan orders, fixed tie-breaks (smallest
index wins), no randomness. They operate on plain numpy arrays so the same
code runs, slowly, without numba.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:  # numba is optional: the kernels then run as plain Python
    NUMBA_ENABLED = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True)
def connected_labels(indptr, adj):
    """Component label per node; labels ordered by smallest contained node."""
    n = indptr.shape[0] - 1
    labels = np.full(n, -1, np.int64)
    queue = np.empty(n, np.int64)
    comp = 0
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = comp
        queue[0] = root
        head = 0
        tail = 1
        while head < tail:
            v = queue[head]
            head += 1
            for pos in range(indptr[v], indptr[v + 1]):
                u = adj[pos]
                if labels[u] < 0:
                    labels[u] = comp
                    queue[tail] = u
                    tail += 1
        comp += 1
    return labels


@njit(cache=True)
def induced_csr(indptr, adj, nodes, mark):
    """CSR of the subgraph induced by `nodes` (sorted ascending, relabeled 0..k-1).

    `mark` is a reusable int64 scratch array of global length filled with -1;
    it is restored to -1 before returning so callers can share one buffer.
    """
    k = nodes.shape[0]
    for i in range(k):
        mark[nodes[i]] = i
    sub_indptr = np.zeros(k + 1, np.int64)
    for i in range(k):
        v = nodes[i]
        c = 0
        for pos in range(indptr[v], indptr[v + 1]):
            if mark[adj[pos]] >= 0:
                c += 1
        sub_indptr[i + 1] = c
    for i in range(k):
        sub_indptr[i + 1] += sub_indptr[i]
    sub_adj = np.empty(sub_indptr[k], np.int32)
    for i in range(k):
        v = nodes[i]
        w = sub_indptr[i]
        for pos in range(indptr[v], indptr[v + 1]):
            j = mark[adj[pos]]
            if j >= 0:
                sub_adj[w] = j
                w += 1
    for i in range(k):
        mark[nodes[i]] = -1
    return sub_indptr, sub_adj


@njit(cache=True)
def _bound(kind_code, coefficient, size):
    # 0: multiple of log10(size), 1: constant, 2: connectivity only
    if kind_code == 0:
        return coefficient * math.log10(size)
    if kind_code == 1:
        return coefficient
    return 0.0


@njit(cache=True)
def _idheap_push(heap, hn, v):
    heap[hn] = v
    i = hn
    while i > 0:
        p = (i - 1) >> 1
        if heap[p] > heap[i]:
            heap[p], heap[i] = heap[i], heap[p]
            i = p
        else:
            break
    return hn + 1


@njit(cache=True)
def _idheap_pop(heap, hn):
    top = heap[0]
    hn -= 1
    heap[0] = heap[hn]
    i = 0
    while True:
        l = 2 * i + 1
        r = l + 1
        s = i
        if l < hn and heap[l] < heap[s]:
            s = l
        if r < hn and heap[r] < heap[s]:
            s = r
        if s == i:
            break
        heap[s], heap[i] = heap[i], heap[s]
        i = s
    return top, hn


@njit(cache=True)
def low_degree_peel(indptr, adj, kind_code, coefficient):
    """Strip minimum-degree vertices while their star alone breaks the bound.

    While the minimum degree d of the current piece satisfies d <= f(size),
    the piece cannot be well-connected (its min cut is at most d), and the
    star of the lowest-index minimum-degree vertex is a small cut; strip that
    vertex and continue. Stops once the minimum degree exceeds the bound, a
    single-edge cut would already satisfy it, or one vertex remains.

    Returns (alive, peeled, n_peeled): a liveness mask over local ids and the
    strip order (prefix of length n_peeled). Isolated vertices are never
    stripped; a disconnected remainder is the caller's to re-split.
    """
    n = indptr.shape[0] - 1
    deg = np.empty(n, np.int64)
    for v in range(n):
        deg[v] = indptr[v + 1] - indptr[v]
    alive = np.ones(n, np.bool_)
    # lazy min-heap over (degree, vertex) packed into one int64 key
    cap = n + adj.shape[0] + 1
    heap = np.empty(cap, np.int64)
    hn = 0
    for v in range(n):
        hn = _idheap_push(heap, hn, deg[v] * n + v)
    peeled = np.empty(n, np.int64)
    count = 0
    size = n
    while size >= 2:
        bound = _bound(kind_code, coefficient, size)
        if 1.0 > bound:
            break
        v = -1
        d = np.int64(0)
        while hn > 0:
            key = heap[0]
            kd = key // n
            kv = key % n
            if not alive[kv] or deg[kv] != kd:
                _, hn = _idheap_pop(heap, hn)
                continue
            if kd == 0:
                # isolated in the remainder: left for the component step
                _, hn = _idheap_pop(heap, hn)
                continue
            v = kv
            d = kd
            break
        if v < 0 or d > bound:
            break
        _, hn = _idheap_pop(heap, hn)
        alive[v] = False
        deg[v] = 0
        size -= 1
        peeled[count] = v
        count += 1
        for pos in range(indptr[v], indptr[v + 1]):
            u = adj[pos]
            if alive[u]:
                deg[u] -= 1
                hn = _idheap_push(heap, hn, deg[u] * n + u)
    return alive, peeled, count


@njit(cache=True)
def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        nxt = parent[x]
        parent[x] = root
        x = nxt
    return root


@njit(cache=True)
def _heap_push(hk, hr, hv, hn, key, rep, v):
    hk[hn] = key
    hr[hn] = rep
    hv[hn] = v
    i = hn
    while i > 0:
        p = (i - 1) >> 1
        if hk[p] < hk[i] or (hk[p] == hk[i] and hr[p] > hr[i]):
            hk[p], hk[i] = hk[i], hk[p]
            hr[p], hr[i] = hr[i], hr[p]
            hv[p], hv[i] = hv[i], hv[p]
            i = p
        else:
            break
    return hn + 1


@njit(cache=True)
def _heap_pop(hk, hr, hv, hn):
    key = hk[0]
    v = hv[0]
    hn -= 1
    hk[0] = hk[hn]
    hr[0] = hr[hn]
    hv[0] = hv[hn]
    i = 0
    while True:
        l = 2 * i + 1
        r = l + 1
        s = i
        if l < hn and (hk[l] > hk[s] or (hk[l] == hk[s] and hr[l] < hr[s])):
            s = l
        if r < hn and (hk[r] > hk[s] or (hk[r] == hk[s] and hr[r] < hr[s])):
            s = r
        if s == i:
            break
        hk[s], hk[i] = hk[i], hk[s]
        hr[s], hr[i] = hr[i], hr[s]
        hv[s], hv[i] = hv[i], hv[s]
        i = s
    return key, v, hn


@njit(cache=True)
def _record_members(list_head, nxt, side):
    for i in range(side.shape[0]):
        side[i] = False
    x = list_head
    while x >= 0:
        side[x] = True
        x = nxt[x]


@njit(cache=True)
def min_cut_csr(indptr, adj):
    """Exact global minimum edge cut of a connected simple graph in CSR form.

    Maximum-adjacency orderings drive both the cut candidates (the last
    vertex of each ordering yields a valid cut, as does every supervertex
    star) and the safe contractions: the final ordering pair always merges,
    as does any edge whose ordering-time connectivity certificate exceeds the
    best cut found so far and any edge at least as heavy as that best cut.
    Candidates only ever replace strictly worse ones, so the first optimum
    produced by the fixed scan order is returned.

    Returns (value, side) with side a bool mask whose True part contains
    node 0. value == -1 signals a disconnected input.
    """
    n = indptr.shape[0] - 1
    side = np.zeros(n, np.bool_)

    best = np.int64(1) << 60
    bestv = -1
    for v in range(n):
        d = indptr[v + 1] - indptr[v]
        if d < best:
            best = d
            bestv = v
    if best == 0:
        return np.int64(-1), side
    side[bestv] = True
    if best == 1:
        if not side[0]:
            for i in range(n):
                side[i] = not side[i]
        return np.int64(1), side

    # undirected edge list over current supervertex ids, unit weights
    ne = adj.shape[0] // 2
    eu = np.empty(ne, np.int64)
    ev = np.empty(ne, np.int64)
    ew = np.empty(ne, np.int64)
    k = 0
    for v in range(n):
        for pos in range(indptr[v], indptr[v + 1]):
            u = adj[pos]
            if v < u:
                eu[k] = v
                ev[k] = u
                ew[k] = 1
                k += 1
    ne = k

    # union-find over original ids; the root is always the smallest original
    # index of its supervertex, so roots double as deterministic tie-breakers
    parent = np.arange(n, dtype=np.int64)
    head = np.arange(n, dtype=np.int64)
    tail = np.arange(n, dtype=np.int64)
    nxt = np.full(n, -1, np.int64)
    roots = np.arange(n, dtype=np.int64)
    nv = n
    curid = np.empty(n, np.int64)

    while nv >= 2 and best > 1:
        # CSR of the contracted graph
        cindptr = np.zeros(nv + 1, np.int64)
        for i in range(ne):
            cindptr[eu[i] + 1] += 1
            cindptr[ev[i] + 1] += 1
        for i in range(nv):
            cindptr[i + 1] += cindptr[i]
        fill = cindptr[:nv].copy()
        cadj = np.empty(2 * ne, np.int64)
        cw = np.empty(2 * ne, np.int64)
        for i in range(ne):
            a = eu[i]
            b = ev[i]
            w = ew[i]
            cadj[fill[a]] = b
            cw[fill[a]] = w
            fill[a] += 1
            cadj[fill[b]] = a
            cw[fill[b]] = w
            fill[b] += 1

        # star cuts of supervertices are valid cuts of the original graph
        starv = -1
        starw = np.int64(1) << 60
        for i in range(nv):
            s = np.int64(0)
            for pos in range(cindptr[i], cindptr[i + 1]):
                s += cw[pos]
            if s < starw:
                starw = s
                starv = i
        if starw < best:
            best = starw
            _record_members(head[roots[starv]], nxt, side)
            if best == 1:
                break

        # maximum-adjacency ordering from the supervertex holding node 0
        cap = 2 * ne + nv + 2
        hk = np.empty(cap, np.int64)
        hr = np.empty(cap, np.int64)
        hv = np.empty(cap, np.int64)
        hn = 0
        wsum = np.zeros(nv, np.int64)
        state = np.zeros(nv, np.uint8)  # 0 unseen, 1 queued, 2 scanned
        qv = np.zeros(2 * ne, np.int64)
        order = np.empty(nv, np.int64)
        cnt = 0
        hn = _heap_push(hk, hr, hv, hn, 0, roots[0], 0)
        state[0] = 1
        while hn > 0:
            key, v, hn = _heap_pop(hk, hr, hv, hn)
            if state[v] == 2 or key != wsum[v]:
                continue
            state[v] = 2
            order[cnt] = v
            cnt += 1
            for pos in range(cindptr[v], cindptr[v + 1]):
                u = cadj[pos]
                if state[u] != 2:
                    wsum[u] += cw[pos]
                    qv[pos] = wsum[u]
                    hn = _heap_push(hk, hr, hv, hn, wsum[u], roots[u], u)
                    state[u] = 1
        if cnt < nv:
            return np.int64(-1), side

        last = order[cnt - 1]
        prevlast = order[cnt - 2]
        kappa = wsum[last]
        if kappa < best:
            best = kappa
            _record_members(head[roots[last]], nxt, side)
            if best == 1:
                break

        # contract: the final ordering pair always merges; additionally any
        # edge certified at connectivity > best and any edge weighing >= best
        a = _find(parent, roots[last])
        b = _find(parent, roots[prevlast])
        if a > b:
            a, b = b, a
        parent[b] = a
        nxt[tail[a]] = head[b]
        tail[a] = tail[b]
        for v in range(nv):
            for pos in range(cindptr[v], cindptr[v + 1]):
                if qv[pos] > best or cw[pos] >= best:
                    a = _find(parent, roots[v])
                    b = _find(parent, roots[cadj[pos]])
                    if a != b:
                        if a > b:
                            a, b = b, a
                        parent[b] = a
                        nxt[tail[a]] = head[b]
                        tail[a] = tail[b]

        # translate edge endpoints to their (possibly merged) roots before
        # the root table is compacted
        for i in range(ne):
            eu[i] = _find(parent, roots[eu[i]])
            ev[i] = _find(parent, roots[ev[i]])

        newnv = 0
        for i in range(nv):
            r = roots[i]
            if _find(parent, r) == r:
                roots[newnv] = r
                newnv += 1
        nv = newnv
        for i in range(nv):
            curid[roots[i]] = i

        # remap to compact ids, drop collapsed edges, merge parallel edges
        kept = 0
        for i in range(ne):
            a = curid[eu[i]]
            b = curid[ev[i]]
            if a == b:
                continue
            if a > b:
                a, b = b, a
            eu[kept] = a
            ev[kept] = b
            ew[kept] = ew[i]
            kept += 1
        ne = kept
        if ne > 1:
            keys = eu[:ne] * nv + ev[:ne]
            order2 = np.argsort(keys)
            neu = np.empty(ne, np.int64)
            nev = np.empty(ne, np.int64)
            nw = np.empty(ne, np.int64)
            merged = 0
            i = 0
            while i < ne:
                j = i
                w = np.int64(0)
                while j < ne and keys[order2[j]] == keys[order2[i]]:
                    w += ew[order2[j]]
                    j += 1
                keyval = keys[order2[i]]
                neu[merged] = keyval // nv
                nev[merged] = keyval % nv
                nw[merged] = w
                merged += 1
                i = j
            eu = neu
            ev = nev
            ew = nw
            ne = merged

    if not side[0]:
        for i in range(n):
            side[i] = not side[i]
    return best, side


def warmup():
    """Compile every kernel on a tiny graph (pays the JIT cost up front)."""
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    adj = np.array([1, 0, 2, 1], dtype=np.int32)
    mark = np.full(3, -1, np.int64)
    connected_labels(indptr, adj)
    induced_csr(indptr, adj, np.array([0, 1], dtype=np.int64), mark)
    low_degree_peel(indptr, adj, 0, 1.0)
    min_cut_csr(indptr, adj)
