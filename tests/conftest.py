"""Shared builders and transparent reference implementations for the tests."""

from __future__ import annotations

import io
import itertools
import os
import random

import numpy as np
import pytest

import wellconn as w
from wellconn import _engine


def wellconn_env() -> dict[str, str]:
    """The environment for a child `python -m wellconn`: this package on its path.

    A checkout that is not installed reaches the package only through the
    test session's own path, which a child process does not inherit.
    """
    src = os.path.dirname(os.path.dirname(w.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


# ---------------------------------------------------------------------------
# small graph builders


def clique_edges(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(0, n - 1)]


def star_edges(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def as_sources(raw: bytes, tmp_path) -> list:
    """The same input as a path, as bytes and as a text stream."""
    path = tmp_path / "in.tsv"
    path.write_bytes(raw)
    return [path, raw, io.StringIO(raw.decode("utf-8"))]


def written(write, tmp_path) -> list[str]:
    """What `write(target)` writes to a path, as text, and to a text stream."""
    path = tmp_path / "out.tsv"
    write(path)
    stream = io.StringIO()
    write(stream)
    return [path.read_bytes().decode("utf-8"), stream.getvalue()]


def edges_of(g: w.Graph) -> list[tuple[int, int]]:
    """Each undirected edge of `g` once, as (u, v) with u < v, sorted."""
    u, v = g.edge_arrays()
    return list(zip(u.tolist(), v.tolist()))


def graph_of(n: int, edges) -> w.Graph:
    return w.Graph.from_edges(n, edges)


def two_cliques(s: int, bridges: int = 0) -> w.Graph:
    edges = clique_edges(s) + clique_edges(s, offset=s)
    for t in range(bridges):
        edges.append((t, s + t))
    return graph_of(2 * s, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> w.Graph | None:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = graph_of(n, edges)
    comps = w.connected_components(g)
    if len(comps) != 1:
        return None
    return g


def some_connected_graph(rng: random.Random, n_lo: int, n_hi: int) -> w.Graph:
    while True:
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(2.0 / max(n - 1, 1), 0.7)
        g = random_connected_graph(rng, n, min(p, 1.0))
        if g is not None:
            return g


def random_graph_any(rng: random.Random, n: int, p: float) -> w.Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_of(n, edges)


def random_clustering(rng: random.Random, n: int, kmax: int = 20) -> w.Clustering:
    k = rng.randint(1, min(kmax, n))
    assignment = [rng.randrange(k) for _ in range(n)]
    return w.Clustering.from_assignment(assignment)


# ---------------------------------------------------------------------------
# reference implementations (transparent, kernel-free)


def brute_cut_value(g: w.Graph) -> int:
    """Minimum cut by full bipartition enumeration (independent of mincut.py)."""
    n = g.n
    edges = edges_of(g)
    best = None
    for bits in range(1 << (n - 1)):
        side = {0} | {i for i in range(1, n) if bits >> (i - 1) & 1}
        if len(side) == n:
            continue
        cut = sum(1 for u, v in edges if (u in side) != (v in side))
        if best is None or cut < best:
            best = cut
    return best


def reference_cc(g: w.Graph, c: w.Clustering) -> w.Clustering:
    pieces: list[np.ndarray] = []
    for members in c.clusters:
        sub, _ = w.induced_subgraph(g, members)
        comps = w.connected_components(sub)
        if not comps:
            pieces.append(members)
            continue
        pieces.extend(members[comp] for comp in comps)
    return merge_pieces(g.n, pieces)


def reference_wcc(g: w.Graph, c: w.Clustering, t: w.ThresholdSpec) -> w.Clustering:
    """Plain-python mirror of the treatment engine's abstract semantics.

    Work queue per cluster: singletons emit; disconnected pieces split into
    components; connected pieces below the single-edge bound emit; while the
    minimum (nonzero) degree is within the bound, the lowest-index
    minimum-degree vertex is stripped as a star cut; otherwise the exact
    minimum cut decides (emit or split into its two sides).
    """
    pieces: list[np.ndarray] = []
    stack = [np.asarray(members, dtype=np.int64) for members in c.clusters]
    while stack:
        nd = np.sort(stack.pop())
        if len(nd) == 1:
            pieces.append(nd)
            continue
        sub, _ = w.induced_subgraph(g, nd)
        comps = w.connected_components(sub)
        if len(comps) > 1:
            stack.extend(nd[comp] for comp in comps)
            continue
        stripped = False
        while len(nd) >= 2:
            size = len(nd)
            bound = t.value(size)
            if 1.0 > bound:
                break
            sub, _ = w.induced_subgraph(g, nd)
            degs = sub.degrees()
            nonzero = degs[degs > 0]
            if nonzero.size == 0:
                break
            dmin = int(nonzero.min())
            if dmin > bound:
                break
            vloc = int(np.flatnonzero(degs == dmin)[0])
            pieces.append(nd[vloc : vloc + 1])
            nd = np.delete(nd, vloc)
            stripped = True
        if stripped:
            stack.append(nd)
            continue
        size = len(nd)
        if size == 1:
            pieces.append(nd)
            continue
        bound = t.value(size)
        if 1.0 > bound:
            pieces.append(nd)
            continue
        sub, _ = w.induced_subgraph(g, nd)
        cut = w.global_min_cut(sub)
        if cut.value > bound:
            pieces.append(nd)
            continue
        stack.append(nd[cut.side])
        stack.append(nd[~cut.side])
    return merge_pieces(g.n, pieces)


def merge_pieces(n: int, pieces: list[np.ndarray]) -> w.Clustering:
    assignment = np.full(n, -1, np.int64)
    for cid, piece in enumerate(pieces):
        assignment[piece] = cid
    assert not np.any(assignment < 0)
    return w.Clustering.from_assignment(assignment)


def assert_valid_partition(c: w.Clustering, n: int) -> None:
    assert c.n == n
    seen = np.zeros(n, dtype=bool)
    for members in c.clusters:
        assert len(members) > 0
        assert not seen[members].any()
        seen[members] = True
    assert seen.all()


# ---------------------------------------------------------------------------
# metric oracles


def pair_count_ari(truth: w.Clustering, est: w.Clustering):
    """ARI from raw pair counting, exact rational (independent of metrics.py)."""
    from fractions import Fraction

    n = truth.n
    a = b = c_ = d = 0
    ta, ea = truth.assignment, est.assignment
    for i, j in itertools.combinations(range(n), 2):
        same_t = ta[i] == ta[j]
        same_e = ea[i] == ea[j]
        if same_t and same_e:
            a += 1
        elif same_t:
            b += 1
        elif same_e:
            c_ += 1
        else:
            d += 1
    num = 2 * (a * d - b * c_)
    den = (a + b) * (b + d) + (a + c_) * (c_ + d)
    if den == 0:
        return Fraction(1) if b == 0 and c_ == 0 else Fraction(0)
    return Fraction(num, den)


def enumerate_tables(row_sums, col_sums) -> int:
    """Count matrices with the given margins by direct recursion."""
    rows = list(row_sums)
    cols = list(col_sums)
    if not rows:
        return 1 if not any(cols) else 0

    def fill_row(remaining_cols, left, pos):
        if pos == len(remaining_cols):
            return [tuple(remaining_cols)] if left == 0 else []
        out = []
        for take in range(min(left, remaining_cols[pos]) + 1):
            nxt = list(remaining_cols)
            nxt[pos] -= take
            for final in fill_row(nxt, left - take, pos + 1):
                out.append(final)
        return out

    total = 0
    for rest in fill_row(cols, rows[0], 0):
        total += enumerate_tables(rows[1:], rest)
    return total


def all_partitions(items):
    """Every set partition of `items` (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@pytest.fixture
def threshold() -> w.ThresholdSpec:
    return w.ThresholdSpec.parse("1log10")


# ---------------------------------------------------------------------------
# the fork-join path


def count_forks(monkeypatch) -> list[int]:
    """The pids of the worker processes forked from here on, as a live list."""
    fork = os.fork
    started: list[int] = []

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Work of any size forks at two workers or more; the pids of the forks.

    `map_clusters` keeps work of fewer than `_SHARE` CSR entries per worker
    in one process, which would put every small input on the serial path.
    The test fails if it forked no worker.
    """
    monkeypatch.setattr(_engine, "_SHARE", 1)
    started = count_forks(monkeypatch)
    yield started
    assert started, "no worker process was forked"
