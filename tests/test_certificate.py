"""The forest certificate against the exact solver, networkx's Stoer-Wagner and
brute force: its decision at every k from 1 to λ + 2 and its exact value, on
simple graphs and on the weighted multigraphs that contracting them makes;
and the solver's turn, in treat and in audit, after a pass that contracts
nothing."""

import logging

import networkx as nx
import numpy as np
import pytest

import wellconn as w
from conftest import clique_edges, graph_of
from wellconn import _kernels

# a cubic graph whose first pass at k = 3 contracts nothing: its two forests
# take every edge
STALLS_AT_3 = [
    (0, 1), (0, 7), (0, 8), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6),
    (5, 7), (6, 8), (6, 9), (7, 9), (8, 9),
]


def random_connected(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A random spanning tree on n nodes plus random extra edges."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    p = rng.uniform(0.0, 0.8)
    edges |= {(i, j) for i, j in clique_edges(n) if rng.random() < p}
    return sorted(edges)


def contracted(rng: np.random.Generator, n: int, edges) -> tuple[int, np.ndarray, ...]:
    """The weighted multigraph left by merging random groups of nodes."""
    group = np.unique(rng.integers(max(2, n // 2), size=n), return_inverse=True)[1]
    nv = int(group.max()) + 1
    e = group[np.array(edges)]
    e = e[e[:, 0] != e[:, 1]]
    keys, weight = np.unique(e.min(1) * nv + e.max(1), return_counts=True)
    return nv, keys // nv, keys % nv, weight.astype(np.int64)


def brute_force(n: int, a, b, weight) -> int:
    """The least total weight of the edges a bipartition of the n nodes cuts."""
    sides = np.arange(1 << (n - 1))[:-1] * 2 + 1  # node 0's side, never all
    crossing = ((sides[:, None] >> a) ^ (sides[:, None] >> b)) & 1
    return int((crossing * weight).sum(axis=1).min())


def stoer_wagner(n: int, a, b, weight) -> int:
    g = nx.Graph()
    g.add_weighted_edges_from(zip(a.tolist(), b.tolist(), weight.tolist()))
    return int(nx.stoer_wagner(g)[0]) if g.number_of_nodes() == n else 0


def two_blocks(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Two dense random blocks joined by one to three edges: λ below δ."""
    half = n // 2
    edges = {e for e in clique_edges(n) if (e[0] < half) == (e[1] < half)}
    edges = {e for e in edges if rng.random() < 0.85}
    edges |= {(i, i + 1) for i in range(n - 1)}  # connected, whatever was dropped
    for _ in range(int(rng.integers(1, 4))):
        edges.add((int(rng.integers(half)), int(rng.integers(half, n))))
    return sorted(edges)


def regular(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A random connected regular graph of degree 3 to 7, where passes stall,
    some once the units run out before the last forest."""
    d = int(rng.integers(3, 8))
    while True:
        g = nx.random_regular_graph(d, n - n % 2, seed=int(rng.integers(2**31)))
        if nx.is_connected(g):
            return sorted(g.edges())


FAMILIES = {"random": random_connected, "two-blocks": two_blocks, "regular": regular}


def cases(seed: int, count: int):
    """(name, n, a, b, weight, λ): simple graphs and their contractions."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        family = list(FAMILIES)[i % len(FAMILIES)]
        n = int(rng.integers(2 if family == "random" else 8, 17))
        edges = FAMILIES[family](rng, n)
        n = max(map(max, edges)) + 1
        g = graph_of(n, edges)
        a, b = _kernels.upper_edges(g.indptr, g.adj)
        unit = np.ones(len(a), np.int64)
        value = brute_force(n, a, b, unit)
        assert value == _kernels.min_cut_csr(g.indptr, g.adj)[0]
        assert value == stoer_wagner(n, a, b, unit)
        yield f"{family}-{i}", n, a, b, unit, value
        nv, ca, cb, weight = contracted(rng, n, edges)
        if nv >= 2:
            value = brute_force(nv, ca, cb, weight)
            assert value == stoer_wagner(nv, ca, cb, weight)
            yield f"{family}-{i}-contracted", nv, ca, cb, weight, value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decision_and_value_match_oracles(seed):
    decided = stalled = 0
    for name, n, a, b, weight, value in cases(seed, 100):
        for k in range(1, value + 3):
            got = _kernels.forest_certificate(n, a, b, k, weight)
            if got is None:
                # with at most one forest, a pass contracts an edge whenever
                # no star is below k
                assert k > 2, (name, k)
                stalled += not name.startswith("regular")
                continue
            decided += 1
            assert got <= k and (got == k) == (value >= k), (name, k, got)
            assert got == k or value <= got, (name, k, got)  # a star is a cut
        least = int((np.bincount(a, weight, n) + np.bincount(b, weight, n)).min())
        for k in (least, value + 2):
            got = _kernels.forest_certificate(n, a, b, k, weight, exact=True)
            assert got in (None, min(value, k)), (name, k, got)
    assert stalled < decided / 20


def test_exact_value_on_larger_graphs_matches_the_solver_and_networkx():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(17, 60))
        g = graph_of(n, random_connected(rng, n))
        a, b = _kernels.upper_edges(g.indptr, g.adj)
        value = _kernels.min_cut_csr(g.indptr, g.adj)[0]
        assert value == stoer_wagner(n, a, b, np.ones(len(a), np.int64))
        least = int(np.diff(g.indptr).min())
        assert _kernels.forest_certificate(n, a, b, least, exact=True) in (None, value)
        assert _kernels.forest_certificate(n, a, b, value) == value
        assert _kernels.forest_certificate(n, a, b, value + 1) in (None, value)


def test_families_decide_without_the_solver():
    cycle = [(i, (i + 1) % 12) for i in range(12)]
    for n, edges, value in ((12, cycle, 2), (9, clique_edges(9), 8)):
        g = graph_of(n, edges)
        a, b = _kernels.upper_edges(g.indptr, g.adj)
        assert _kernels.forest_certificate(n, a, b, value) == value
        assert _kernels.forest_certificate(n, a, b, value + 1) == value
        assert _kernels.forest_certificate(n, a, b, n, exact=True) == value


def solver_calls(monkeypatch) -> list[int]:
    calls: list[int] = []
    solve = _kernels.min_cut_csr

    def counted(indptr, adj):
        calls.append(len(indptr) - 1)
        return solve(indptr, adj)

    monkeypatch.setattr(_kernels, "min_cut_csr", counted)
    return calls


def test_a_stalled_pass_goes_to_the_solver(monkeypatch, caplog):
    g = graph_of(10, STALLS_AT_3)
    a, b = _kernels.upper_edges(g.indptr, g.adj)
    assert _kernels.forest_certificate(10, a, b, 3) is None
    assert _kernels.forest_certificate(10, a, b, 3, exact=True) is None
    value = w.brute_force_min_cut(g).value
    t = w.ThresholdSpec.parse("2log10")  # floor(f(10)) + 1 = 3, the minimum degree
    c = w.Clustering.from_assignment(np.zeros(10, np.int64))
    calls = solver_calls(monkeypatch)
    with caplog.at_level(logging.INFO, logger="wellconn"):
        treated, trace = w.wcc_treatment(g, c, t)
        report = w.connectivity_audit(g, c, t)
    assert calls == [10, 10]
    assert treated.num_clusters == (1 if value > 2 else trace.clusters_out)
    assert report.clusters[0].min_cut == value
    assert "0 by certificate, 1 by the solver; 1 certificate passes stalled" in caplog.text


def test_a_certified_piece_passes_without_the_solver(monkeypatch, caplog):
    g = graph_of(12, clique_edges(12))
    c = w.Clustering.from_assignment(np.zeros(12, np.int64))
    calls = solver_calls(monkeypatch)
    with caplog.at_level(logging.INFO, logger="wellconn"):
        treated, trace = w.wcc_treatment(g, c, w.ThresholdSpec.parse("1log10"))
    assert calls == []
    assert treated.num_clusters == 1 and trace.cuts_performed == 0
    assert "0 settled by degree, 1 by certificate, 0 by the solver" in caplog.text
