"""Connectivity audits: categories, proportions, deltas, serialization."""

import random

import networkx as nx
import numpy as np
import pytest

import wellconn as w
from wellconn import _kernels
from wellconn.mincut import BRUTE_FORCE_MAX_NODES
from conftest import (
    clique_edges,
    cycle_edges,
    edges_of,
    graph_of,
    path_edges,
    random_clustering,
    random_graph_any,
    two_cliques,
)


def one_cluster(g):
    return w.Clustering.from_assignment(np.zeros(g.n, np.int64))


class TestCategories:
    def test_wcc_output_is_all_well(self, threshold):
        rng = random.Random(1)
        g = random_graph_any(rng, 80, 0.1)
        c = random_clustering(rng, g.n, kmax=6)
        treated, _ = w.wcc_treatment(g, c, threshold)
        report = w.connectivity_audit(g, treated, threshold)
        assert report.counts["disconnected"] == 0
        assert report.counts["poor"] == 0
        non_singleton = report.counts["well"]
        if non_singleton:
            assert report.proportions["well"] == 1.0

    def test_disconnected_cluster(self, threshold):
        g = two_cliques(5, bridges=0)
        report = w.connectivity_audit(g, one_cluster(g), threshold)
        assert report.counts["disconnected"] == 1
        assert report.proportions["disconnected"] == 1.0
        assert report.clusters[0].min_cut is None

    def test_poorly_connected_bridge_gadget(self, threshold):
        g = two_cliques(10, bridges=1)
        report = w.connectivity_audit(g, one_cluster(g), threshold)
        rec = report.clusters[0]
        assert rec.category == "poor"
        assert rec.min_cut == 1
        assert rec.threshold_bound == pytest.approx(np.log10(20))

    def test_singletons_counted_separately(self, threshold):
        g = graph_of(4, [(0, 1)])
        c = w.Clustering.from_clusters([[0, 1], [2], [3]], 4)
        report = w.connectivity_audit(g, c, threshold)
        assert report.counts["singleton"] == 2
        assert report.counts["well"] == 1
        # proportions are over non-singleton clusters only
        assert report.proportions["well"] == 1.0

    def test_boundary_flag(self, threshold):
        # a 10-cycle with a chord removed... use two K... construct cut == 1 == log10(10)
        edges = [(i, (i + 1) % 10) for i in range(10)]
        g = graph_of(10, edges)  # cycle: min cut 2 > 1 -> well, not boundary
        report = w.connectivity_audit(g, one_cluster(g), threshold)
        assert report.clusters[0].category == "well"
        assert not report.clusters[0].at_boundary
        # path of 10: min cut 1 == log10(10) exactly -> poor and flagged
        g2 = graph_of(10, [(i, i + 1) for i in range(9)])
        report2 = w.connectivity_audit(g2, one_cluster(g2), threshold)
        assert report2.clusters[0].category == "poor"
        assert report2.clusters[0].at_boundary

    def test_mincut_cap_skips_large_clusters(self, threshold):
        g = two_cliques(10, bridges=1)
        report = w.connectivity_audit(g, one_cluster(g), threshold, mincut_size_cap=5)
        assert report.clusters[0].category == "skipped"
        assert report.clusters[0].min_cut is None
        assert report.proportions["skipped"] == 1.0

    def test_negative_mincut_cap_rejected(self, threshold):
        g = graph_of(5, [(0, 1), (2, 3), (3, 4)])
        c = w.Clustering.from_assignment([0, 0, 1, 1, 1])
        with pytest.raises(w.ContractViolation, match="mincut size cap"):
            w.connectivity_audit(g, c, threshold, mincut_size_cap=-1)

    def test_proportions_sum_to_one(self, threshold):
        rng = random.Random(3)
        for _ in range(15):
            g = random_graph_any(rng, rng.randint(2, 60), rng.uniform(0.05, 0.3))
            c = random_clustering(rng, g.n, kmax=8)
            report = w.connectivity_audit(g, c, threshold)
            non_singleton = sum(
                v for k, v in report.counts.items() if k != "singleton"
            )
            if non_singleton:
                assert sum(report.proportions.values()) == pytest.approx(1.0, abs=1e-12)

    def test_cc_output_never_disconnected(self, threshold):
        rng = random.Random(4)
        for _ in range(10):
            g = random_graph_any(rng, rng.randint(2, 50), 0.1)
            c = random_clustering(rng, g.n, kmax=5)
            report = w.connectivity_audit(g, w.cc_treatment(g, c), threshold)
            assert report.counts["disconnected"] == 0

    def test_parallel_matches_serial(self, threshold):
        rng = random.Random(5)
        g = random_graph_any(rng, 100, 0.08)
        # the second input has fewer clusters than workers
        inputs = [
            random_clustering(rng, g.n, kmax=9),
            w.Clustering.from_assignment(np.arange(g.n) % 3),
        ]
        for c in inputs:
            a = w.connectivity_audit(g, c, threshold, processes=1)
            for processes in (2, 4):
                b = w.connectivity_audit(g, c, threshold, processes=processes)
                assert a.to_dict() == b.to_dict()

    def test_cover_mismatch_rejected(self, threshold):
        g = graph_of(3, [(0, 1)])
        with pytest.raises(w.ContractViolation):
            w.connectivity_audit(g, w.Clustering.from_assignment([0, 0]), threshold)


def certified_edges(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """A random connected simple graph on n >= 2 nodes whose minimum degree
    is 1, or at least n // 2 (which makes it connected)."""
    if rng.random() < 0.3:
        # a random connected graph on the first n - 1 nodes, and a pendant node
        edges = {(rng.randrange(v), v) for v in range(1, n - 1)}
        p = rng.uniform(0.0, 0.5)
        edges |= {e for e in clique_edges(n - 1) if rng.random() < p}
        edges.add((rng.randrange(n - 1), n - 1))
        return edges
    # a random graph whose low nodes are then joined to random others, so
    # that most minimum degrees land on n // 2 or just above it
    p = rng.uniform(0.2, 0.9)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in clique_edges(n):
        if rng.random() < p:
            nbrs[a].add(b)
            nbrs[b].add(a)
    for v in range(n):
        while len(nbrs[v]) < n // 2:
            u = rng.choice([u for u in range(n) if u != v and u not in nbrs[v]])
            nbrs[v].add(u)
            nbrs[u].add(v)
    return {(a, b) for a in range(n) for b in nbrs[a] if a < b}


def solver_calls(monkeypatch) -> list[int]:
    """Sizes of the graphs audit hands to the min-cut solver, in call order."""
    calls: list[int] = []
    solve = _kernels.min_cut_csr

    def counted(indptr, adj):
        calls.append(len(indptr) - 1)
        return solve(indptr, adj)

    monkeypatch.setattr(_kernels, "min_cut_csr", counted)
    return calls


class TestDegreeCertificate:
    """A connected cluster of minimum degree 1, or of minimum degree d at least
    half its size rounded down, has min cut d (Chartrand 1966), which audit
    reads without the solver."""

    def test_certified_cut_matches_oracles(self, threshold, monkeypatch):
        rng = random.Random(7)
        edges, assignment, expected = [], [], []
        for cid in range(150):
            n = rng.randint(2, 40)
            own = sorted(certified_edges(rng, n))
            degree = np.bincount(np.array(own).ravel(), minlength=n)
            if n <= BRUTE_FORCE_MAX_NODES:
                value = w.brute_force_min_cut(graph_of(n, own)).value
            else:
                value = int(nx.stoer_wagner(nx.Graph(own))[0])
            assert value == degree.min()
            expected.append(value)
            edges += [(a + len(assignment), b + len(assignment)) for a, b in own]
            assignment += [cid] * n
        # edges between clusters count toward no cluster's degree
        for _ in range(300):
            a, b = rng.randrange(len(assignment)), rng.randrange(len(assignment))
            if assignment[a] != assignment[b]:
                edges.append((a, b))
        g = graph_of(len(assignment), edges)
        c = w.Clustering.from_assignment(assignment)
        calls = solver_calls(monkeypatch)
        report = w.connectivity_audit(g, c, threshold)
        assert calls == []
        assert [rec.min_cut for rec in report.clusters] == expected
        assert all(type(rec.min_cut) is int for rec in report.clusters)

    @staticmethod
    def mixed():
        """A path, a clique, a cycle, two bridged cliques, a singleton and a
        disconnected pair, each a cluster, in that order."""
        parts = [
            path_edges(10),  # minimum degree 1: certified, cut 1
            clique_edges(8),  # 7 >= 8 // 2: certified, cut 7
            cycle_edges(10),  # 2 < 10 // 2: solved, cut 2
            edges_of(two_cliques(6, bridges=1)),  # 5 < 12 // 2: solved, cut 1
            [],
            [],
        ]
        sizes = [10, 8, 10, 12, 1, 2]
        edges, offset = [], 0
        for part, size in zip(parts, sizes):
            edges += [(a + offset, b + offset) for a, b in part]
            offset += size
        edges.append((0, offset - 1))  # joins the path to the disconnected pair
        g = graph_of(offset, edges)
        return g, w.Clustering.from_assignment(np.repeat(np.arange(6), sizes))

    def test_solver_runs_only_on_uncertified_clusters(self, threshold, monkeypatch):
        g, c = self.mixed()
        calls = solver_calls(monkeypatch)
        report = w.connectivity_audit(g, c, threshold)
        assert calls == [10, 12]
        assert [rec.min_cut for rec in report.clusters] == [1, 7, 2, 1, None, None]
        assert [rec.category for rec in report.clusters] == [
            "poor", "well", "well", "poor", "singleton", "disconnected",
        ]
        for processes in (2, 3):
            parallel = w.connectivity_audit(g, c, threshold, processes=processes)
            assert parallel.to_dict() == report.to_dict()

    def test_cap_applies_before_the_certificate(self, threshold, monkeypatch):
        g, c = self.mixed()
        calls = solver_calls(monkeypatch)
        report = w.connectivity_audit(g, c, threshold, mincut_size_cap=9)
        assert calls == []
        # the path is certified and over the cap, so it stays skipped
        assert [rec.min_cut for rec in report.clusters] == [None, 7, None, None, None, None]
        assert [rec.category for rec in report.clusters] == [
            "skipped", "well", "skipped", "skipped", "singleton", "disconnected",
        ]


class TestDelta:
    def test_zero_delta(self, threshold):
        g = two_cliques(5, bridges=1)
        report = w.connectivity_audit(g, one_cluster(g), threshold)
        delta = w.audit_delta(report, report)
        assert delta.node_coverage == 0.0
        assert delta.non_singleton_count == 0
        assert all(v == 0 for v in delta.counts.values())
        assert all(v == 0.0 for v in delta.proportions.values())

    def test_cc_split_delta_plus_one(self, threshold):
        g = two_cliques(5, bridges=0)
        before = w.connectivity_audit(g, one_cluster(g), threshold)
        after = w.connectivity_audit(g, w.cc_treatment(g, one_cluster(g)), threshold)
        delta = w.audit_delta(before, after)
        assert delta.non_singleton_count == 1  # one cluster became two

    def test_cc_split_delta_plus_zero_with_singleton_side(self, threshold):
        # K5 plus an isolated node in the same cluster: 1 non-singleton stays 1
        g = graph_of(6, clique_edges(5))
        before = w.connectivity_audit(g, one_cluster(g), threshold)
        after_c = w.cc_treatment(g, one_cluster(g))
        after = w.connectivity_audit(g, after_c, threshold)
        delta = w.audit_delta(before, after)
        assert delta.non_singleton_count == 0
        assert delta.node_coverage == pytest.approx(-100.0 / 6)

    def test_digest_mismatch_rejected(self, threshold):
        g1 = graph_of(3, [(0, 1), (1, 2)])
        g2 = graph_of(3, [(0, 1)])
        r1 = w.connectivity_audit(g1, one_cluster(g1), threshold)
        r2 = w.connectivity_audit(g2, one_cluster(g2), threshold)
        with pytest.raises(w.ContractViolation):
            w.audit_delta(r1, r2)

