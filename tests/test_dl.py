"""Description-length accounting: the edge-count prior and diff reports."""

import io
import math
import random

import numpy as np
import pytest

import wellconn as w
from conftest import graph_of, random_clustering, random_graph_any


class TestEdgeCountPrior:
    def test_single_block_exactly_zero(self):
        for edges in (0, 1, 10**6):
            assert w.edge_count_prior_cost(1, edges) == 0.0

    def test_two_blocks_one_edge(self):
        assert w.edge_count_prior_cost(2, 1) == pytest.approx(math.log(3), rel=1e-12)

    def test_matches_big_integer_binomial(self):
        for blocks, edges in ((10, 1000), (3, 17), (25, 12345), (100, 100000)):
            top = blocks * (blocks + 1) // 2 + edges - 1
            exact = math.log(math.comb(top, edges))
            got = w.edge_count_prior_cost(blocks, edges)
            assert got == pytest.approx(exact, rel=1e-9)

    def test_strictly_increasing_in_blocks(self):
        for edges in (1, 100):
            values = [w.edge_count_prior_cost(b, edges) for b in range(1, 200)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_increments_positive_then_slowing(self):
        # increments are positive everywhere; they decrease once the block-pair
        # count passes the edge count (the slowing is asymptotic in the block
        # count; for B(B+1)/2 < E the growing step size dominates)
        for edges in (1, 100, 500):
            values = [w.edge_count_prior_cost(b, edges) for b in range(1, 200)]
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert all(d > 0 for d in diffs)
            start = math.isqrt(2 * edges) + 1
            tail = diffs[start:]
            assert all(d2 < d1 + 1e-9 for d1, d2 in zip(tail, tail[1:]))

    def test_contract_violations(self):
        with pytest.raises(w.ContractViolation):
            w.edge_count_prior_cost(0, 5)
        with pytest.raises(w.ContractViolation):
            w.edge_count_prior_cost(2, -1)


class TestPeForClustering:
    def test_single_cluster_zero(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)])
        c = w.Clustering.from_assignment([0, 0, 0])
        assert w.pe_for_clustering(g, c) == 0.0

    def test_triangle_all_singletons(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)])
        c = w.Clustering.from_assignment([0, 1, 2])
        assert w.pe_for_clustering(g, c) == pytest.approx(math.log(56), rel=1e-12)

    def test_blocks_include_singletons(self):
        g = graph_of(4, [(0, 1)])
        c = w.Clustering.from_clusters([[0, 1], [2], [3]], 4)
        assert w.pe_for_clustering(g, c) == pytest.approx(
            w.edge_count_prior_cost(3, 1)
        )

    def test_cc_split_strictly_increases_pe(self, threshold):
        rng = random.Random(11)
        found = 0
        while found < 10:
            g = random_graph_any(rng, rng.randint(4, 40), 0.08)
            c = random_clustering(rng, g.n, kmax=4)
            treated = w.cc_treatment(g, c)
            if treated.num_clusters == c.num_clusters or g.m == 0:
                continue
            assert w.pe_for_clustering(g, treated) > w.pe_for_clustering(g, c)
            found += 1


TABLE1_UNTREATED = w.DLComponents(699, 96, 147, 51, unit="k")
TABLE1_TREATED = w.DLComponents(316, 45, 257, 1585, unit="k")


class TestCompose:
    def test_untreated_total(self):
        assert w.compose_dl(TABLE1_UNTREATED) == pytest.approx(993)

    def test_treated_total_within_rounding(self):
        assert abs(w.compose_dl(TABLE1_TREATED) - 2202) <= 1
        assert w.compose_dl(TABLE1_TREATED) == pytest.approx(2203)

    def test_all_zero(self):
        assert w.compose_dl(w.DLComponents(0, 0, 0, 0)) == 0.0

    def test_negative_component_rejected(self):
        with pytest.raises(w.ContractViolation):
            w.DLComponents(-1, 0, 0, 0)
        with pytest.raises(w.ContractViolation):
            w.DLComponents._make((0, 0, 0, float("nan")))
        with pytest.raises(w.ContractViolation):
            w.DLComponents(1, 1, 1, 1)._replace(degrees=-2.0)


class TestDiff:
    def test_linux_flip(self):
        report = w.dl_diff(TABLE1_UNTREATED, TABLE1_TREATED)
        assert report.edge_counts == pytest.approx(1534)
        assert abs(report.total - 1209) <= 1
        assert report.preference == "untreated"
        assert report.preference_without_pe == "treated"
        assert report.flipped

    def test_equal_components_zero(self):
        report = w.dl_diff(TABLE1_UNTREATED, TABLE1_UNTREATED)
        assert report.total == 0.0
        assert report.preference == "tie"
        assert not report.flipped

    def test_treated_better_both_ways(self):
        untreated = w.DLComponents(1, 1, 1, 10)
        treated = w.DLComponents(0, 0, 0, 0)
        report = w.dl_diff(untreated, treated)
        assert report.preference == "treated"
        assert report.preference_without_pe == "treated"
        assert not report.flipped

    def test_unit_mismatch(self):
        with pytest.raises(w.UnitMismatch):
            w.dl_diff(TABLE1_UNTREATED, w.DLComponents(1, 1, 1, 1, unit="nats"))

    def test_total_equals_component_sum(self):
        report = w.dl_diff(TABLE1_UNTREATED, TABLE1_TREATED)
        assert report.total == pytest.approx(
            report.adjacency + report.degrees + report.partition + report.edge_counts,
            rel=1e-9,
        )

    def test_flipped_fraction_over_corpus(self):
        # the flipped fraction reported via dl_diff matches recomputing the
        # two preferences directly from the component values
        rng = random.Random(31)
        pairs = []
        for _ in range(200):
            untreated = w.DLComponents(*(rng.uniform(0, 1000) for _ in range(4)))
            treated = w.DLComponents(*(rng.uniform(0, 1000) for _ in range(4)))
            pairs.append((untreated, treated))
        reported = sum(1 for u, t in pairs if w.dl_diff(u, t).flipped)
        direct = 0
        for u, t in pairs:
            with_pe = t.total() < u.total()
            without_pe = (t.total() - t.edge_counts) < (u.total() - u.edge_counts)
            if with_pe != without_pe:
                direct += 1
        assert reported == direct


class TestComponentFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "components.json"
        w.save_components(TABLE1_TREATED, path)
        back = w.load_components(path)
        assert back == TABLE1_TREATED

    def test_stream_and_dict_inputs(self):
        buf = io.StringIO()
        w.save_components(TABLE1_UNTREATED, buf)
        back = w.load_components(io.StringIO(buf.getvalue()))
        assert back == TABLE1_UNTREATED
        back2 = w.load_components(
            {"unit": "k", "components": {
                "adjacency": 699, "degrees": 96, "partition": 147, "edge_counts": 51
            }}
        )
        assert back2 == TABLE1_UNTREATED

    def test_missing_key_rejected(self):
        with pytest.raises(w.ContractViolation):
            w.load_components({"unit": "k", "components": {"adjacency": 1}})
