"""Accuracy metrics: contingency, NMI, ARI, AGRI, RMI with oracles."""

import math
import random

import numpy as np
import pytest

import wellconn as w
from conftest import (
    all_partitions,
    clique_edges,
    enumerate_tables,
    graph_of,
    pair_count_ari,
    random_graph_any,
)
from wellconn.metrics import _independence_estimate, count_tables, log2_table_count


def cl(assignment):
    return w.Clustering.from_assignment(assignment)


def random_pair(rng, n, kmax=6):
    a = cl([rng.randrange(1, kmax + 1) for _ in range(n)])
    b = cl([rng.randrange(1, kmax + 1) for _ in range(n)])
    return a, b


class TestContingency:
    def test_identical_diagonal(self):
        c = cl([0, 0, 1, 1, 2])
        table = w.contingency(c, c)
        dense = table.dense()
        assert (dense > 0).sum(axis=1).tolist() == [1, 1, 1]
        assert np.trace(dense) == 5

    def test_singletons_spread_rows(self):
        truth = cl([0, 0, 1, 1])
        est = cl(range(4))
        dense = w.contingency(truth, est).dense()
        assert (dense == 1).sum() == 4
        assert dense.sum() == 4

    def test_crossing_all_ones(self):
        dense = w.contingency(cl([0, 0, 1, 1]), cl([0, 1, 0, 1])).dense()
        assert dense.tolist() == [[1, 1], [1, 1]]

    def test_margins(self):
        rng = random.Random(0)
        for _ in range(20):
            a, b = random_pair(rng, rng.randint(1, 40))
            table = w.contingency(a, b)
            dense = table.dense()
            assert dense.sum(axis=1).tolist() == list(table.row_sums)
            assert dense.sum(axis=0).tolist() == list(table.col_sums)
            assert dense.sum() == table.n

    def test_universe_mismatch(self):
        with pytest.raises(w.UniverseMismatch):
            w.contingency(cl([0, 1]), cl([0, 1, 2]))


class TestNMI:
    def test_identical_is_one(self):
        c = cl([0, 0, 1, 1, 2])
        assert w.nmi(c, c) == pytest.approx(1.0)

    def test_independent_table_is_zero(self):
        truth = cl([0, 0, 0, 0, 1, 1, 1, 1])
        est = cl([0, 0, 1, 1, 0, 0, 1, 1])
        assert w.nmi(truth, est) == pytest.approx(0.0, abs=1e-12)

    def test_relabeled_is_one(self):
        assert w.nmi(cl([0, 0, 1, 1]), cl([5, 5, 2, 2])) == pytest.approx(1.0)

    def test_degenerate_both_trivial(self):
        single = cl([0, 0, 0])
        assert w.nmi(single, single) == 1.0

    def test_degenerate_one_trivial(self):
        assert w.nmi(cl([0, 0, 0, 0]), cl([0, 0, 1, 1])) == 0.0

    def test_symmetry_and_range(self):
        rng = random.Random(1)
        for _ in range(30):
            a, b = random_pair(rng, rng.randint(2, 50))
            x = w.nmi(a, b)
            assert x == pytest.approx(w.nmi(b, a), abs=1e-12)
            assert -1e-12 <= x <= 1 + 1e-12


class TestARI:
    def test_identical_is_one(self):
        c = cl([0, 0, 1, 1, 2, 2])
        assert w.ari(c, c) == 1.0

    def test_crossing_pairs_value(self):
        # permutation-model value (see README on the -1/3 expectation)
        assert w.ari(cl([0, 0, 1, 1]), cl([0, 1, 0, 1])) == pytest.approx(-0.5)

    def test_matches_pair_counting_oracle(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 50)
            a, b = random_pair(rng, n)
            expected = pair_count_ari(a, b)
            assert abs(w.ari(a, b) - float(expected)) < 1e-12

    def test_singleton_estimate_nonpositive(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(3, 30)
            truth = cl([rng.randrange(3) for _ in range(n)])
            if truth.num_clusters == n:
                continue
            est = cl(range(n))
            assert w.ari(truth, est) <= 0.0

    def test_degenerate_all_singletons_both(self):
        c = cl(range(5))
        assert w.ari(c, c) == 1.0

    def test_requires_two_nodes(self):
        with pytest.raises(w.ContractViolation):
            w.ari(cl([0]), cl([0]))

    def test_symmetry(self):
        rng = random.Random(4)
        for _ in range(20):
            a, b = random_pair(rng, rng.randint(2, 40))
            assert w.ari(a, b) == pytest.approx(w.ari(b, a), abs=1e-14)


class TestAGRI:
    def test_identical_is_one(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        c = cl([0, 0, 1, 1])
        assert w.agri(g, c, c) == 1.0

    def test_equals_ari_on_complete_graph(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 30)
            g = graph_of(n, clique_edges(n))
            a, b = random_pair(rng, n)
            assert abs(w.agri(g, a, b) - w.ari(a, b)) < 1e-12

    def test_singleton_estimate_minimal_for_internal_truth(self):
        # truth puts every edge inside a cluster; enumerate all estimates
        g = graph_of(5, [(0, 1), (1, 2), (3, 4)])
        truth = cl([0, 0, 0, 1, 1])
        scores = []
        for parts in all_partitions(range(5)):
            est = w.Clustering.from_clusters(parts, 5)
            scores.append(w.agri(g, truth, est))
        singleton_score = w.agri(g, truth, cl(range(5)))
        assert singleton_score == min(scores)

    def test_symmetry(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 25)
            g = random_graph_any(rng, n, 0.4)
            a, b = random_pair(rng, n)
            assert w.agri(g, a, b) == pytest.approx(w.agri(g, b, a), abs=1e-14)

    def test_universe_checks(self):
        g = graph_of(3, [(0, 1)])
        with pytest.raises(w.UniverseMismatch):
            w.agri(g, cl([0, 1]), cl([0, 1]))


class TestTableCounts:
    def test_hand_cases(self):
        assert count_tables((1, 1), (1, 1)) == 2
        assert count_tables((2,), (1, 1)) == 1
        assert count_tables((2, 1), (2, 1)) == 2
        assert count_tables((3,), (3,)) == 1
        assert count_tables((), ()) == 1

    def test_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 8)
            a, b = random_pair(rng, n, kmax=3)
            rows = tuple(len(c) for c in a.clusters)
            cols = tuple(len(c) for c in b.clusters)
            assert count_tables(rows, cols) == enumerate_tables(list(rows), list(cols))

    def test_log2_exact_path(self):
        value, method = log2_table_count((1, 1), (1, 1))
        assert method == "exact-enumeration"
        assert value == pytest.approx(1.0)

    def test_log2_approx_path_marked(self):
        rows = tuple([5] * 10)
        value, method = log2_table_count(rows, rows)
        assert method == "independence-approximation"
        assert value > 0

    def test_approx_exact_for_single_row(self):
        value, _ = log2_table_count((30,), (10, 10, 10))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_estimate_equals_its_term_by_term_sum(self):
        # one lgamma term per distinct margin, summed in the margins' order,
        # gives the bits of one term per margin
        def logc(a, k):
            return (math.lgamma(a + 1) - math.lgamma(k + 1)
                    - math.lgamma(a - k + 1)) * math.log2(math.e)

        def margin():
            return tuple(rng.choice((1, 1, 1, 2, 3, 50)) for _ in range(rng.randint(1, 300)))

        rng = random.Random(17)
        for _ in range(30):
            rows, cols = margin(), margin()
            r, s, n = len(rows), len(cols), sum(rows)
            expected = (
                sum(logc(a + s - 1, s - 1) for a in rows)
                + sum(logc(b + r - 1, r - 1) for b in cols)
                - logc(n + r * s - 1, r * s - 1)
            )
            assert _independence_estimate(rows, cols) == expected


class TestRMI:
    def test_self_normalized_is_one(self):
        for assignment in ([0, 0, 1, 1], [0, 1, 2], [0, 0, 0], list(range(6))):
            c = cl(assignment)
            assert w.rmi(c, c, True) == pytest.approx(1.0)

    def test_unnormalized_single_cluster_zero(self):
        c = cl([0, 0, 0, 0])
        assert w.rmi(c, c, False) == pytest.approx(0.0)

    def test_swap_case_matches_enumeration_oracle(self):
        truth = cl([0, 0, 0, 1, 1, 1])
        est = cl([0, 0, 1, 0, 1, 1])  # one swap across the two triples
        table = w.contingency(truth, est)
        n = table.n
        mi = 0.0
        dense = table.dense()
        for i in range(dense.shape[0]):
            for j in range(dense.shape[1]):
                if dense[i, j]:
                    mi += (dense[i, j] / n) * math.log2(
                        dense[i, j] * n / (table.row_sums[i] * table.col_sums[j])
                    )
        omega = enumerate_tables(list(table.row_sums), list(table.col_sums))
        expected = mi - math.log2(omega) / n
        assert w.rmi(truth, est, False) == pytest.approx(expected, abs=1e-12)

    def test_table_cost_strictly_reduces_mi(self):
        truth = cl([0, 0, 0, 1, 1, 1])
        est = cl(range(6))
        # hand-computed: MI = 1 bit, tables with margins (3,3)x(1,)*6 = C(6,3)
        got = w.rmi(truth, est, False)
        assert got == pytest.approx(1.0 - math.log2(20) / 6, abs=1e-12)
        assert got < 1.0  # the table cost strictly reduces the MI of 1 bit
        # and the normalized score ranks the singleton estimate below identity
        assert w.rmi(truth, est, True) < w.rmi(truth, truth, True)

    def test_relabeling_invariance(self):
        rng = random.Random(8)
        for _ in range(15):
            n = rng.randint(2, 15)
            a, b = random_pair(rng, n, kmax=4)
            perm = list(range(10))
            rng.shuffle(perm)
            b2 = cl([perm[x] for x in b.assignment.tolist()])
            assert w.rmi(a, b, True) == pytest.approx(w.rmi(a, b2, True), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(9)
        for _ in range(15):
            a, b = random_pair(rng, rng.randint(2, 15), kmax=4)
            assert w.rmi(a, b, True) == pytest.approx(w.rmi(b, a, True), abs=1e-12)
            assert w.rmi(a, b, False) == pytest.approx(w.rmi(b, a, False), abs=1e-12)


class TestInvarianceAcrossMetrics:
    def test_relabeling_invariance_all(self):
        rng = random.Random(10)
        for _ in range(10):
            n = rng.randint(2, 25)
            g = random_graph_any(rng, n, 0.4)
            a, b = random_pair(rng, n)
            perm = list(range(12))
            rng.shuffle(perm)
            b2 = cl([perm[x] for x in b.assignment.tolist()])
            assert w.nmi(a, b) == pytest.approx(w.nmi(a, b2), abs=1e-12)
            assert w.ari(a, b) == pytest.approx(w.ari(a, b2), abs=1e-12)
            assert w.agri(g, a, b) == pytest.approx(w.agri(g, a, b2), abs=1e-12)
