"""Clustering model: canonical form, thresholds, stats, file round trips."""

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellconn as w
from conftest import as_sources
from wellconn import clustering


def triangle():
    g, _ = w.load_edgelist(io.StringIO("a\tb\nb\tc\nc\ta\n"))
    return g


class TestLoadClustering:
    def test_missing_nodes_become_singletons(self):
        g = triangle()
        res = w.load_clustering(io.StringIO("a\tx\nb\tx\n"), g)
        assert [c.tolist() for c in res.clustering.clusters] == [[0, 1], [2]]
        assert res.missing_nodes == 1
        assert res.unknown_labels == 0
        assert res.graph is g

    def test_single_token_covers_all(self):
        g = triangle()
        res = w.load_clustering(io.StringIO("a\t7\nb\t7\nc\t7\n"), g)
        assert res.clustering.num_clusters == 1
        assert len(res.clustering.clusters[0]) == 3

    def test_conflicting_assignment_rejected(self):
        g = triangle()
        with pytest.raises(w.ClusteringParseError) as err:
            w.load_clustering(io.StringIO("a\tx\nb\tx\na\ty\n"), g)
        assert err.value.line_number == 3
        assert str(err.value) == (
            "clustering line 3: node 'a' assigned to conflicting clusters 'x' and 'y'"
        )

    def test_duplicate_consistent_assignment_allowed(self):
        g = triangle()
        res = w.load_clustering(io.StringIO("a\tx\na\tx\nb\tx\nc\ty\n"), g)
        assert res.clustering.num_clusters == 2

    def test_unknown_labels_admitted_as_degree0(self):
        g = triangle()
        res = w.load_clustering(io.StringIO("a\tx\nb\tx\nc\tx\nzz\tx\n"), g)
        assert res.unknown_labels == 1
        assert res.graph.n == 4
        assert res.graph.degree(3) == 0
        assert res.clustering.n == 4

    def test_malformed_line(self):
        g = triangle()
        with pytest.raises(w.ClusteringParseError) as err:
            w.load_clustering(io.StringIO("a\tx\nb x\n"), g)
        assert err.value.line_number == 2


class TestCanonicalForm:
    def test_ids_ordered_by_minimum_member(self):
        c = w.Clustering.from_assignment([9, 4, 9, 1])
        assert c.assignment.tolist() == [0, 1, 0, 2]

    def test_idempotent(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 50)
            c = w.Clustering.from_assignment([rng.randrange(8) for _ in range(n)])
            again = w.Clustering.from_assignment(c.assignment)
            assert c == again

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40), st.permutations(range(10)))
    def test_relabeling_invariant(self, assignment, perm):
        c1 = w.Clustering.from_assignment(assignment)
        c2 = w.Clustering.from_assignment([perm[x] for x in assignment])
        assert c1 == c2

    def test_round_trip_exact(self):
        g = triangle()
        res = w.load_clustering(io.StringIO("b\they\nc\they\na\tyo\n"), g)
        buf = io.StringIO()
        w.write_clustering(res.clustering, g, buf)
        res2 = w.load_clustering(io.StringIO(buf.getvalue()), g)
        assert res2.clustering == res.clustering
        buf2 = io.StringIO()
        w.write_clustering(res2.clustering, g, buf2)
        assert buf.getvalue() == buf2.getvalue()

    def test_output_sorted_by_label_bytes(self):
        g, _ = w.load_edgelist(io.StringIO("zz\taa\nmm\tzz\n"))
        c = w.Clustering.from_assignment([0, 0, 1])
        buf = io.StringIO()
        w.write_clustering(c, g, buf)
        labels = [line.split("\t")[0] for line in buf.getvalue().splitlines()]
        assert labels == sorted(labels)

    def test_from_clusters_validation(self):
        with pytest.raises(w.ContractViolation):
            w.Clustering.from_clusters([[0, 1], [1, 2]], 3)
        with pytest.raises(w.ContractViolation):
            w.Clustering.from_clusters([[0]], 2)


class TestThreshold:
    @pytest.mark.parametrize(
        "text,kind,coef",
        [
            ("1log10", "log10-multiple", 1.0),
            ("0log10", "log10-multiple", 0.0),
            ("2.5log10", "log10-multiple", 2.5),
            ("3", "constant", 3.0),
            ("connectivity", "connectivity-only", 0.0),
        ],
    )
    def test_parse(self, text, kind, coef):
        spec = w.ThresholdSpec.parse(text)
        assert spec.kind == kind
        assert spec.coefficient == coef

    def test_parse_rejects_garbage(self):
        for bad in ("xlog10", "1.5", "-1log10", "log10",
                    "nanlog10", "inflog10", "1e400log10"):
            with pytest.raises(w.ContractViolation):
                w.ThresholdSpec.parse(bad)

    def test_str_round_trip(self):
        for text in ("1log10", "0log10", "2.5log10", "3", "connectivity"):
            assert str(w.ThresholdSpec.parse(text)) == text

    def test_well_connected_strict_boundary(self, threshold):
        assert not w.is_well_connected(1, 10, threshold)  # 1 is not > log10(10)
        assert w.is_well_connected(2, 10, threshold)
        assert w.is_well_connected(9, 10, threshold)

    def test_singletons_pass_by_convention(self, threshold):
        assert w.is_well_connected(0, 1, threshold)
        assert w.is_well_connected(0, 1, w.ThresholdSpec.parse("5"))

    def test_size_two_with_edge_passes_default(self, threshold):
        assert w.is_well_connected(1, 2, threshold)  # 1 > log10(2)

    def test_connectivity_only(self):
        t = w.ThresholdSpec.parse("connectivity")
        assert w.is_well_connected(1, 1000, t)
        assert t.value(1000) == 0.0

    def test_invalid_inputs(self, threshold):
        with pytest.raises(w.ContractViolation):
            w.is_well_connected(1, 0, threshold)
        with pytest.raises(w.ContractViolation):
            w.is_well_connected(-1, 5, threshold)


class TestStatistics:
    def test_coverage_examples(self):
        assert w.node_coverage(w.Clustering.from_assignment(range(6))) == 0.0
        assert w.node_coverage(w.Clustering.from_assignment([0] * 6)) == 100.0
        c = w.Clustering.from_clusters([[0, 1, 2, 3], [4, 5, 6], [7], [8], [9]], 10)
        assert w.node_coverage(c) == 70.0

    def test_coverage_empty(self):
        assert w.node_coverage(w.Clustering.from_assignment([])) == 0.0

    def test_stats_mixed(self):
        c = w.Clustering.from_clusters([range(5), range(5, 8), [8]], 9)
        s = w.cluster_stats(c)
        assert s.non_singleton_count == 2
        assert s.median_nonsingleton_size == 4.0
        assert s.max_nonsingleton_size == 5
        assert s.node_coverage == pytest.approx(100 * 8 / 9)

    def test_stats_all_singletons(self):
        s = w.cluster_stats(w.Clustering.from_assignment(range(4)))
        assert s.non_singleton_count == 0
        assert s.median_nonsingleton_size is None
        assert s.max_nonsingleton_size == 0

    def test_stats_single_cluster(self):
        s = w.cluster_stats(w.Clustering.from_assignment([0] * 7))
        assert (s.non_singleton_count, s.median_nonsingleton_size, s.max_nonsingleton_size) == (1, 7.0, 7)

    def test_median_even_count(self):
        c = w.Clustering.from_clusters([[0, 1], [2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12, 13]], 14)
        assert w.cluster_stats(c).median_nonsingleton_size == 3.5


class TestRefinement:
    def test_identity_refines(self):
        c = w.Clustering.from_assignment([0, 0, 1, 1])
        assert w.is_refinement(c, c)

    def test_singletons_refine_everything(self):
        fine = w.Clustering.from_assignment(range(4))
        coarse = w.Clustering.from_assignment([0, 0, 1, 1])
        assert w.is_refinement(fine, coarse)
        assert not w.is_refinement(coarse, fine)

    def test_crossing_clusters(self):
        a = w.Clustering.from_assignment([0, 0, 1])
        b = w.Clustering.from_assignment([0, 1, 1])
        assert not w.is_refinement(a, b)

    def test_universe_mismatch(self):
        with pytest.raises(w.UniverseMismatch):
            w.is_refinement(
                w.Clustering.from_assignment([0, 1]),
                w.Clustering.from_assignment([0, 1, 2]),
            )

    def test_coverage_monotone_under_refinement(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 60)
            coarse = w.Clustering.from_assignment([rng.randrange(5) for _ in range(n)])
            # refine by splitting each cluster into up to 3 random parts
            fine_ids = []
            for v in range(n):
                fine_ids.append(coarse.assignment[v] * 3 + rng.randrange(3))
            fine = w.Clustering.from_assignment(fine_ids)
            assert w.is_refinement(fine, coarse)
            assert w.node_coverage(fine) <= w.node_coverage(coarse) + 1e-12


def membership_outcome(source, reader=w.read_membership):
    """What reading `source` gives: the membership items in order, or the error."""
    try:
        return list(reader(source).items())
    except w.ClusteringParseError as exc:
        return ("error", exc.line_number, str(exc))


NO_TAB = "expected two tab-separated tokens, got "
AB = [("a", "x"), ("b", "y")]


class TestMembershipFallback:
    """Each input the bulk reader leaves to the per-line loop, and its border cases.

    `bulk` says whether the input has the shape the bulk reader takes; the
    expected value is the membership items, or the line and message of the
    error.
    """

    @pytest.mark.parametrize("raw, bulk, expected", [
        pytest.param(b"a\tx\r\nb\ty\r\n", False, AB, id="crlf"),
        pytest.param(b"a\tx\n\nb\ty\n", False, AB, id="blank-line"),
        pytest.param(b"a\tx\n\x0b\t\x0c\nb\ty\n", False, AB, id="whitespace-only-line"),
        pytest.param(b"a\tx\nby\n", False, (2, NO_TAB + "'by'"), id="no-tab"),
        pytest.param(b"a\tx\ty\n", False, (1, NO_TAB + r"'a\tx\ty'"), id="two-tabs"),
        pytest.param(b"a\tx\nb\t\n", False, (2, NO_TAB + r"'b\t'"), id="empty-token"),
        pytest.param(b"abcdefghi\tx\n", True, [("abcdefghi", "x")], id="nine-byte-label"),
        pytest.param("é\tx\n".encode(), False, [("é", "x")], id="non-ascii-label"),
        pytest.param("a\tx\n\u00a0\nb\ty\n".encode(), False, AB, id="nbsp-line"),
        pytest.param(b"", False, [], id="empty-file"),
        pytest.param(b"a\tx\nb\ty", True, AB, id="no-final-lf"),
        pytest.param(b"a\tx\nb\ty\na\tx\n", True, AB, id="repeated-assignment"),
        pytest.param(b"a\tx\nb\tx\na\ty\n", True,
                     (3, "node 'a' assigned to conflicting clusters 'x' and 'y'"),
                     id="conflicting-assignment"),
    ])
    def test_input_shape(self, tmp_path, raw, bulk, expected):
        assert (clustering._two_columns(raw) is not None) == bulk
        loop = membership_outcome(
            raw, lambda src: clustering._membership_from_lines(src, "\n")
        )
        for source in as_sources(raw, tmp_path):
            got = membership_outcome(source)
            assert got == loop
            if isinstance(expected, tuple):
                line, message = expected
                assert got == ("error", line, f"clustering line {line}: {message}")
            else:
                assert got == expected

    def test_cr_only_splits_lines_of_a_path_alone(self, tmp_path):
        raw = b"a\tx\rb\ty\r"
        path, data, stream = as_sources(raw, tmp_path)
        assert membership_outcome(path) == AB
        error = ("error", 1, "clustering line 1: " + NO_TAB + r"'a\tx\rb\ty'")
        assert membership_outcome(data) == membership_outcome(stream) == error

    def test_not_utf8_names_its_line(self, tmp_path):
        raw = b"a\tx\n\nb\tcaf\xe9\n"
        path = tmp_path / "in.tsv"
        path.write_bytes(raw)
        for source in (path, raw, io.BytesIO(raw)):
            assert membership_outcome(source) == (
                "error", 3, "clustering line 3: not valid UTF-8 (byte 0xe9)"
            )
