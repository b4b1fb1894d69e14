"""Clustering model: canonical form, thresholds, stats, file round trips."""

import io
import random
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellconn as w
from conftest import as_sources
from wellconn import cli, clustering


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


# ---------------------------------------------------------------------------
# the join of membership files to graph nodes, against a reference built on a
# label -> index dict, as the join was first written


def ref_admit(g, *memberships):
    index = {lab: i for i, lab in enumerate(g.labels)}
    extra = dict.fromkeys(lab for m in memberships for lab in m if lab not in index)
    if not extra:
        return g, index
    extra_index = {lab: g.n + i for i, lab in enumerate(extra)}
    return g.with_isolated(list(extra)), {**index, **extra_index}


def ref_clustering_from_membership(membership, label_index):
    nodes, token_ids, tokens = [], [], {}
    for label, token in membership.items():
        node = label_index.get(label)
        if node is not None:
            nodes.append(node)
            token_ids.append(tokens.setdefault(token, len(tokens)))
    assignment = np.full(len(label_index), -1, np.int64)
    assignment[nodes] = token_ids
    free = np.flatnonzero(assignment < 0)
    assignment[free] = len(tokens) + np.arange(len(free))
    return w.Clustering.from_assignment(assignment)


def ref_universe(graph, truth_map, est_map, restrict_common):
    """The eval universe: both clusterings, the graph and the restriction counts."""
    sizes = len(truth_map), len(est_map)
    restrict = restrict_common
    if graph is None:
        restrict = truth_map.keys() != est_map.keys()
        if restrict and not restrict_common:
            raise w.ContractViolation("clustering files cover different node sets")
    if restrict:
        order = truth_map if graph is None else graph.labels
        keep = [lab for lab in order if lab in truth_map and lab in est_map]
        if graph is not None:
            index = {lab: i for i, lab in enumerate(graph.labels)}
            graph, _ = w.induced_subgraph(graph, [index[lab] for lab in keep])
        truth_map = {lab: truth_map[lab] for lab in keep}
        est_map = {lab: est_map[lab] for lab in keep}
    graph, index = ref_admit(graph or w.Graph.from_edges(0, []), truth_map, est_map)
    if not index:
        raise w.ContractViolation("evaluation universe is empty")
    restricted = {
        "restricted": restrict,
        "dropped_truth": sizes[0] - len(truth_map),
        "dropped_estimated": sizes[1] - len(est_map),
    }
    truth = ref_clustering_from_membership(truth_map, index)
    est = ref_clustering_from_membership(est_map, index)
    return truth, est, graph, restricted


def membership_text(membership: dict[str, str]) -> str:
    return "".join(f"{lab}\t{tok}\n" for lab, tok in membership.items())


# a few labels and tokens, so that memberships name graph nodes, miss some,
# add unknown labels, and share tokens
join_labels = st.sampled_from("abcdefgh")
join_memberships = st.dictionaries(join_labels, st.sampled_from("xyz"), max_size=8)
join_edgelists = st.lists(st.tuples(join_labels, join_labels), max_size=10).map(
    lambda edges: "".join(f"{u}\t{v}\n" for u, v in edges)
)


class TestJoinReference:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(join_edgelists, join_memberships, join_memberships)
    def test_load_clustering_and_admit(self, edgelist, membership, other):
        g, _ = w.load_edgelist(io.StringIO(edgelist))
        res = w.load_clustering(io.StringIO(membership_text(membership)), g)
        graph, index = ref_admit(g, membership)
        unknown = graph.n - g.n
        assert res.clustering == ref_clustering_from_membership(membership, index)
        assert res.graph.labels == graph.labels
        assert res.unknown_labels == unknown
        assert res.missing_nodes == g.n - (len(membership) - unknown)
        assert (res.graph is g) == (graph is g)
        assert clustering.admit(g, membership, other).labels == (
            ref_admit(g, membership, other)[0].labels
        )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(join_memberships, st.lists(join_labels, unique=True))
    def test_membership_ids_are_canonical_as_made(self, membership, labels):
        # named, unnamed and skipped labels alike: no second numbering changes it
        made = clustering.clustering_from_membership(membership, labels)
        again = w.Clustering.from_assignment(made.assignment)
        assert made.assignment.dtype == np.int64
        assert made.assignment.tolist() == again.assignment.tolist()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.none() | join_edgelists, join_memberships, join_memberships, st.booleans()
    )
    def test_eval_universe(self, edgelist, truth_map, est_map, restrict_common):
        args = Namespace(
            edgelist=None if edgelist is None else io.StringIO(edgelist),
            ground_truth=io.StringIO(membership_text(truth_map)),
            estimated=io.StringIO(membership_text(est_map)),
            restrict_common=restrict_common,
        )
        graph = None if edgelist is None else w.load_edgelist(io.StringIO(edgelist))[0]
        try:
            expected = ref_universe(graph, truth_map, est_map, restrict_common)
        except w.ContractViolation as exc:
            with pytest.raises(w.ContractViolation, match=str(exc)):
                cli._universe_for_eval(args)
            return
        truth, est, graph, restricted = cli._universe_for_eval(args)
        ref_truth, ref_est, ref_graph, ref_restricted = expected
        assert (truth, est, restricted) == (ref_truth, ref_est, ref_restricted)
        assert graph.digest() == ref_graph.digest()
