"""Clustering model: canonical form, thresholds, stats, file round trips."""

import io
import random
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wellconn as w
from conftest import as_sources, written
from wellconn import cli, clustering, graph


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

    @pytest.mark.parametrize("args", [
        ("log10",), ("unknown", 1.0), ("constant", -1.0), ("constant", float("nan")),
        ("log10-multiple", float("inf")), ("log10-multiple", -0.5),
    ])
    def test_constructor_rejects_what_parse_rejects(self, args):
        with pytest.raises(w.ContractViolation):
            w.ThresholdSpec(*args)
        with pytest.raises(w.ContractViolation):
            w.ThresholdSpec._make(args)
        spec = w.ThresholdSpec("constant", 1.0)
        with pytest.raises(w.ContractViolation):
            spec._replace(**dict(zip(spec._fields, args)))

    def test_constructor_forms_and_defaults(self):
        spec = w.ThresholdSpec(kind="constant", coefficient=3.0)
        assert spec == w.ThresholdSpec("constant", 3.0) == w.ThresholdSpec.parse("3")
        assert w.ThresholdSpec("log10-multiple") == w.DEFAULT_THRESHOLD
        assert repr(spec) == "ThresholdSpec(kind='constant', coefficient=3.0)"

    def test_immutable_and_hashed_by_value(self):
        spec = w.ThresholdSpec.parse("2.5log10")
        for attr in ("kind", "coefficient", "KINDS", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, attr, None)
        same = w.ThresholdSpec("log10-multiple", 2.5)
        assert same == spec and hash(same) == hash(spec)
        assert len({spec, same, w.ThresholdSpec.parse("3")}) == 2

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


def pairs_text(pairs) -> str:
    """An edgelist or membership file: one tab-separated pair per line."""
    return "".join(f"{a}\t{b}\n" for a, b in pairs)


# a few labels and tokens, so that memberships name graph nodes, miss some,
# add unknown labels, and share tokens
join_labels = st.sampled_from("abcdefgh")
join_memberships = st.dictionaries(join_labels, st.sampled_from("xyz"), max_size=8)
join_edgelists = st.lists(st.tuples(join_labels, join_labels), max_size=10)
# renames that send a case down the dict path wherever the name occurs: a
# label over 8 bytes, one that is not ASCII, one with a space, or a token
# over 8 bytes; each file also may repeat its first line
join_renames = st.sampled_from(
    [{}, {"h": "abcdefghi"}, {"h": "café"}, {"h": "a b"}, {"z": "tokenlong"}]
)


def renamed(rename, pairs):
    return [(rename.get(a, a), rename.get(b, b)) for a, b in pairs]


def file_text(rename, membership, repeat):
    """A membership file of the renamed map, its first line repeated if `repeat`."""
    pairs = renamed(rename, membership.items())
    return pairs_text(pairs[:1] * repeat + pairs)


class CountingDictPath:
    """`clustering._parse_membership`, counting its calls while patched in."""

    def __init__(self):
        self.calls = 0

    def __enter__(self):
        self.patch = pytest.MonkeyPatch()
        parse = clustering._parse_membership

        def counted(*args):
            self.calls += 1
            return parse(*args)

        self.patch.setattr(clustering, "_parse_membership", counted)
        return self

    def __exit__(self, *exc):
        self.patch.undo()


def packs(graph_labels, *files) -> bool:
    """Whether the join takes packed keys: every graph label and every file's
    labels and tokens are 1-8 bytes of printable ASCII, and no file is empty
    (not the common shape) or repeats a line. Files are (map, repeat) pairs."""
    def packable(name):
        raw = name.encode()
        return 1 <= len(raw) <= 8 and all(0x21 <= byte <= 0x7E for byte in raw)

    names = list(graph_labels)
    for membership, repeat in files:
        names += [*membership, *membership.values()]
        if repeat or not membership:
            return False
    return all(map(packable, names))


class TestJoinReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(join_edgelists, join_memberships, join_memberships, join_renames,
           st.booleans())
    def test_load_clustering_and_admit(self, edges, membership, other, rename, repeat):
        g, _ = w.load_edgelist(io.StringIO(pairs_text(renamed(rename, edges))))
        text = file_text(rename, membership, repeat)
        membership = dict(renamed(rename, membership.items()))
        with CountingDictPath() as dict_path:
            res = w.load_clustering(io.StringIO(text), g)
        assert (dict_path.calls == 0) == packs(g.labels, (membership, repeat))
        graph, index = ref_admit(g, membership)
        unknown = graph.n - g.n
        assert res.clustering == ref_clustering_from_membership(membership, index)
        assert res.clustering.assignment.dtype == np.int64
        assert res.clustering.assignment.tolist() == (
            w.Clustering.from_assignment(res.clustering.assignment).assignment.tolist()
        )
        assert res.graph.labels == graph.labels
        assert res.unknown_labels == unknown
        assert res.missing_nodes == g.n - (len(membership) - unknown)
        assert (res.graph is g) == (graph is g)
        other = dict(renamed(rename, other.items()))
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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.none() | join_edgelists, join_memberships, join_memberships, st.booleans(),
        join_renames, st.booleans(), st.booleans(),
    )
    def test_eval_universe(
        self, edges, truth_map, est_map, restrict_common, rename, repeat, repeat_est
    ):
        args = Namespace(
            edgelist=None,
            ground_truth=io.StringIO(file_text(rename, truth_map, repeat)),
            estimated=io.StringIO(file_text(rename, est_map, repeat_est)),
            restrict_common=restrict_common,
        )
        graph = None
        if edges is not None:
            text = pairs_text(renamed(rename, edges))
            args.edgelist = io.StringIO(text)
            graph = w.load_edgelist(io.StringIO(text))[0]
        truth_map = dict(renamed(rename, truth_map.items()))
        est_map = dict(renamed(rename, est_map.items()))
        packed = not restrict_common and packs(
            [] if graph is None else graph.labels,
            (truth_map, repeat), (est_map, repeat_est),
        )
        try:
            expected = ref_universe(graph, truth_map, est_map, restrict_common)
        except w.ContractViolation as exc:
            with pytest.raises(w.ContractViolation, match=str(exc)):
                cli._universe_for_eval(args)
            return
        with CountingDictPath() as dict_path:
            truth, est, graph, restricted = cli._universe_for_eval(args)
        if not restrict_common:
            assert (dict_path.calls == 0) == packed
        ref_truth, ref_est, ref_graph, ref_restricted = expected
        assert (truth, est, restricted) == (ref_truth, ref_est, ref_restricted)
        assert graph.digest() == ref_graph.digest()

    @settings(
        derandomize=True, max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(
        st.sampled_from(["a", "ab", "b", "~", "!", "Z", "abcdefgh", "abcdefghi",
                         "a\x00", "café", "a b", "\x7f", ""]),
        unique=True,
    ), st.randoms(use_true_random=False))
    def test_write_clustering_order(self, tmp_path, labels, rng):
        # packed keys sort as the labels' bytes, and other labels as before,
        # to a path and to a text stream
        g = w.Graph.from_edges(len(labels), [], labels)
        c = w.Clustering.from_assignment([rng.randrange(3) for _ in labels])
        expected = ref_clustering_text(c, g)
        assert written(lambda t: w.write_clustering(c, g, t), tmp_path) == [
            expected, expected
        ]


def ref_clustering_text(c, g) -> str:
    """`write_clustering`'s text, one f-string per node in label order."""
    labels, ids = g.labels, c.assignment.tolist()
    return "".join(f"{labels[v]}\t{ids[v]}\n" for v in sorted(range(g.n), key=labels.__getitem__))


def packed_label(i: int, width: int) -> str:
    """A distinct label for each i: i in base 93 over 0x21-0x7D, "~"-padded to `width`."""
    digits = ""
    while True:
        i, r = divmod(i, 93)
        digits = chr(0x21 + r) + digits
        if not i:
            return digits.rjust(width, "~")


class TestWriteClustering:
    """The bulk writer against the f-string reference, byte for byte."""

    @pytest.mark.parametrize("ids", ["singletons", "mixed"])
    def test_packed_labels_and_digit_boundaries(self, tmp_path, monkeypatch, ids):
        # blocks of 700 lines, so that blocks differ in their ids' digit counts
        monkeypatch.setattr(graph, "_PACK_BLOCK", 700)
        # 10,001 nodes: as singletons their ids take 0, 9, 10, 99, ..., 10000
        n = 10001
        rng = np.random.default_rng(4)
        labels = [packed_label(i, 1 + i % 8) for i in rng.permutation(n).tolist()]
        assert {len(lab) for lab in labels} == set(range(1, 9))
        g = w.Graph.from_edges(n, [], labels)
        assignment = np.arange(n) if ids == "singletons" else rng.integers(0, 3000, n)
        c = w.Clustering.from_assignment(assignment)
        expected = ref_clustering_text(c, g)
        assert written(lambda t: w.write_clustering(c, g, t), tmp_path) == [
            expected, expected
        ]


class TestPackedKeys:
    """The keys never stand for another label: 8 bytes is a hard limit, and a
    NUL, a space or a byte outside ASCII sends a label to the dict path."""

    GRAPH_LABELS = ["abcdefgh", "abcdefghi", "a", "a\x00", "café", "a b"]

    def test_label_keys_pack_only_printable_ascii_up_to_8_bytes(self):
        def label_keys(labels):
            return graph._text_keys(graph._labels_text(labels))

        assert label_keys(self.GRAPH_LABELS) is None
        for odd in ["abcdefghi", "a\x00", "café", "a b", "", "\x7f"]:
            assert label_keys(["a", odd]) is None, odd
        keys = label_keys(["abcdefgh", "a", "~!"])
        assert keys.tolist() == graph._token_keys(b"abcdefgh\ta\n~!\tx\n")[
            [0, 1, 2]
        ].tolist()
        assert label_keys([]).tolist() == []

    # each file, with the clustering it gives on the graph of GRAPH_LABELS, or
    # the line and message of its error, and whether it packs beside a graph
    # whose labels do
    @pytest.mark.parametrize("text, expected, packed", [
        # a 9-byte label is its own node, not the 8-byte one it starts with
        ("abcdefghi\tx\nabcdefgh\ty\n", [0, 1, 2, 3, 4, 5], False),
        ("abcdefgh\tx\na\tx\n", [0, 1, 0, 2, 3, 4], True),
        # tokens over 8 bytes that share their first 8 stay apart
        ("a\ttokenlong1\nabcdefgh\ttokenlong2\n", [0, 1, 2, 3, 4, 5], False),
        ("a\ttokenlong1\nabcdefgh\ttokenlong1\n", [0, 1, 0, 2, 3, 4], False),
        # a repeat with the same token collapses, and a conflicting one raises
        ("a\tx\na\tx\n", [0, 1, 2, 3, 4, 5], False),
        ("a\tx\nabcdefgh\ty\na\tz\n",
         (3, "node 'a' assigned to conflicting clusters 'x' and 'z'"), False),
    ])
    def test_truncation_trap(self, text, expected, packed):
        g = w.Graph.from_edges(6, [], self.GRAPH_LABELS)
        packable, _ = w.load_edgelist(io.StringIO("abcdefgh\ta\n"))
        for target in (g, packable):
            with CountingDictPath() as dict_path:
                try:
                    res = w.load_clustering(io.StringIO(text), target)
                except w.ClusteringParseError as exc:
                    line, message = expected
                    assert exc.line_number == line
                    assert str(exc) == f"clustering line {line}: {message}"
                    continue
            assert dict_path.calls == (0 if target is packable and packed else 1)
            membership = clustering.read_membership(io.StringIO(text))
            ref_graph, index = ref_admit(target, membership)
            assert res.graph.labels == ref_graph.labels
            assert res.clustering == ref_clustering_from_membership(membership, index)
            if target is g:
                assert res.clustering.assignment.tolist() == expected
                assert res.graph is g

    def test_eval_names_the_same_error(self):
        text = "a\tx\nabcdefgh\ty\na\tz\n"
        for edgelist in (None, io.StringIO("abcdefgh\ta\n")):
            args = Namespace(
                edgelist=edgelist, ground_truth=io.StringIO("a\tx\n"),
                estimated=io.StringIO(text), restrict_common=False,
            )
            with pytest.raises(w.ClusteringParseError) as err:
                cli._universe_for_eval(args)
            assert err.value.line_number == 3
            assert str(err.value) == (
                "clustering line 3: node 'a' assigned to conflicting clusters 'x' and 'z'"
            )
