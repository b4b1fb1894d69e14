"""Edgelist ingestion, induced subgraphs, and connected components."""

import hashlib
import io
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellconn as w
from wellconn import cli, graph
from conftest import as_sources, edges_of, graph_of, two_cliques, written


def load(text: str, delimiter: str = "\t"):
    return w.load_edgelist(io.StringIO(text), delimiter)


class TestLoadEdgelist:
    def test_self_loop_and_duplicate_rules(self):
        g, rep = load("a\tb\nb\ta\nc\tc\n")
        assert (g.n, g.m) == (2, 1)
        assert rep.self_loops_dropped == 1
        assert rep.duplicate_edges_dropped == 1
        assert g.labels == ["a", "b"]

    def test_triangle(self):
        g, rep = load("1\t2\n2\t3\n3\t1\n")
        assert (g.n, g.m) == (3, 3)
        assert rep == w.IngestReport(3, 0, 0, 3, 3)

    def test_empty_stream(self):
        g, rep = load("")
        assert (g.n, g.m) == (0, 0)
        assert rep.lines_read == 0

    def test_blank_lines_ignored(self):
        g, rep = load("a\tb\n\n  \nb\tc\n")
        assert (g.n, g.m) == (3, 2)
        assert rep.lines_read == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(w.EdgelistParseError) as err:
            load("a\tb\na b\n")
        assert err.value.line_number == 2
        with pytest.raises(w.EdgelistParseError):
            load("a\tb\tc\n")

    def test_custom_delimiter(self):
        g, _ = load("a b\nb c\n", delimiter=" ")
        assert (g.n, g.m) == (3, 2)

    def test_direction_ignored(self):
        g1, _ = load("a\tb\n")
        g2, _ = load("b\ta\n")
        assert g1.m == g2.m == 1
        assert set(g1.labels) == set(g2.labels)

    def test_first_appearance_indexing(self):
        g, _ = load("x\ty\nz\tx\n")
        assert g.labels == ["x", "y", "z"]

    def test_self_loop_does_not_create_node(self):
        g, _ = load("a\tb\nq\tq\nq\tb\n")
        # q only becomes a node through the retained q-b edge, after a and b
        assert g.labels == ["a", "b", "q"]
        g2, _ = load("a\tb\nq\tq\n")
        assert g2.labels == ["a", "b"]

    def test_report_invariant(self):
        rng = random.Random(5)
        for _ in range(30):
            lines = []
            for _ in range(rng.randint(0, 40)):
                u = rng.randint(0, 6)
                v = rng.randint(0, 6)
                lines.append(f"n{u}\tn{v}")
            text = "\n".join(lines) + ("\n" if lines else "")
            g, rep = load(text)
            assert rep.edges == rep.lines_read - rep.self_loops_dropped - rep.duplicate_edges_dropped
            assert rep.nodes == g.n
            assert rep.edges == g.m

    def test_bytes_and_path_sources(self, tmp_path):
        g1, _ = w.load_edgelist(b"a\tb\n")
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\n")
        g2, _ = w.load_edgelist(path)
        assert g1.m == g2.m == 1

    def test_crlf_line_endings(self):
        g, rep = load("a\tb\r\nb\tc\r\n")
        assert (g.n, g.m) == (3, 2)
        assert g.labels == ["a", "b", "c"]

    def test_unicode_labels_round_trip(self):
        g, _ = load("α\tβ\nβ\tγ✓\n")
        assert g.labels == ["α", "β", "γ✓"]
        buf = io.StringIO()
        w.write_edgelist(g, buf)
        g2, _ = load(buf.getvalue())
        assert set(g2.labels) == set(g.labels)
        assert g2.m == g.m


class TestGraphStructure:
    def test_adjacency_symmetry_and_sorted_rows(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 30)
            edges = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 80))
            ]
            g = w.Graph.from_edges(n, edges)
            pairs = set()
            for v in range(g.n):
                row = g.neighbors(v)
                assert list(row) == sorted(row)
                for u in row.tolist():
                    assert u != v
                    pairs.add((v, u))
            for v, u in pairs:
                assert (u, v) in pairs
            assert g.m * 2 == len(g.adj)
            assert g.m * 2 == int(g.degrees().sum())

    def test_write_then_reload_is_isomorphic(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 25)
            edges = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 60))
            ]
            g = w.Graph.from_edges(n, edges)
            if g.m == 0:
                continue
            buf = io.StringIO()
            w.write_edgelist(g, buf)
            g2, _ = w.load_edgelist(io.StringIO(buf.getvalue()))
            # nodes with degree 0 cannot round trip through an edgelist
            assert set(g2.labels) == {g.labels[v] for v in range(g.n) if g.degree(v) > 0}
            assert g2.m == g.m
            edges_a = {frozenset((g.labels[u], g.labels[v])) for u, v in edges_of(g)}
            edges_b = {frozenset((g2.labels[u], g2.labels[v])) for u, v in edges_of(g2)}
            assert edges_a == edges_b

    def test_with_isolated(self):
        g, _ = load("a\tb\n")
        g2 = g.with_isolated(["c", "d"])
        assert (g2.n, g2.m) == (4, 1)
        assert g2.degree(2) == g2.degree(3) == 0
        with pytest.raises(w.ContractViolation):
            g2.with_isolated(["a"])

    def test_labels_are_distinct(self):
        # a repeated label would be written twice by write_clustering, and
        # read_membership rejects the file that makes
        g, _ = load("a\tb\n")
        with pytest.raises(w.ContractViolation, match="label repeated: 'c'"):
            g.with_isolated(["c", "c"])
        with pytest.raises(w.ContractViolation, match="label repeated: 'x'"):
            w.Graph.from_edges(2, [(0, 1)], ["x", "x"])
        assert w.Graph.from_edges(2, [(0, 1)], ["x", "y"]).labels == ["x", "y"]

    def test_digest_changes_with_structure(self):
        g1 = graph_of(3, [(0, 1)])
        g2 = graph_of(3, [(0, 2)])
        assert g1.digest() != g2.digest()
        assert g1.digest() == graph_of(3, [(0, 1)]).digest()

    @pytest.mark.parametrize("labels", [[], ["a"], ["a", "é", "c"]])
    def test_digest_bytes(self, labels):
        # the version line, each label and a newline, then indptr and adj
        g = w.Graph.from_edges(len(labels), [(0, 1)] if len(labels) > 1 else [], labels)
        text = "".join(f"{lab}\n" for lab in labels).encode()
        data = b"graph/v1\n" + text + g.indptr.tobytes() + g.adj.tobytes()
        assert g.digest() == hashlib.sha256(data).hexdigest()


def without_openssl(monkeypatch) -> None:
    """Make this process look as if it had not loaded OpenSSL, as pytest has."""
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)


def uses_openssl(h) -> bool:
    return type(h).__module__ == "_hashlib"


class TestSha256:
    """The hasher: the interpreter's own SHA-256 for small objects, until
    OpenSSL is loaded, and the same digests as `hashlib.sha256` either way."""

    @pytest.mark.parametrize("size", [
        0, graph._OPENSSL_FROM - 1, graph._OPENSSL_FROM, graph._OPENSSL_FROM + 1
    ])
    def test_digests_equal_hashlib(self, monkeypatch, size):
        data = random.Random(size).randbytes(size)
        expected = hashlib.sha256(data).hexdigest()
        openssl = "_hashlib" in sys.modules
        h = graph.sha256(size)
        h.update(data)
        assert h.hexdigest() == expected
        assert uses_openssl(h) == openssl
        without_openssl(monkeypatch)
        h = graph.sha256(size)
        h.update(data)
        assert h.hexdigest() == expected
        assert uses_openssl(h) == (openssl and size >= graph._OPENSSL_FROM)

    def test_once_openssl_is_loaded_every_hash_uses_it(self, monkeypatch):
        openssl = pytest.importorskip("_hashlib")
        assert uses_openssl(graph.sha256(0))
        without_openssl(monkeypatch)
        assert not uses_openssl(graph.sha256(0))
        monkeypatch.setitem(sys.modules, "_hashlib", openssl)
        assert uses_openssl(graph.sha256(0))

    def test_falls_back_to_hashlib_without_a_built_in_sha256(self, monkeypatch):
        without_openssl(monkeypatch)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        h = graph.sha256(3)
        h.update(b"abc")
        assert h.hexdigest() == hashlib.sha256(b"abc").hexdigest()
        assert type(h) is type(hashlib.sha256())

    @pytest.mark.parametrize("openssl", [True, False])
    def test_file_of_several_blocks(self, tmp_path, monkeypatch, openssl):
        # five 64 KiB reads and a short one
        data = random.Random(5).randbytes(5 * 65536 + 123)
        path = tmp_path / "in.bin"
        path.write_bytes(data)
        if not openssl:
            without_openssl(monkeypatch)
        assert cli._sha256(path) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("openssl", [True, False])
    def test_graph_digest_on_either_hasher(self, monkeypatch, openssl):
        g = graph_of(5, [(0, 1), (1, 2), (3, 4)])
        data = b"graph/v1\n" + g.text + g.indptr.tobytes() + g.adj.tobytes()
        if not openssl:
            without_openssl(monkeypatch)
        assert g.digest() == hashlib.sha256(data).hexdigest()


def ref_edgelist(g, delimiter="\t") -> str:
    """`write_edgelist`'s text, one f-string per edge."""
    labels = g.labels
    u, v = g.edge_arrays()
    return "".join(f"{labels[a]}{delimiter}{labels[b]}\n" for a, b in zip(u.tolist(), v.tolist()))


class TestLabelText:
    """A graph holds its labels as one text: their UTF-8 bytes, each followed by LF."""

    @pytest.mark.parametrize("labels", [["a\x00", "café", "a\rb", ""], [], ["x"]])
    def test_labels_round_trip(self, labels):
        g = w.Graph.from_edges(len(labels), [], labels)
        assert g.labels == labels
        assert g.labels is g.labels  # decoded once, and kept
        assert g.text == "".join(f"{lab}\n" for lab in labels).encode()
        assert g.with_isolated(["y\x00"]).labels == labels + ["y\x00"]

    def test_the_dict_path_shares_the_parsed_labels(self):
        # labels over 8 bytes take the per-line ingest and the dict join; the
        # joined graph's list holds the strings the ingest parsed
        g, _ = load("long-label\tb\n")
        loaded = w.load_clustering(io.StringIO("long-label\t1\nc\t2\n"), g)
        assert loaded.graph.labels == ["long-label", "b", "c"]
        assert all(a is b for a, b in zip(loaded.graph.labels, g.labels))

    def test_a_line_feed_in_a_label_raises(self):
        g, _ = load("a\tb\n")
        for make in (
            lambda: w.Graph.from_edges(2, [], ["a", "b\nc"]),
            lambda: w.Graph(g.indptr, g.adj, ["a", "\n"]),
            lambda: g.with_isolated(["c\n"]),
        ):
            with pytest.raises(w.ContractViolation, match="label holds a line feed"):
                make()

    # labels of 1-8 printable ASCII bytes pack; a space, a NUL, a byte
    # outside ASCII or a ninth byte sends the whole graph to the f-strings
    @pytest.mark.parametrize("labels", [
        ["a", "bb", "ccc", "dddd", "~~~~~", "!!!!!!", "0123456", "abcdefgh"],
        ["a", "bb", "long-label", "café", "a b", "a\x00", ""],
    ])
    @pytest.mark.parametrize("delimiter", ["\t", " ", "::", "→", "\x00"])
    def test_write_edgelist_bytes(self, tmp_path, monkeypatch, labels, delimiter):
        # blocks of 5 lines, so that every writer runs more than one
        monkeypatch.setattr(graph, "_PACK_BLOCK", 5)
        rng = random.Random(len(labels))
        n = len(labels)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(30)]
        g = w.Graph.from_edges(n, edges, labels)
        expected = ref_edgelist(g, delimiter)
        assert written(lambda t: w.write_edgelist(g, t, delimiter), tmp_path) == [
            expected, expected
        ]

    def test_bulk_paths_hold_no_string_per_node(self, tmp_path):
        # a perfect matching of 100k labels: one Python str per label would
        # take about 50 bytes, and the whole of each step below stays under
        # that plus its arrays
        n = 100_000
        data = "".join(f"n{i}\tn{i + 1}\n" for i in range(0, n, 2)).encode()
        c = w.Clustering.from_assignment(np.arange(n) // 3)
        path = tmp_path / "out.tsv"

        def peak(step):
            tracemalloc.start()
            try:
                return step(), tracemalloc.get_traced_memory()[1] / n
            finally:
                tracemalloc.stop()

        (g, _), load_peak = peak(lambda: w.load_edgelist(data))
        _, clustering_peak = peak(lambda: w.write_clustering(c, g, path))
        _, edgelist_peak = peak(lambda: w.write_edgelist(g, path))
        assert g.n == n
        assert load_peak < 85, load_peak
        assert clustering_peak < 90, clustering_peak
        assert edgelist_peak < 70, edgelist_peak


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)])
        sub, mapping = w.induced_subgraph(g, [0, 1])
        assert (sub.n, sub.m) == (2, 1)
        assert mapping == {0: 0, 1: 1}

    def test_identity_case(self):
        g = two_cliques(5, bridges=1)
        sub, _ = w.induced_subgraph(g, range(g.n))
        assert (sub.n, sub.m) == (g.n, g.m)

    def test_one_clique_of_bridged_pair(self):
        g = two_cliques(5, bridges=1)
        assert g.m == 21
        sub, mapping = w.induced_subgraph(g, range(5))
        assert (sub.n, sub.m) == (5, 10)
        assert sorted(mapping) == [0, 1, 2, 3, 4]

    def test_out_of_range(self):
        g = graph_of(3, [(0, 1)])
        with pytest.raises(w.ContractViolation):
            w.induced_subgraph(g, [0, 99])

    def test_labels_preserved(self):
        g, _ = load("a\tb\nb\tc\n")
        sub, _ = w.induced_subgraph(g, [1, 2])
        assert sub.labels == ["b", "c"]


class TestFromEdges:
    @pytest.mark.parametrize("n, edges", [
        (0, [(0, 1)]),
        (0, [(0, 0)]),
        (2, [(0, 2)]),
        (3, [(-1, 1)]),
    ])
    def test_endpoint_out_of_range_rejected(self, n, edges):
        with pytest.raises(w.ContractViolation):
            w.Graph.from_edges(n, edges)

    def test_empty_graph(self):
        g = w.Graph.from_edges(0, [])
        assert (g.n, g.m, g.labels) == (0, 0, [])
        assert g.indptr.tolist() == [0]


class TestConnectedComponents:
    def test_triangle_single_component(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)])
        comps = w.connected_components(g)
        assert [len(c) for c in comps] == [3]

    def test_edgeless_graph(self):
        g = w.Graph.from_edges(4, [])
        comps = w.connected_components(g)
        assert [c.tolist() for c in comps] == [[0], [1], [2], [3]]

    def test_two_cliques_no_bridge(self):
        g = two_cliques(5, bridges=0)
        comps = w.connected_components(g)
        assert [c.tolist() for c in comps] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_order_by_minimum_node(self):
        g = graph_of(6, [(5, 1), (2, 4)])
        comps = w.connected_components(g)
        assert [c.min() for c in comps] == sorted(c.min() for c in comps)
        assert comps[0].tolist() == [0]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=18),
        st.lists(st.tuples(st.integers(0, 17), st.integers(0, 17)), max_size=40),
        )
    def test_components_partition_with_no_crossing_edges(self, n, raw_edges):
        edges = [(u % n, v % n) for u, v in raw_edges]
        g = w.Graph.from_edges(n, edges)
        comps = w.connected_components(g)
        seen = np.zeros(n, dtype=bool)
        label = np.full(n, -1)
        for i, comp in enumerate(comps):
            assert not seen[comp].any()
            seen[comp] = True
            label[comp] = i
        assert seen.all()
        for u, v in edges_of(g):
            assert label[u] == label[v]


def outcome(source, reader=w.load_edgelist):
    """What reading `source` gives: labels, CSR and report, or the error."""
    try:
        g, rep = reader(source)
    except w.EdgelistParseError as exc:
        return ("error", exc.line_number, str(exc))
    return (g.labels, g.indptr.tolist(), g.adj.tolist(), rep)


NO_TAB = r"expected two '\t'-separated tokens, got "


class TestIngestFallback:
    """Each input the bulk parser leaves to the per-line loop, and its border cases.

    `bulk` says whether the bulk parser takes the input; the expected value
    is the labels and the report, or the line and message of the error.
    """

    @pytest.mark.parametrize("raw, bulk, expected", [
        pytest.param(b"a\tb\r\nb\tc\r\n", False,
                     (["a", "b", "c"], w.IngestReport(2, 0, 0, 3, 2)), id="crlf"),
        pytest.param(b"a\tb\n\nb\tc\n", False,
                     (["a", "b", "c"], w.IngestReport(2, 0, 0, 3, 2)), id="blank-line"),
        pytest.param(b"a\tb\n\x0b\t\x0c\nb\tc\n", False,
                     (["a", "b", "c"], w.IngestReport(2, 0, 0, 3, 2)),
                     id="whitespace-only-line"),
        pytest.param(b"a\tb\nab\n", False, (2, NO_TAB + "'ab'"), id="no-tab"),
        pytest.param(b"a\tb\tc\n", False, (1, NO_TAB + r"'a\tb\tc'"), id="two-tabs"),
        pytest.param(b"a\tb\n\tc\n", False, (2, NO_TAB + r"'\tc'"), id="empty-token"),
        pytest.param(b"abcdefghi\tb\nb\tabcdefgh\n", False,
                     (["abcdefghi", "b", "abcdefgh"], w.IngestReport(2, 0, 0, 3, 2)),
                     id="nine-byte-label"),
        pytest.param("é\tb\n".encode(), False,
                     (["é", "b"], w.IngestReport(1, 0, 0, 2, 1)), id="non-ascii-label"),
        pytest.param("a\tb\n\u00a0\nb\tc\n".encode(), False,
                     (["a", "b", "c"], w.IngestReport(2, 0, 0, 3, 2)), id="nbsp-line"),
        pytest.param(b"", False, ([], w.IngestReport(0, 0, 0, 0, 0)), id="empty-file"),
        pytest.param(b"a\tb\nb\tc", True,
                     (["a", "b", "c"], w.IngestReport(2, 0, 0, 3, 2)), id="no-final-lf"),
        pytest.param(b"q\tq\na\tb\nq\tq\nb\ta\n", True,
                     (["a", "b"], w.IngestReport(4, 2, 1, 2, 1)),
                     id="label-only-in-self-loops"),
    ])
    def test_input_shape(self, tmp_path, raw, bulk, expected):
        assert (graph._token_keys(raw) is not None) == bulk
        loop = outcome(raw, lambda src: graph._edgelist_from_lines(src, "\n", "\t"))
        for source in as_sources(raw, tmp_path):
            got = outcome(source)
            assert got == loop
            if got[0] == "error":
                line, message = expected
                assert got[1:] == (line, f"edgelist line {line}: {message}")
            else:
                assert (got[0], got[3]) == expected

    def test_cr_only_splits_lines_of_a_path_alone(self, tmp_path):
        raw = b"a\tb\rb\tc\r"
        assert graph._token_keys(raw) is None
        path, data, stream = as_sources(raw, tmp_path)
        g, rep = w.load_edgelist(path)
        assert (g.labels, rep) == (["a", "b", "c"], w.IngestReport(2, 0, 0, 3, 2))
        error = ("error", 1, "edgelist line 1: " + NO_TAB + r"'a\tb\rb\tc'")
        assert outcome(data) == outcome(stream) == error

    def test_not_utf8_names_its_line(self, tmp_path):
        raw = b"a\tb\ncaf\xe9\tb\n"
        path = tmp_path / "in.tsv"
        path.write_bytes(raw)
        for source in (path, raw, io.BytesIO(raw)):
            assert outcome(source) == (
                "error", 2, "edgelist line 2: not valid UTF-8 (byte 0xe9)"
            )
        # a bad line before the bad byte is named first
        assert outcome(b"ab\ncaf\xe9\tb\n") == (
            "error", 1, "edgelist line 1: " + NO_TAB + "'ab'"
        )

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 65536])
    def test_line_pairs_match_a_stringio_reader(self, monkeypatch, block):
        # the reader before blocks: io.StringIO's lines, whose universal
        # newlines (newline "") end at LF, CR and CRLF
        def reference(data, newline):
            for line_no, raw in enumerate(io.StringIO(data, newline=newline), start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    yield "error", line_no
                    return
                yield line_no, parts[0], parts[1]

        def lines(data, newline):
            try:
                yield from graph._line_pairs(data, newline, ValueError, "\t", "tab")
            except ValueError as exc:
                yield "error", exc.args[0]

        monkeypatch.setattr(graph, "_LINE_BLOCK", block)
        rng = random.Random(block)
        for _ in range(400):
            data = "".join(rng.choice(["a", "b", "\t", "\n", "\r", " "])
                           for _ in range(rng.randrange(30)))
            for newline in ("", "\n"):
                assert list(lines(data, newline)) == list(reference(data, newline)), data

    def test_per_line_ingest_memory_bound(self):
        # 9-digit labels, which do not pack: the bytes and their decoded text
        # (1 byte per character each) and the parsed pairs, about 4.2 bytes
        # per input byte, against 7.9 with an io.StringIO of the text (4
        # bytes per character)
        rng = np.random.default_rng(10)
        u, v = rng.integers(100_000_000, 100_015_000, (2, 50_000))
        data = "".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist())).encode()
        assert graph._token_keys(data) is None
        tracemalloc.start()
        try:
            g, _ = w.load_edgelist(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n > 10_000
        assert peak / len(data) < 5.5, peak / len(data)

    def test_csr_matches_pair_sort(self):
        # the CSR build against the plain definition: rows of the sorted,
        # distinct neighbours of each node, self-loops dropped
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            u, v = rng.integers(0, n, (2, int(rng.integers(0, 200))))
            indptr, adj = graph._build_csr(n, u, v)
            rows = [sorted({int(b) for a, b in zip(u, v) if a == r and b != r}
                           | {int(a) for a, b in zip(u, v) if b == r and a != r})
                    for r in range(n)]
            assert adj.dtype == np.int32 and indptr.dtype == np.int64
            assert indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
            assert adj.tolist() == [x for r in rows for x in r]

    def test_csr_build_memory_bound(self):
        # one sort of the directed keys: about 34 bytes per input edge at
        # its peak, against 61 for two sorts with slot arithmetic
        n, m = 20000, 100000
        u, v = np.random.default_rng(9).integers(0, n, (2, m))
        tracemalloc.start()
        try:
            graph._build_csr(n, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m <= 52
