"""Bulk ingest and the packed join against the per-line loop and the dict path,
the block-wise tokenizer against the whole-buffer one it replaced, and
ingest, the join and the writer pinned on a 40k-node instance."""

import hashlib
import io
import os
import random
import tempfile
from argparse import Namespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wellconn as w
from wellconn import cli, clustering, graph

# lines the bulk readers leave to the loop, or that the loop rejects
ODD_LINES = [
    "", " ", "\x0b\t\x0c", "\u00a0", "a", "a\tb\tc", "\tb", "a\t", "a b",
    "long-label\tb", "café\tb", "a\tb\r", "\r", "\x7f\tb", "\x1f\tb",
]
BAD_UTF8 = b"caf\xe9\tb"


@st.composite
def two_column_files(draw) -> bytes:
    """Lines of two labels with self-loops, repeats and reversed pairs, and
    sometimes one odd line."""
    pool = draw(st.lists(
        st.text(alphabet="ab019!~Z", min_size=1, max_size=8), min_size=1, max_size=8
    ))
    label = st.sampled_from(pool)
    lines: list[bytes] = []
    for kind in draw(st.lists(st.sampled_from("prrlde"), max_size=30)):
        a, b = draw(label), draw(label)
        if kind == "l":
            b = a
        elif kind == "d" and lines:
            lines.append(lines[-1])
            continue
        elif kind == "e" and lines:
            a, b = lines[-1].decode().split("\t")[::-1]
        lines.append(f"{a}\t{b}".encode())
    if draw(st.integers(0, 2)) == 0:
        odd = draw(st.sampled_from([line.encode() for line in ODD_LINES] + [BAD_UTF8]))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    data = b"\n".join(lines)
    return data + b"\n" if lines and draw(st.booleans()) else data


def each_source(raw: bytes):
    """The input as a path, as bytes and, when it is UTF-8, as a text stream."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.tsv")
        with open(path, "wb") as fh:
            fh.write(raw)
        yield lambda: path
        yield lambda: raw
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return
        yield lambda: io.StringIO(text)


def result(call):
    try:
        value = call()
    except (w.EdgelistParseError, w.ClusteringParseError) as exc:
        return type(exc), exc.line_number, str(exc)
    if isinstance(value, dict):
        return list(value.items())
    g, rep = value
    return g.labels, g.indptr.tolist(), g.adj.tolist(), str(g.adj.dtype), rep


def dict_join(g, *inputs):
    """The join of membership files by the dict path, from their `_read_input`."""
    memberships = [clustering._parse_membership(*read) for read in inputs]
    joined = clustering.admit(g, *memberships)
    return (
        joined,
        [clustering.clustering_from_membership(m, joined.labels) for m in memberships],
        [len(m) for m in memberships],
    )


def join_result(call):
    try:
        joined, clusterings, sizes = call()
    except w.ClusteringParseError as exc:
        return type(exc), exc.line_number, str(exc)
    return joined.digest(), [c.assignment.tolist() for c in clusterings], sizes


# graphs whose labels pack (some of them the files' labels too), and one
# whose labels do not; and a second file that packs
JOIN_GRAPHS = [
    w.Graph.from_edges(0, []),
    w.load_edgelist(b"a\tb\nb\t0\n1\t~\nZ\t!a\n")[0],
    w.load_edgelist("a\tb\nb\tcafé\n".encode())[0],
]
OTHER_FILE = b"b\tq\nZZ\tq\n0\tr\n"


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(two_column_files())
def test_bulk_readers_match_the_loop(raw):
    for source in each_source(raw):
        data, newline = graph._read_input(source())
        loop = result(lambda: graph._edgelist_from_lines(data, newline, "\t"))
        assert result(lambda: w.load_edgelist(source())) == loop
        loop = result(lambda: clustering._membership_from_lines(data, newline))
        assert result(lambda: w.read_membership(source())) == loop
        # the packed join against the dict path, for one file and for two
        other = (OTHER_FILE, "\n")
        for g in JOIN_GRAPHS:
            assert join_result(lambda: clustering.join_memberships(g, source())) == (
                join_result(lambda: dict_join(g, (data, newline)))
            )
            assert join_result(
                lambda: clustering.join_memberships(g, source(), OTHER_FILE)
            ) == join_result(lambda: dict_join(g, (data, newline), other))
            assert join_result(
                lambda: clustering.join_memberships(g, OTHER_FILE, source())
            ) == join_result(lambda: dict_join(g, other, (data, newline)))


# ---------------------------------------------------------------------------
# the tokenizer as it was before it went block by block: a whole-buffer shape
# test, then a packer over blocks of 65,536 tokens


def ref_two_columns(data):
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    buf = np.frombuffer(data, np.uint8)
    if buf.size == 0 or buf.max() > 0x7E:
        return None
    ends = np.flatnonzero(buf < 0x21)
    if buf[-1] != 0x0A:
        ends = np.append(ends, buf.size)
    seps = buf[ends[:-1]]
    if (
        len(ends) % 2
        or (seps[0::2] != 0x09).any()
        or (seps[1::2] != 0x0A).any()
        or ends[0] == 0
        or np.diff(ends).min(initial=2) < 2
    ):
        return None
    return buf, ends


def ref_gather_keys(buf, ends):
    if buf.size < 8:
        buf = np.concatenate([buf, np.zeros(8 - buf.size, np.uint8)])
    words = as_strided(
        buf[:8].view(">u8"), shape=(buf.size - 7,), strides=(1,), writeable=False
    )
    last = buf.size - 8
    keys = np.empty(len(ends), np.uint64)
    for lo in range(0, len(ends), 65536):
        end = ends[lo : lo + 65536]
        start = np.empty_like(end)
        start[0] = ends[lo - 1] + 1 if lo else 0
        start[1:] = end[:-1] + 1
        if (end - start).max() > 8:
            return None
        at = np.minimum(start, last)
        word = words[at].astype(np.uint64) << ((start - at) * 8).astype(np.uint64)
        cut = ((8 - (end - start)) * 8).astype(np.uint64)
        keys[lo : lo + len(end)] = word >> cut << cut
    return keys


def ref_token_keys(data):
    shape = ref_two_columns(data)
    return None if shape is None else ref_gather_keys(*shape)


def ref_text_keys(text):
    buf = np.frombuffer(text, np.uint8)
    if buf.size == 0:
        return np.empty(0, np.uint64)
    if buf.max() > 0x7E:
        return None
    ends = np.flatnonzero(buf == 0x0A)
    if (
        np.count_nonzero(buf < 0x21) != len(ends)
        or ends[0] == 0
        or np.diff(ends).min(initial=2) < 2
    ):
        return None
    return ref_gather_keys(buf, ends)


PIECES = ["a", "abcdefgh", "abcdefghi", "\t", "\n", "\r", " ", "\x7f", "é"]
TOKENS = ["a", "~!", "abcdefg", "abcdefgh", "abcdefghi", "0123456789abc"]


def tokenizer_texts(rng, width, finals=("", "\n")):
    """Random texts: free mixes of PIECES, and lines of `width` tokens split by
    tabs (one in ten over 8 bytes), sometimes with one piece put in, each
    ending in one of `finals`."""
    for _ in range(300):
        if rng.random() < 0.3:
            text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(12)))
        else:
            lines = [
                "\t".join(rng.choice(TOKENS[4:] if rng.random() < 0.1 else TOKENS[:4])
                          for _ in range(width))
                for _ in range(rng.randrange(1, 8))
            ]
            text = "\n".join(lines) + rng.choice(finals)
            if rng.random() < 0.3:
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(PIECES) + text[at:]
        yield text


def same_keys(got, expected) -> bool:
    if got is None or expected is None:
        return got is expected
    return got.dtype == np.uint64 and got.tolist() == expected.tolist()


@pytest.mark.parametrize("block", [1, 2, 3, 7, graph._BYTE_BLOCK])
def test_token_keys_match_the_whole_buffer_tokenizer(monkeypatch, block):
    monkeypatch.setattr(graph, "_BYTE_BLOCK", block)
    rng = random.Random(block)
    for text in tokenizer_texts(rng, 2):
        for data in (text.encode(), text):
            assert same_keys(graph._token_keys(data), ref_token_keys(data)), data
            shaped = graph._token_keys(data, pack=False)
            assert (shaped is not None) == (ref_two_columns(data) is not None), data
            assert shaped is None or len(shaped) == 0
    # a graph's text: labels each ending in LF, or none at all
    for text in tokenizer_texts(rng, 1, finals=("\n",)):
        data = text.encode() if text.endswith("\n") else b""
        assert same_keys(graph._text_keys(data), ref_text_keys(data)), data


def test_membership_of_long_tokens_takes_the_bulk_split(monkeypatch):
    # the common shape with 9-byte and longer tokens does not pack, and still
    # skips the per-line loop
    def refuse(*args):
        raise AssertionError("the per-line loop was taken")

    monkeypatch.setattr(clustering, "_membership_from_lines", refuse)
    data = b"abcdefghi\tx\nb\t0123456789abc\nabcdefghi\tx"
    assert graph._token_keys(data) is None
    assert list(w.read_membership(data).items()) == [
        ("abcdefghi", "x"), ("b", "0123456789abc")
    ]


# The 40k-node tier of the criterion-10 generator. The pins were recorded
# with the per-line readers, before the bulk readers existed.
PINNED_SPEC = w.GadgetSpec(
    kind="planted-partition-lite", sizes=w.parse_sizes("2000x10,200x100"),
    p_in=0.0006, p_out=0.0000004, seed=2026,
)


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    """The edgelist, the planted clustering, and an estimate: every third line
    of the planted file dropped, the rest in reverse order with new tokens,
    and 50 labels that neither the graph nor the planted file has."""
    tmp = tmp_path_factory.mktemp("pinned")
    g, truth = w.generate(PINNED_SPEC)
    w.write_edgelist(g, tmp / "net.tsv")
    w.write_clustering(truth, g, tmp / "gt.tsv")
    lines = (tmp / "gt.tsv").read_text().splitlines()
    est = [
        f"{line.split(chr(9))[0]}\t{i % 97}\n"
        for i, line in reversed(list(enumerate(lines)))
        if i % 3
    ]
    est += [f"new{i}\t{i % 5}\n" for i in range(50)]
    (tmp / "est.tsv").write_text("".join(est))
    return tmp / "net.tsv", tmp / "gt.tsv", tmp / "est.tsv"


def sha256_of(assignment) -> str:
    return hashlib.sha256(assignment.tobytes()).hexdigest()


@pytest.fixture
def packed_only(monkeypatch):
    """Fail any read of a membership file by the dict path."""
    def refuse(*args):
        raise AssertionError("the dict path was taken")

    monkeypatch.setattr(clustering, "_parse_membership", refuse)


class TestPinnedIngest:
    def test_edgelist(self, pinned_files):
        g, rep = w.load_edgelist(pinned_files[0])
        assert g.digest() == (
            "321c3b439a23b726aea22e1156c3e3a49544fa413d94a7aac515eb5291bfe3a3"
        )
        assert tuple(rep) == (13379, 0, 0, 16427, 13379)

    def test_edgelist_with_reversed_repeated_and_loop_lines(self, pinned_files):
        # every third line reversed, every seventh repeated reversed, and
        # every eleventh followed by a self-loop on a new or a known label
        out = []
        for i, line in enumerate(pinned_files[0].read_text().splitlines()):
            a, b = line.split("\t")
            out.append(f"{b}\t{a}" if i % 3 == 0 else line)
            if i % 7 == 0:
                out.append(f"{b}\t{a}")
            if i % 11 == 0:
                out.append(f"{a}\t{a}" if i % 2 else f"loop{i}\tloop{i}")
        g, rep = w.load_edgelist(("\n".join(out) + "\n").encode())
        assert g.digest() == (
            "085ee946af0b68b61074fb2055fb86b7be901a33df980452f125e2605f156d9d"
        )
        assert tuple(rep) == (16508, 1217, 1912, 16427, 13379)

    def test_membership(self, pinned_files):
        membership = w.read_membership(pinned_files[1])
        text = "".join(f"{k}\t{v}\n" for k, v in membership.items())
        assert len(membership) == 40000
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5f7b0f367016929f88679bba9c15f115d74f06da01f790ecb6d093b4159a7cfd"
        )

    # the pins below were recorded with the dict path, before the packed join
    @pytest.mark.parametrize("which, pins", [
        (1, ("4e29d810bea01891a9f4e4ddf245c2ba527c2a435af727399eb42af3252035f6",
             "207ec4ae46a92a313f45400e59fd6fea23ceaee3dd1e2dcb010ba07dbb80b15d",
             23573, 0, 110)),
        (2, ("f5325ede671c3d733a6c38fe4a7e88ec2204c2796452e7120e000c05964211c9",
             "d8f9aafe4c4d0814d73ad50d9f558ccf9b83d28734d191948c5eebd684e1b011",
             15762, 5473, 5570)),
    ])
    def test_load_clustering(self, pinned_files, packed_only, which, pins):
        g, _ = w.load_edgelist(pinned_files[0])
        res = w.load_clustering(pinned_files[which], g)
        assert (
            res.graph.digest(), sha256_of(res.clustering.assignment),
            res.unknown_labels, res.missing_nodes, res.clustering.num_clusters,
        ) == pins

    def test_eval_universe(self, pinned_files, packed_only):
        args = Namespace(
            edgelist=pinned_files[0], ground_truth=pinned_files[1],
            estimated=pinned_files[2], restrict_common=False,
        )
        truth, est, g, restricted = cli._universe_for_eval(args)
        assert g.digest() == (
            "a26117fd362a6f55a1b104c402f5fa8ce9c69a0d2c63f0648d80d57216224391"
        )
        assert sha256_of(truth.assignment) == (
            "2eeee28e0497ced5927404b520f4ae1b0f5b172132454bc355c9d458a9944b12"
        )
        assert sha256_of(est.assignment) == (
            "f031884995d73550c5946c4bdab43747f73111ae884fdfe8c2a3bdf5449aa4f8"
        )
        assert (truth.num_clusters, est.num_clusters) == (160, 13431)
        assert restricted == {
            "restricted": False, "dropped_truth": 0, "dropped_estimated": 0
        }

    def test_write_clustering(self, pinned_files, packed_only):
        g, _ = w.load_edgelist(pinned_files[0])
        res = w.load_clustering(pinned_files[1], g)
        out = io.StringIO()
        w.write_clustering(res.clustering, res.graph, out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "3d45f801233a8e67ad9628e016f52dcad61df04a836d1b2906d5fda122ac2e40"
        )
