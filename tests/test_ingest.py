"""Bulk ingest against the per-line loop, and ingest pinned on a 40k-node instance."""

import dataclasses
import hashlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wellconn as w
from wellconn import clustering, graph

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


# The 40k-node tier of the criterion-10 generator. The pins were recorded
# with the per-line readers, before the bulk readers existed.
PINNED_SPEC = w.GadgetSpec(
    kind="planted-partition-lite", sizes=w.parse_sizes("2000x10,200x100"),
    p_in=0.0006, p_out=0.0000004, seed=2026,
)


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pinned")
    g, truth = w.generate(PINNED_SPEC)
    w.write_edgelist(g, tmp / "net.tsv")
    w.write_clustering(truth, g, tmp / "gt.tsv")
    return tmp / "net.tsv", tmp / "gt.tsv"


class TestPinnedIngest:
    def test_edgelist(self, pinned_files):
        g, rep = w.load_edgelist(pinned_files[0])
        assert g.digest() == (
            "321c3b439a23b726aea22e1156c3e3a49544fa413d94a7aac515eb5291bfe3a3"
        )
        assert dataclasses.astuple(rep) == (13379, 0, 0, 16427, 13379)

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
        assert dataclasses.astuple(rep) == (16508, 1217, 1912, 16427, 13379)

    def test_membership(self, pinned_files):
        membership = w.read_membership(pinned_files[1])
        text = "".join(f"{k}\t{v}\n" for k, v in membership.items())
        assert len(membership) == 40000
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5f7b0f367016929f88679bba9c15f115d74f06da01f790ecb6d093b4159a7cfd"
        )
