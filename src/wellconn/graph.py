"""Immutable simple undirected graphs with external string labels.

Graphs are stored in CSR form (``indptr``/``adj``) with a dense internal
index per node. External labels are distinct tokens mapped to indices in
first-appearance order of the input stream, which keeps indexing and every
downstream tie-break reproducible.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _kernels
from .errors import ContractViolation, EdgelistParseError


class IngestReport(NamedTuple):
    """Counters describing one edgelist load."""

    lines_read: int
    self_loops_dropped: int
    duplicate_edges_dropped: int
    nodes: int
    edges: int


class Graph:
    """Simple undirected graph, immutable: its CSR and one distinct label per node."""

    __slots__ = ("indptr", "adj", "labels")

    def __init__(self, indptr: np.ndarray, adj: np.ndarray, labels: list[str]):
        self.indptr = indptr
        self.adj = adj
        self.labels = labels

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        return len(self.adj) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj[self.indptr[v] : self.indptr[v + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once, as (u, v) arrays with u < v, sorted."""
        return _kernels.upper_edges(self.indptr, self.adj)

    def digest(self) -> str:
        """Structure fingerprint (labels plus adjacency), hex sha256."""
        h = hashlib.sha256()
        h.update(b"graph/v1\n")
        # every label followed by a newline, in one update
        h.update("\n".join([*self.labels, ""]).encode("utf-8"))
        h.update(np.ascontiguousarray(self.indptr).tobytes())
        h.update(np.ascontiguousarray(self.adj).tobytes())
        return h.hexdigest()

    def with_isolated(self, extra_labels: list[str]) -> "Graph":
        """Copy of this graph extended with degree-0 nodes for `extra_labels`."""
        if extra_labels:
            present = _unique(extra_labels).intersection(self.labels)
            if present:
                raise ContractViolation(f"label already present: {min(present)!r}")
        return self._extended(extra_labels)

    def _extended(self, extra_labels: list[str]) -> "Graph":
        """`with_isolated` for labels known to be distinct and absent from this graph."""
        if not extra_labels:
            return self
        indptr = np.concatenate(
            [self.indptr, np.full(len(extra_labels), self.indptr[-1], np.int64)]
        )
        return Graph(indptr, self.adj, self.labels + list(extra_labels))

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: list[str] | None = None,
    ) -> "Graph":
        """Build a graph from index pairs; self-loops and duplicates dropped."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        u = arr[:, 0].astype(np.int64)
        v = arr[:, 1].astype(np.int64)
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= num_nodes):
            raise ContractViolation("edge endpoint out of range")
        indptr, adj = _build_csr(num_nodes, u, v)
        if labels is None:
            labels = [str(i) for i in range(num_nodes)]
        elif len(_unique(labels)) != num_nodes:
            raise ContractViolation("label count does not match node count")
        return cls(indptr, adj, list(labels))


def _unique(labels: list[str]) -> set[str]:
    """The set of `labels`; a label that repeats raises ContractViolation."""
    distinct = set(labels)
    if len(distinct) < len(labels):
        lab = next(lab for lab, k in Counter(labels).items() if k > 1)
        raise ContractViolation(f"label repeated: {lab!r}")
    return distinct


def _build_csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays from endpoint arrays; normalizes, deduplicates, sorts rows."""
    keep = u != v
    u, v = u[keep], v[keep]
    m = len(u)
    # each edge's two directed keys row * n + column, made in place, sorted
    # in place and kept where they differ from their predecessor, as a bare
    # np.unique takes a much slower hash path in numpy 2.4
    keys = np.empty(2 * m, np.int64)
    np.multiply(u, n, out=keys[:m])
    np.multiply(v, n, out=keys[m:])
    keys[:m] += v
    keys[m:] += u
    del keep, u, v
    keys.sort()
    distinct = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return indptr, keys.astype(np.int32)


def _read_input(source: str | Path | IO) -> tuple[bytes | str, str]:
    """The whole of `source`, and the newline mode its lines split in.

    A path is read as bytes, and its lines end at LF, CR or CRLF. Bytes and
    streams are returned as they read, and their lines end at LF alone.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return fh.read(), ""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source), "\n"
    return source.read(), "\n"


def _line_pairs(
    data: bytes | str, newline: str, error: type, delimiter: str, name: str
) -> Iterator[tuple[int, str, str]]:
    """(line number, left token, right token) of each nonblank line of `data`.

    Bytes are decoded as UTF-8. At the first invalid byte, the lines before
    its own are yielded, and then `error` is raised with its line number. A
    line that is not two nonempty tokens split by one `delimiter` raises
    `error`, which calls the delimiter `name`.
    """
    invalid = None
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            invalid = (
                data.count(b"\n", 0, exc.start) + 1,
                f"not valid UTF-8 (byte 0x{data[exc.start]:02x})",
            )
            data = data[: data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
    for line_no, raw in enumerate(io.StringIO(data, newline=newline), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) != 2 or not parts[0] or not parts[1]:
            message = f"expected two {name}-separated tokens, got {line!r}"
            raise error(line_no, message)
        yield line_no, parts[0], parts[1]
    if invalid:
        raise error(*invalid)


def _two_columns(data: bytes | str) -> tuple[np.ndarray, np.ndarray] | None:
    """The bytes of `data` and the end of each token, if `data` has the common shape.

    The common shape is what every writer here emits: lines of two nonempty
    tokens of printable ASCII (0x21-0x7E) split by one tab, each ending in LF
    except perhaps the last. Anything else gives None and is left to the
    per-line readers, which skip blank lines and raise the parse errors.
    The end of the last token is len(data) when the final LF is missing.
    """
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


# tokens per block in _token_keys: 512 KB per 8-byte scratch array
_PACK_BLOCK = 65536


def _token_keys(data: bytes | str) -> np.ndarray | None:
    """Each token of a common-shape input as a big-endian, zero-padded uint64.

    None if `data` does not have the common shape or a token is longer than
    8 bytes. Distinct tokens get distinct keys, as no token holds a zero byte.
    """
    shape = _two_columns(data)
    if shape is None:
        return None
    buf, ends = shape
    if buf.size < 8:
        buf = np.concatenate([buf, np.zeros(8 - buf.size, np.uint8)])
    # words[p] is the big-endian word of the 8 bytes from byte p on. A token
    # in the last 7 bytes takes the last word, shifted left onto its start.
    words = as_strided(
        buf[:8].view(">u8"), shape=(buf.size - 7,), strides=(1,), writeable=False
    )
    last = buf.size - 8
    keys = np.empty(len(ends), np.uint64)
    for lo in range(0, len(ends), _PACK_BLOCK):
        end = ends[lo : lo + _PACK_BLOCK]
        start = np.empty_like(end)
        start[0] = ends[lo - 1] + 1 if lo else 0
        start[1:] = end[:-1] + 1
        if (end - start).max() > 8:
            return None
        at = np.minimum(start, last)
        word = words[at].astype(np.uint64) << ((start - at) * 8).astype(np.uint64)
        # clear the bytes past the token's end
        cut = ((8 - (end - start)) * 8).astype(np.uint64)
        keys[lo : lo + len(end)] = word >> cut << cut
    return keys


def _label_keys(labels: list[str]) -> np.ndarray | None:
    """Each label as the uint64 key `_token_keys` gives it, if every label packs.

    A label packs when it is 1-8 bytes of printable ASCII (0x21-0x7E); else
    None. The keys compare as the labels' bytes do. The guard comes before
    the packing, as "S8" cuts a longer label to its first 8 bytes and drops
    trailing NULs: "abcdefghi" would take the key of "abcdefgh", and "a\\0"
    the key of "a".
    """
    sizes = np.fromiter(map(len, labels), np.int64, len(labels))
    if sizes.size and (sizes.min() < 1 or sizes.max() > 8):
        return None
    text = "".join(labels)
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    if buf.size and (buf.min() < 0x21 or buf.max() > 0x7E):
        return None
    return np.array(labels, "S8").view(">u8").astype(np.uint64)


def _key_labels(keys: np.ndarray) -> list[str]:
    """The label of each key of `_token_keys` or `_label_keys`."""
    return keys.astype(">u8").view("S8").astype(str).tolist()


def load_edgelist(
    source: str | Path | IO, delimiter: str = "\t"
) -> tuple[Graph, IngestReport]:
    """Read an edgelist (one `u<delim>v` pair per line) into a Graph.

    Blank lines are ignored. Direction is ignored. Self-loops and duplicate
    edges (after unordered-pair normalization) are dropped and counted.
    Labels are indexed in first-appearance order; a self-loop on an otherwise
    unseen label does not create a node.

    Input of the common shape (see `_two_columns`) with tab delimiters and
    labels of at most 8 bytes is parsed in bulk; every other input goes
    through the per-line loop, which alone raises the parse errors.
    """
    data, newline = _read_input(source)
    keys = _token_keys(data) if delimiter == "\t" else None
    if keys is None:
        return _edgelist_from_lines(data, newline, delimiter)
    del data
    # the bulk path is inline, so that each rebinding of `keys` frees the
    # array it held: the keys take 8 bytes per token
    pairs = keys.reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    lines_read, self_loops = len(pairs), int(np.count_nonzero(loops))
    if self_loops:
        # a label seen only in self-loops makes no node and takes no rank
        keys = pairs[~loops].ravel()
    del pairs, loops
    ids, distinct = _kernels.first_appearance_ids(keys)
    del keys
    labels = _key_labels(distinct)
    del distinct
    return _ingest(labels, ids[0::2], ids[1::2], lines_read, self_loops)


def _edgelist_from_lines(
    data: bytes | str, newline: str, delimiter: str
) -> tuple[Graph, IngestReport]:
    """The per-line loop of `load_edgelist`, for any input."""
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    lines_read = 0
    self_loops = 0
    pairs = _line_pairs(data, newline, EdgelistParseError, delimiter, repr(delimiter))
    for _, a, b in pairs:
        lines_read += 1
        if a == b:
            self_loops += 1
            continue
        us.append(index.setdefault(a, len(index)))
        vs.append(index.setdefault(b, len(index)))
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    del us, vs
    return _ingest(list(index), u, v, lines_read, self_loops)


def _ingest(
    labels: list[str], u: np.ndarray, v: np.ndarray, lines_read: int, self_loops: int
) -> tuple[Graph, IngestReport]:
    n = len(labels)
    indptr, adj = _build_csr(n, u, v)
    m = len(adj) // 2
    report = IngestReport(
        lines_read=lines_read,
        self_loops_dropped=self_loops,
        duplicate_edges_dropped=lines_read - self_loops - m,
        nodes=n,
        edges=m,
    )
    return Graph(indptr, adj, labels), report


def write_lines(target: str | Path | IO, lines: Iterable[str]) -> None:
    """Write `lines` to a path (UTF-8, LF endings) or to an open text stream."""
    owned = isinstance(target, (str, Path))
    stream = open(target, "w", encoding="utf-8", newline="\n") if owned else target
    try:
        lines = iter(lines)
        while batch := "".join(islice(lines, 65536)):
            stream.write(batch)
    finally:
        if owned:
            stream.close()


def write_edgelist(g: Graph, target: str | Path | IO, delimiter: str = "\t") -> None:
    """Write each edge once as `label_u<delim>label_v`, ordered by index pair."""
    labels = g.labels
    u, v = g.edge_arrays()
    write_lines(
        target,
        (f"{labels[a]}{delimiter}{labels[b]}\n" for a, b in zip(u.tolist(), v.tolist())),
    )


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on `nodes` with exactly the edges internal to it.

    Nodes are renumbered 0..k-1 in ascending original-index order; the
    second return value maps old index to new.
    """
    node_arr = np.asarray(sorted(set(int(x) for x in nodes)), dtype=np.int64)
    if node_arr.size and (node_arr[0] < 0 or node_arr[-1] >= g.n):
        raise ContractViolation("induced_subgraph: node index out of range")
    sub_indptr, sub_adj = _kernels.induced_csr(g.indptr, g.adj, node_arr)
    labels = [g.labels[i] for i in node_arr.tolist()]
    mapping = {int(old): new for new, old in enumerate(node_arr.tolist())}
    return Graph(sub_indptr, sub_adj, labels), mapping


def connected_components(g: Graph) -> list[np.ndarray]:
    """Partition of node indices into components, ordered by smallest member."""
    labels = _kernels.connected_labels(g.indptr, g.adj)
    return split_by_label(labels)


def split_by_label(labels: np.ndarray) -> list[np.ndarray]:
    """The indices of each label, for any integer labels, in ascending label order."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    return np.split(order.astype(np.int64), boundaries) if len(labels) else []
