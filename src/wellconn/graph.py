"""Immutable simple undirected graphs with external string labels.

Graphs are stored in CSR form (``indptr``/``adj``) with a dense internal
index per node. External labels are distinct tokens mapped to indices in
first-appearance order of the input stream, which keeps indexing and every
downstream tie-break reproducible.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple

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
    """Simple undirected graph, immutable: its CSR and one distinct label per node.

    The labels are held as `text`: their UTF-8 bytes, each label followed by
    LF. The list of labels is derived from it at the first read of `labels`,
    and kept.
    """

    __slots__ = ("indptr", "adj", "text", "_labels")

    def __init__(self, indptr: np.ndarray, adj: np.ndarray, labels: list[str]):
        self.indptr = indptr
        self.adj = adj
        self.text = _labels_text(labels)
        self._labels: list[str] | None = None

    @classmethod
    def _of_text(
        cls,
        indptr: np.ndarray,
        adj: np.ndarray,
        text: bytes,
        labels: list[str] | None = None,
    ) -> "Graph":
        """A graph on a `text` made in this package, so unchecked: one distinct
        label per node, each followed by LF. `labels`, if given, is the list
        that `text` decodes to."""
        g = cls.__new__(cls)
        g.indptr, g.adj, g.text, g._labels = indptr, adj, text, labels
        return g

    @property
    def labels(self) -> list[str]:
        """The label of each node, decoded from `text` at the first read."""
        if self._labels is None:
            self._labels = self.text.decode("utf-8").split("\n")[:-1]
        return self._labels

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
        indptr = np.ascontiguousarray(self.indptr)
        adj = np.ascontiguousarray(self.adj)
        h = sha256(9 + len(self.text) + indptr.nbytes + adj.nbytes)
        h.update(b"graph/v1\n")
        h.update(self.text)
        h.update(indptr)
        h.update(adj)
        return h.hexdigest()

    def with_isolated(self, extra_labels: list[str]) -> "Graph":
        """Copy of this graph extended with degree-0 nodes for `extra_labels`."""
        if extra_labels:
            present = _unique(extra_labels).intersection(self.labels)
            if present:
                raise ContractViolation(f"label already present: {min(present)!r}")
        return self._extended(_labels_text(extra_labels), extra_labels)

    def _extended(
        self, extra_text: bytes, extra_labels: list[str] | None = None
    ) -> "Graph":
        """`with_isolated` for the `text` of labels known to be distinct and absent here.

        `extra_labels`, if given, is the list that `extra_text` decodes to. With
        this graph's labels already decoded, the copy's list is the two joined,
        and their strings are shared rather than decoded again.
        """
        if not extra_text:
            return self
        indptr = np.concatenate(
            [self.indptr, np.full(extra_text.count(b"\n"), self.indptr[-1], np.int64)]
        )
        labels = None
        if self._labels is not None and extra_labels is not None:
            labels = self._labels + extra_labels
        return Graph._of_text(indptr, self.adj, self.text + extra_text, labels)

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


# OpenSSL's SHA-256 is about six times as fast as the interpreter's own,
# but `import hashlib` maps OpenSSL's libcrypto, which costs a process 3-4 ms
# and 3.6 MB of resident memory (2-CPU machine); so the load pays for itself
# from about 0.8 MB hashed.
_OPENSSL_FROM = 768 << 10


def sha256(nbytes: int):
    """A new SHA-256 hasher for an object of `nbytes` bytes.

    Below `_OPENSSL_FROM` bytes it is the interpreter's built-in SHA-256,
    unless OpenSSL is already loaded in this process; then, and for larger
    objects, it is `hashlib.sha256`. Both give the same digests.
    """
    if nbytes < _OPENSSL_FROM and "_hashlib" not in sys.modules:
        try:
            from _sha2 import sha256 as builtin  # 3.12 on
        except ImportError:
            try:
                from _sha256 import sha256 as builtin  # 3.10 and 3.11
            except ImportError:
                builtin = None
        if builtin is not None:
            return builtin()
    import hashlib

    return hashlib.sha256()


def _labels_text(labels: list[str]) -> bytes:
    """A graph's `text` for `labels`; a label that holds LF raises ContractViolation."""
    if not labels:
        return b""
    text = "\n".join(labels)
    if text.count("\n") != len(labels) - 1:
        lab = next(lab for lab in labels if "\n" in lab)
        raise ContractViolation(f"label holds a line feed: {lab!r}")
    return (text + "\n").encode("utf-8")


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


# characters per slice of the decoded text that the per-line reader splits
# at once: its lines are made a block at a time, not all together
_LINE_BLOCK = 65536


def _line_pairs(
    data: bytes | str, newline: str, error: type, delimiter: str, name: str
) -> Iterator[tuple[int, str, str]]:
    """(line number, left token, right token) of each nonblank line of `data`.

    Bytes are decoded as UTF-8. At the first invalid byte, the lines before
    its own are yielded, and then `error` is raised with its line number. A
    line that is not two nonempty tokens split by one `delimiter` raises
    `error`, which calls the delimiter `name`. With `newline` "" lines end at
    LF, CR or CRLF, which become LF in a copy of the text; with "\n" at LF
    alone, and a line's trailing CRs are dropped.
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
    if not newline and "\r" in data:
        data = data.replace("\r\n", "\n").replace("\r", "\n")
    # the text is split a block of whole lines at a time, so that only one
    # block's lines are held beside it
    line_no, start, end = 0, 0, len(data)
    while start < end:
        stop = data.find("\n", start + _LINE_BLOCK)
        if stop < 0:
            stop = end
        for line in data[start:stop].split("\n"):
            line_no += 1
            line = line.rstrip("\r")
            if not line.strip():
                continue
            parts = line.split(delimiter)
            if len(parts) != 2 or not parts[0] or not parts[1]:
                message = f"expected two {name}-separated tokens, got {line!r}"
                raise error(line_no, message)
            yield line_no, parts[0], parts[1]
        start = stop + 1
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


# tokens or lines per block in the bulk packers and writers: 512 KB per
# 8-byte scratch array
_PACK_BLOCK = 65536


def _token_keys(data: bytes | str) -> np.ndarray | None:
    """Each token of a common-shape input as a big-endian, zero-padded uint64.

    None if `data` does not have the common shape or a token is longer than
    8 bytes. Distinct tokens get distinct keys, as no token holds a zero byte.
    """
    shape = _two_columns(data)
    return None if shape is None else _gather_keys(*shape)


def _text_keys(text: bytes) -> np.ndarray | None:
    """Each label of a graph's `text` as the uint64 key `_token_keys` gives it.

    None unless every label packs: 1-8 bytes of printable ASCII (0x21-0x7E).
    The keys compare as the labels' bytes do.
    """
    buf = np.frombuffer(text, np.uint8)
    if buf.size == 0:
        return np.empty(0, np.uint64)
    if buf.max() > 0x7E:
        return None
    ends = np.flatnonzero(buf == 0x0A)
    # every byte below 0x21 is a label's LF, and no label is empty
    if (
        np.count_nonzero(buf < 0x21) != len(ends)
        or ends[0] == 0
        or np.diff(ends).min(initial=2) < 2
    ):
        return None
    return _gather_keys(buf, ends)


def _gather_keys(buf: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The key of each token of `buf` that ends at `ends` and starts after the last.

    None if a token is longer than 8 bytes.
    """
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


def _key_bytes(keys: np.ndarray) -> np.ndarray:
    """The 8 big-endian bytes of each key, one row per key: a packed label, NUL-padded."""
    return keys.astype(">u8").view(np.uint8).reshape(len(keys), 8)


def _lines(*fields: np.ndarray | bytes) -> bytes:
    """Lines of the fields side by side, with every NUL byte dropped.

    A field is a (lines, width) uint8 matrix, or bytes that every line holds;
    the first is a matrix. Packed labels hold no NUL, so a matrix may pad
    with them.
    """
    columns = [np.frombuffer(f, np.uint8) if isinstance(f, bytes) else f for f in fields]
    rows = np.empty((len(fields[0]), sum(c.shape[-1] for c in columns)), np.uint8)
    at = 0
    for column in columns:
        rows[:, at : at + column.shape[-1]] = column
        at += column.shape[-1]
    return rows[rows != 0].tobytes()


def _keys_text(keys: np.ndarray) -> bytes:
    """The `text` of the labels that `keys` pack."""
    return _lines(_key_bytes(keys), b"\n")


def _digits(values: np.ndarray) -> np.ndarray:
    """Each nonnegative value's decimal digits, right-aligned in NUL-padded uint8 rows."""
    width = len(str(int(values.max(initial=0))))
    digits = np.zeros((len(values), width), np.uint8)
    digits[:, -1] = values % 10 + 0x30
    rest = values // 10
    for col in range(width - 2, -1, -1):
        digits[:, col] = np.where(rest > 0, rest % 10 + 0x30, 0)
        rest //= 10
    return digits


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
    n, text = len(distinct), _keys_text(distinct)
    del distinct
    return _ingest(n, text, ids[0::2], ids[1::2], lines_read, self_loops)


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
    labels = list(index)
    del index
    return _ingest(
        len(labels), _labels_text(labels), u, v, lines_read, self_loops, labels
    )


def _ingest(
    n: int,
    text: bytes,
    u: np.ndarray,
    v: np.ndarray,
    lines_read: int,
    self_loops: int,
    labels: list[str] | None = None,
) -> tuple[Graph, IngestReport]:
    indptr, adj = _build_csr(n, u, v)
    m = len(adj) // 2
    report = IngestReport(
        lines_read=lines_read,
        self_loops_dropped=self_loops,
        duplicate_edges_dropped=lines_read - self_loops - m,
        nodes=n,
        edges=m,
    )
    return Graph._of_text(indptr, adj, text, labels), report


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


def _write_blocks(
    target: str | Path | IO, n: int, block: Callable[[slice], bytes]
) -> None:
    """Write `block(rows)` for each slice of [0, n) of `_PACK_BLOCK` rows.

    Each block is UTF-8 text, written to a path as it is, or decoded to an
    open text stream. The slices bound the bulk writers' scratch.
    """
    blocks = (block(slice(lo, lo + _PACK_BLOCK)) for lo in range(0, n, _PACK_BLOCK))
    if not isinstance(target, (str, Path)):
        for data in blocks:
            target.write(data.decode("utf-8"))
        return
    with open(target, "wb") as fh:
        for data in blocks:
            fh.write(data)


def write_edgelist(g: Graph, target: str | Path | IO, delimiter: str = "\t") -> None:
    """Write each edge once as `label_u<delim>label_v`, ordered by index pair."""
    keys = _text_keys(g.text) if "\x00" not in delimiter else None
    u, v = g.edge_arrays()
    if keys is None:
        labels = g.labels
        pairs = zip(u.tolist(), v.tolist())
        write_lines(target, (f"{labels[a]}{delimiter}{labels[b]}\n" for a, b in pairs))
        return
    sep = delimiter.encode("utf-8")
    _write_blocks(target, len(u), lambda rows: _lines(
        _key_bytes(keys[u[rows]]), sep, _key_bytes(keys[v[rows]]), b"\n"
    ))


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on `nodes` with exactly the edges internal to it.

    Nodes are renumbered 0..k-1 in ascending original-index order; the
    second return value maps old index to new.
    """
    node_arr = np.asarray(sorted(set(int(x) for x in nodes)), dtype=np.int64)
    if node_arr.size and (node_arr[0] < 0 or node_arr[-1] >= g.n):
        raise ContractViolation("induced_subgraph: node index out of range")
    sub_indptr, sub_adj = _kernels.induced_csr(g.indptr, g.adj, node_arr)
    labels = g.labels
    mapping = {int(old): new for new, old in enumerate(node_arr.tolist())}
    return Graph(sub_indptr, sub_adj, [labels[i] for i in mapping]), mapping


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
