"""Immutable simple undirected graphs with external string labels.

Graphs are stored in CSR form (``indptr``/``adj``) with a dense internal
index per node. External labels are arbitrary tokens mapped to indices in
first-appearance order of the input stream, which keeps indexing and every
downstream tie-break reproducible.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from . import _kernels
from .errors import ContractViolation, EdgelistParseError


@dataclass(frozen=True)
class IngestReport:
    """Counters describing one edgelist load."""

    lines_read: int
    self_loops_dropped: int
    duplicate_edges_dropped: int
    nodes: int
    edges: int


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges, immutable."""

    __slots__ = ("indptr", "adj", "labels", "_label_index", "_digest")

    def __init__(self, indptr: np.ndarray, adj: np.ndarray, labels: list[str]):
        self.indptr = indptr
        self.adj = adj
        self.labels = labels
        self._label_index: dict[str, int] | None = None
        self._digest: str | None = None

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

    def label_index(self) -> dict[str, int]:
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once, as (u, v) arrays with u < v, sorted."""
        n = self.n
        counts = np.diff(self.indptr)
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        dst = self.adj.astype(np.int64)
        keep = src < dst
        return src[keep], dst[keep]

    def edges(self) -> Iterator[tuple[int, int]]:
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    def digest(self) -> str:
        """Structure fingerprint (labels plus adjacency), hex sha256."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(b"graph/v1\n")
            for lab in self.labels:
                h.update(lab.encode("utf-8"))
                h.update(b"\n")
            h.update(np.ascontiguousarray(self.indptr).tobytes())
            h.update(np.ascontiguousarray(self.adj).tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def with_isolated(self, extra_labels: list[str]) -> "Graph":
        """Copy of this graph extended with degree-0 nodes for `extra_labels`."""
        if not extra_labels:
            return self
        known = self.label_index()
        for lab in extra_labels:
            if lab in known:
                raise ContractViolation(f"label already present: {lab!r}")
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
        elif len(labels) != num_nodes:
            raise ContractViolation("label count does not match node count")
        return cls(indptr, adj, list(labels))


def _build_csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays from endpoint arrays; normalizes, deduplicates, sorts rows."""
    keep = u != v
    u, v = u[keep], v[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if lo.size:
        keys = np.unique(lo * np.int64(n) + hi)
        lo, hi = keys // n, keys % n
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.argsort(src * np.int64(n) + dst)
    adj = dst[order].astype(np.int32)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, adj


def _open_text(source: str | Path | IO) -> IO:
    """Normalize path / bytes / stream inputs to a text stream the caller closes."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return io.StringIO(data)


def load_edgelist(
    source: str | Path | IO, delimiter: str = "\t"
) -> tuple[Graph, IngestReport]:
    """Read an edgelist (one `u<delim>v` pair per line) into a Graph.

    Blank lines are ignored. Direction is ignored. Self-loops and duplicate
    edges (after unordered-pair normalization) are dropped and counted.
    Labels are indexed in first-appearance order; a self-loop on an otherwise
    unseen label does not create a node.
    """
    with _open_text(source) as stream:
        index: dict[str, int] = {}
        us: list[int] = []
        vs: list[int] = []
        lines_read = 0
        self_loops = 0
        for line_no, raw in enumerate(stream, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            lines_read += 1
            parts = line.split(delimiter)
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise EdgelistParseError(
                    line_no, f"expected two {delimiter!r}-separated tokens, got {line!r}"
                )
            a, b = parts
            if a == b:
                self_loops += 1
                continue
            ia = index.setdefault(a, len(index))
            ib = index.setdefault(b, len(index))
            us.append(ia)
            vs.append(ib)

    n = len(index)
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    indptr, adj = _build_csr(n, u, v)
    m = len(adj) // 2
    dupes = lines_read - self_loops - m
    labels = list(index.keys())
    report = IngestReport(
        lines_read=lines_read,
        self_loops_dropped=self_loops,
        duplicate_edges_dropped=dupes,
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
    mark = np.full(g.n, -1, np.int64)
    sub_indptr, sub_adj = _kernels.induced_csr(g.indptr, g.adj, node_arr, mark)
    labels = [g.labels[i] for i in node_arr.tolist()]
    mapping = {int(old): new for new, old in enumerate(node_arr.tolist())}
    return Graph(sub_indptr, sub_adj, labels), mapping


def connected_components(g: Graph) -> list[np.ndarray]:
    """Partition of node indices into components, ordered by smallest member."""
    if g.n == 0:
        return []
    labels = _kernels.connected_labels(g.indptr, g.adj)
    return split_by_label(labels)


def split_by_label(labels: np.ndarray) -> list[np.ndarray]:
    """Group indices by label value; labels assumed dense from 0."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    return np.split(order.astype(np.int64), boundaries)
