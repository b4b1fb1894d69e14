"""Partitions of graph nodes: model, thresholds, statistics, file I/O.

Clusterings are canonical: cluster ids are 0..k-1 ordered by the minimum
contained node index, which makes them invariant to the labels used in
input files and to processing order.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from . import _kernels
from .errors import ClusteringParseError, ContractViolation, UniverseMismatch
from .graph import (
    Graph,
    _digits,
    _key_bytes,
    _keys_text,
    _labels_text,
    _line_pairs,
    _lines,
    _read_input,
    _text_keys,
    _token_keys,
    _write_blocks,
    split_by_label,
    write_lines,
)


class Clustering:
    """A partition of [0, n): each node's cluster, numbered 0..k-1 by smallest member."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: np.ndarray):
        self.assignment = assignment

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def num_clusters(self) -> int:
        return int(self.assignment.max(initial=-1)) + 1

    def sizes(self) -> np.ndarray:
        """The number of nodes of each cluster, by cluster id."""
        return np.bincount(self.assignment)

    @property
    def clusters(self) -> list[np.ndarray]:
        """The members of each cluster, ascending, made afresh in O(n) each time."""
        return split_by_label(self.assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return np.array_equal(self.assignment, other.assignment)

    def __hash__(self):
        return hash(self.assignment.tobytes())

    @classmethod
    def from_assignment(cls, assignment: Iterable[int] | np.ndarray) -> "Clustering":
        """Canonicalize an arbitrary id-per-node array."""
        arr = np.asarray(assignment, dtype=np.int64)
        if arr.ndim != 1:
            raise ContractViolation("assignment must be one-dimensional")
        # first occurrence == minimum member index
        return cls(_kernels.first_appearance_ids(arr)[0])

    @classmethod
    def from_clusters(
        cls, clusters: Iterable[Iterable[int]], n: int
    ) -> "Clustering":
        """Build from explicit member sets; they must partition [0, n)."""
        assignment = np.full(n, -1, np.int64)
        for cid, members in enumerate(clusters):
            for v in members:
                if v < 0 or v >= n:
                    raise ContractViolation(f"node index {v} out of range")
                if assignment[v] != -1:
                    raise ContractViolation(f"node {v} assigned to two clusters")
                assignment[v] = cid
        if np.any(assignment < 0):
            missing = int(np.flatnonzero(assignment < 0)[0])
            raise ContractViolation(f"node {missing} not covered by any cluster")
        return cls.from_assignment(assignment)

    def singletons(self) -> int:
        return int(np.count_nonzero(self.sizes() == 1))


class _Threshold(NamedTuple):
    kind: str
    coefficient: float = 1.0


class ThresholdSpec(_Threshold):
    """The bound f(n) a cluster's min cut must strictly exceed.

    kinds: "log10-multiple" (f(n) = coefficient * log10(n)), "constant"
    (f(n) = coefficient), "connectivity-only" (f(n) = 0, connectivity is the
    only requirement).
    """

    __slots__ = ()

    KINDS = ("log10-multiple", "constant", "connectivity-only")

    # a NamedTuple may not define __new__ in its own body, so the fields sit
    # in a base and the checks here
    def __new__(cls, kind: str, coefficient: float = 1.0):
        if kind not in cls.KINDS:
            raise ContractViolation(f"unknown threshold kind: {kind!r}")
        if not math.isfinite(coefficient) or coefficient < 0:
            raise ContractViolation(
                "threshold coefficient must be finite and nonnegative, "
                f"got {coefficient}"
            )
        return super().__new__(cls, kind, coefficient)

    # the base's _make, which _replace calls, would skip the checks
    @classmethod
    def _make(cls, iterable) -> "ThresholdSpec":
        return cls(*iterable)

    def value(self, size: int) -> float:
        """The bound f(size) for a cluster of the given current size."""
        if size < 1:
            raise ContractViolation("cluster size must be at least 1")
        if self.kind == "log10-multiple":
            return self.coefficient * math.log10(size)
        if self.kind == "constant":
            return self.coefficient
        return 0.0

    @classmethod
    def parse(cls, text: str) -> "ThresholdSpec":
        """Parse flag grammar: '1log10', '2.5log10', '0log10', '3', 'connectivity'."""
        token = text.strip().lower()
        if token == "connectivity":
            return cls("connectivity-only", 0.0)
        if token.endswith("log10"):
            coef = token[: -len("log10")]
            try:
                return cls("log10-multiple", float(coef))
            except ValueError:
                raise ContractViolation(f"bad threshold: {text!r}") from None
        try:
            return cls("constant", float(int(token)))
        except (ValueError, OverflowError):
            raise ContractViolation(f"bad threshold: {text!r}") from None

    def __str__(self) -> str:
        if self.kind == "connectivity-only":
            return "connectivity"
        if self.kind == "constant":
            return str(int(self.coefficient))
        coef = self.coefficient
        text = str(int(coef)) if coef == int(coef) else repr(coef)
        return f"{text}log10"


DEFAULT_THRESHOLD = ThresholdSpec("log10-multiple", 1.0)


def is_well_connected(cut_value: int, cluster_size: int, t: ThresholdSpec) -> bool:
    """Strict test: singletons pass by convention, otherwise cut > f(size)."""
    if cluster_size < 1:
        raise ContractViolation("cluster size must be at least 1")
    if cut_value < 0:
        raise ContractViolation("cut value must be nonnegative")
    if cluster_size == 1:
        return True
    return cut_value > t.value(cluster_size)


class ClusterStats(NamedTuple):
    """Size statistics over non-singleton clusters plus node coverage."""

    non_singleton_count: int
    median_nonsingleton_size: float | None
    max_nonsingleton_size: int
    node_coverage: float


def node_coverage(c: Clustering) -> float:
    """Percentage of nodes in clusters of size at least two."""
    if c.n == 0:
        return 0.0
    sizes = c.sizes()
    return 100.0 * int(sizes[sizes >= 2].sum()) / c.n


def cluster_stats(c: Clustering) -> ClusterStats:
    sizes = c.sizes()
    sizes = sizes[sizes >= 2]
    if not len(sizes):
        return ClusterStats(0, None, 0, node_coverage(c))
    return ClusterStats(
        non_singleton_count=len(sizes),
        median_nonsingleton_size=float(np.median(sizes)),
        max_nonsingleton_size=int(sizes.max()),
        node_coverage=node_coverage(c),
    )


def is_refinement(fine: Clustering, coarse: Clustering) -> bool:
    """True when every cluster of `fine` lies inside one cluster of `coarse`."""
    if fine.n != coarse.n:
        raise UniverseMismatch(
            f"clusterings cover different universes: {fine.n} vs {coarse.n} nodes"
        )
    # the coarse cluster of one member of each fine cluster, which all must share
    target = np.zeros(fine.num_clusters, np.int64)
    target[fine.assignment] = coarse.assignment
    return bool(np.array_equal(target[fine.assignment], coarse.assignment))


class ClusteringLoadResult(NamedTuple):
    """A loaded clustering plus the graph it ended up covering.

    Labels present in the file but absent from the graph are admitted as
    degree-0 nodes (`graph` is then an extended copy); graph nodes missing
    from the file become singleton clusters.
    """

    clustering: Clustering
    graph: Graph
    unknown_labels: int
    missing_nodes: int


def read_membership(source: str | Path | IO) -> dict[str, str]:
    """Parse `node-label <tab> cluster-token` lines into a label -> token map.

    Labels keep their order of first appearance. Repeated identical
    assignments collapse; conflicting ones raise.
    """
    return _parse_membership(*_read_input(source))


def _parse_membership(data: bytes | str, newline: str) -> dict[str, str]:
    """`read_membership` of input already read by `_read_input`."""
    if _token_keys(data, pack=False) is not None:
        flat = (data if isinstance(data, str) else data.decode("ascii")).split()
        labels, tokens = flat[0::2], flat[1::2]
        membership = dict(zip(labels, tokens))
        # the map keeps each label's last token: it is the membership when
        # every line agrees with it, and otherwise the loop names the conflict
        if len(membership) == len(labels) or (
            list(map(membership.__getitem__, labels)) == tokens
        ):
            return membership
    return _membership_from_lines(data, newline)


def _membership_from_lines(data: bytes | str, newline: str) -> dict[str, str]:
    """The per-line loop of `read_membership`, for any input."""
    membership: dict[str, str] = {}
    pairs = _line_pairs(data, newline, ClusteringParseError, "\t", "tab")
    for line_no, label, token in pairs:
        known = membership.setdefault(label, token)
        if known != token:
            raise ClusteringParseError(
                line_no,
                f"node {label!r} assigned to conflicting clusters "
                f"{known!r} and {token!r}",
            )
    return membership


def admit(g: Graph, *memberships: dict[str, str]) -> Graph:
    """The graph extended by every label the memberships name outside it.

    The added labels become degree-0 nodes after the graph's own, in order
    of first appearance, one membership after another (`g` itself when
    nothing is added).
    """
    extra = dict.fromkeys(lab for m in memberships for lab in m)
    for lab in g.labels:
        extra.pop(lab, None)
    added = list(extra)
    return g._extended(_labels_text(added), added)


def clustering_from_membership(
    membership: dict[str, str], labels: list[str]
) -> Clustering:
    """Canonical Clustering of the nodes named `labels` from a membership map.

    Nodes that share a token share a cluster; nodes the map does not name
    become singletons; labels the map names outside `labels` are skipped.
    Ids are handed out in node order, so they are canonical as made.
    """
    # an unnamed node's key is its index; tokens are strings, so none clashes
    keys = map(membership.get, labels, range(len(labels)))
    tokens: dict[str | int, int] = {}
    return Clustering(
        np.array([tokens.setdefault(key, len(tokens)) for key in keys], np.int64)
    )


def join_memberships(
    g: Graph, *sources: str | Path | IO
) -> tuple[Graph, list[Clustering], list[int]]:
    """The graph with the files' extra labels, and each file's clustering and size.

    Labels the files name outside `g` become degree-0 nodes after its own, in
    order of first appearance, one file after another (`g` itself when
    nothing is added). Each clustering covers the extended graph: nodes that
    share a token share a cluster, and nodes the file does not name are
    singletons. A file's size is the number of labels it names.

    The files are joined to the graph as packed keys (see `_packed_lines`)
    when every label of `g` packs and every file does. Any other input takes
    the dict path (`read_membership`, `admit`, `clustering_from_membership`),
    which alone raises the parse errors, each file's before the next is read.
    Both paths give the same result.
    """
    graph_keys = _text_keys(g.text)
    if graph_keys is not None:
        # the graph's keys ascending, searched for in ascending order below
        graph_order = np.argsort(graph_keys)
        graph_keys = graph_keys[graph_order]
    packed: list[tuple] = []  # each file's `_packed_lines` and input, while all pack
    memberships: list[dict[str, str]] | None = None
    for source in sources:
        data, newline = _read_input(source)
        if memberships is None:
            lines = None
            if graph_keys is not None:
                lines = _packed_lines(data, graph_keys, graph_order)
            if lines is not None:
                packed.append((lines, data, newline))
                continue
            # the files before this one pack, so the dict path finds no error in them
            memberships = [_parse_membership(d, nl) for _, d, nl in packed]
        memberships.append(_parse_membership(data, newline))
    if memberships is None:
        return _packed_join(g, [lines for lines, _, _ in packed])
    graph = admit(g, *memberships)
    labels = graph.labels
    clusterings = [clustering_from_membership(m, labels) for m in memberships]
    return graph, clusterings, [len(m) for m in memberships]


def _packed_lines(
    data: bytes | str, graph_keys: np.ndarray, graph_order: np.ndarray
) -> tuple | None:
    """One membership file joined to the graph's labels, if the file packs.

    `graph_keys` are the keys of the graph's labels, ascending, and
    `graph_order` their nodes. A file packs when `graph._token_keys` reads it
    (the common shape, every label and token 1-8 bytes) and it names no label
    twice. Returns each graph node's key: its token's key if the file names
    it, else its own index, which no token's key can equal (a token's first
    byte is at least 0x21). Then the keys of the labels the graph lacks and
    of their tokens, in file order, and the number of lines. None if the
    file does not pack.
    """
    keys = _token_keys(data)
    if keys is None:
        return None
    labels, tokens = keys[0::2], keys[1::2]
    order = np.argsort(labels)
    ordered = labels[order]
    if (ordered[1:] == ordered[:-1]).any():
        return None
    # both sides ascending, so the search walks the file's labels once
    pos = np.searchsorted(ordered, graph_keys)
    np.minimum(pos, len(ordered) - 1, out=pos)
    named = ordered[pos] == graph_keys
    line = order[pos[named]]  # the line of each node the file names
    node_keys = np.arange(len(graph_keys), dtype=np.uint64)
    node_keys[graph_order[named]] = tokens[line]
    unknown = np.ones(len(labels), bool)
    unknown[line] = False
    return node_keys, labels[unknown], tokens[unknown], len(labels)


def _packed_join(
    g: Graph, packed: list[tuple]
) -> tuple[Graph, list[Clustering], list[int]]:
    """`join_memberships` of files that pack, from their `_packed_lines`."""
    extra_ids, extra = _kernels.first_appearance_ids(
        np.concatenate([unknown for _, unknown, _, _ in packed])
    )
    graph = g._extended(_keys_text(extra))
    added = np.arange(g.n, graph.n, dtype=np.uint64)
    clusterings = []
    for node_keys, unknown, tokens, _ in packed:
        keys = np.concatenate([node_keys, added])
        keys[g.n + extra_ids[: len(unknown)]] = tokens
        extra_ids = extra_ids[len(unknown) :]
        # a key's first node is its cluster's smallest: the ids are canonical
        ids, _ = _kernels.first_appearance_ids(keys, out=keys.view(np.int64))
        clusterings.append(Clustering(ids))
    return graph, clusterings, [count for *_, count in packed]


def load_clustering(source: str | Path | IO, g: Graph) -> ClusteringLoadResult:
    """Read `node-label <tab> cluster-token` lines into a canonical Clustering.

    The file is joined to the graph by `join_memberships`: as packed keys
    when its labels and tokens and the graph's labels are 1-8 bytes of
    printable ASCII, it has the common shape and repeats no label, and
    otherwise through `read_membership`, which alone raises the parse errors.
    """
    graph, (clustering,), (named,) = join_memberships(g, source)
    unknown = graph.n - g.n
    return ClusteringLoadResult(
        clustering=clustering,
        graph=graph,
        unknown_labels=unknown,
        missing_nodes=g.n - (named - unknown),
    )


def write_clustering(c: Clustering, g: Graph, target: str | Path | IO) -> None:
    """Write `node-label <tab> cluster-id` lines sorted by node label bytes."""
    if c.n != g.n:
        raise UniverseMismatch(
            f"clustering covers {c.n} nodes but graph has {g.n}"
        )
    keys = _text_keys(g.text)
    if keys is None:
        labels = g.labels
        ids = c.assignment.tolist()
        order = sorted(range(g.n), key=labels.__getitem__)
        write_lines(target, (f"{labels[v]}\t{ids[v]}\n" for v in order))
        return
    order = np.argsort(keys)  # packed keys sort as the label bytes do
    _write_blocks(target, g.n, lambda rows: _lines(
        _key_bytes(keys[order[rows]]), b"\t", _digits(c.assignment[order[rows]]), b"\n"
    ))
