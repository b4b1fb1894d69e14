"""Connectivity audits of a (graph, clustering) pair.

Each non-singleton cluster is classified as well connected, poorly
connected, or disconnected under a threshold; singletons form their own
reporting category so the proportions describe real clusters only.
Disconnected clusters, and each node's degree inside its cluster, are found
in one pass over the graph (`_engine.first_split`). A connected cluster's
minimum degree d fixes its min cut when d is 1, or when d is at least half
its size, rounded down (Chartrand, SIAM J. Appl. Math. 14:778, 1966): the
min cut is then d. Every other connected cluster goes through
`_engine.map_clusters`, serially or on forked worker processes: one of
minimum degree at most floor(f(size)) + 1 has its exact min cut read from
the forest certificate (`_kernels.forest_certificate`), and the solver takes
the rest and every cluster the certificate leaves undecided. The report
does not depend on the worker count.

The verdicts are held as numpy columns (`ClusterAudits`), with each
distinct size's bound computed once by `ThresholdSpec.value`. The document's
`clusters` array and the per-cluster table are written from the columns in
blocks of a few hundred records, each block a set of NUL-padded byte rows
(`graph._lines`), so no Python object is made per cluster on the way out.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._engine import (
    BY_CERTIFICATE,
    BY_SOLVER,
    STALLED,
    first_split,
    log_settled,
    map_clusters,
)
from .clustering import (
    Clustering,
    ClusterStats,
    ThresholdSpec,
    cluster_stats,
    node_coverage,
)
from .errors import ContractViolation
from .graph import Graph, _digits, _lines

CATEGORIES = ("well", "poor", "disconnected", "singleton", "skipped")


class ClusterAudit(NamedTuple):
    """Connectivity verdict for one cluster."""

    cluster_id: int
    size: int
    connected: bool
    min_cut: int | None
    category: str
    threshold_bound: float
    at_boundary: bool = False

    def to_dict(self) -> dict:
        return self._asdict()


class ClusterAudits(Sequence):
    """Every cluster's verdict, held as numpy columns.

    They are each cluster's size, whether it is connected, its min cut (-1
    where none was taken), its category's index in `CATEGORIES` and its
    at_boundary flag; its bound is an index into `bounds`, the values of
    `ThresholdSpec.value` at the distinct sizes. An item is that cluster's
    `ClusterAudit` of Python values, made when it is read; `rows` and
    `to_dicts` make them without the namedtuple, and `json_blocks` and
    `table_blocks` write the columns as text without making them.
    """

    def __init__(
        self, size: np.ndarray, connected: np.ndarray, cut: np.ndarray,
        code: np.ndarray, at_boundary: np.ndarray, bounds: list, bound_of: np.ndarray,
    ):
        self.size, self.connected, self.cut = size, connected, cut
        self.code, self.at_boundary = code, at_boundary
        self.bounds, self.bound_of = bounds, bound_of

    def __len__(self) -> int:
        return len(self.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        cut = int(self.cut[i])
        return ClusterAudit(
            i, int(self.size[i]), bool(self.connected[i]), None if cut < 0 else cut,
            CATEGORIES[self.code[i]], self.bounds[self.bound_of[i]],
            bool(self.at_boundary[i]),
        )

    def __iter__(self):
        return map(ClusterAudit._make, self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self.rows()) == list(other)

    def rows(self):
        """Each cluster's fields, in `ClusterAudit`'s order, as tuples."""
        bounds = self.bounds
        return zip(
            range(len(self)),
            self.size.tolist(),
            self.connected.tolist(),
            [None if cut < 0 else cut for cut in self.cut.tolist()],
            [CATEGORIES[code] for code in self.code.tolist()],
            [bounds[j] for j in self.bound_of.tolist()],
            self.at_boundary.tolist(),
        )

    def to_dicts(self) -> list[dict]:
        """Each cluster's `ClusterAudit.to_dict()`."""
        return [dict(zip(_FIELDS, row)) for row in self.rows()]

    def json_blocks(self, level: int):
        """The records as a JSON array, a member at `level`, in UTF-8 blocks.

        The text is that of `to_dicts()` by `json.JSONEncoder(indent=2,
        sort_keys=True)` at that level; a block holds `_BLOCK` records.
        """
        if not len(self):
            yield b"[]"
            return
        close = b"\n" + b"  " * level
        pad, inner = close + b"  ", close + b"    "
        # every record opens with ",{", and each of its keys, sorted, starts
        # a line of its own; the first record's comma becomes the "["
        names = sorted(_FIELDS)
        keys = [b'%s%s"%s": ' % (b"," if k else b"," + pad + b"{", inner, name.encode())
                for k, name in enumerate(names)]
        order = [_FIELDS.index(name) for name in names]
        blocks = self._blocks(
            (b"false", b"true"), [b'"%s"' % cat.encode() for cat in CATEGORIES],
            [json.dumps(bound).encode() for bound in self.bounds], b"null",
        )
        for lo, fields in blocks:
            data = _lines(*chain.from_iterable(zip(keys, map(fields.__getitem__, order))),
                          pad + b"}")
            yield b"[" + data[1:] if lo == 0 else data
        yield close + b"]"

    def table_blocks(self):
        """The per-cluster table in UTF-8 blocks: a header of `ClusterAudit`'s
        fields, then one line of tab-separated Python reprs per cluster, with
        an empty min cut where none was taken; a block holds `_BLOCK` lines."""
        yield "\t".join(_FIELDS).encode() + b"\n"
        blocks = self._blocks(
            (b"False", b"True"), [cat.encode() for cat in CATEGORIES],
            [repr(bound).encode() for bound in self.bounds], b"",
        )
        for _, fields in blocks:
            yield _lines(*chain.from_iterable(zip(fields, _TABS)))

    def _blocks(self, booleans, categories, bounds, none: bytes):
        """Each block's first row and its fields, in `ClusterAudit`'s order, as
        NUL-padded text rows: `booleans` for False and True, the text of
        each category and of each bound, and `none` for a min cut not taken."""
        booleans, categories, bounds = map(_rows_of, (booleans, categories, bounds))
        missing_text = _rows_of((b"", none))
        for lo in range(0, len(self), _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            cut = self.cut[rows]
            missing = cut < 0
            digits = _digits(np.maximum(cut, 0))
            digits[missing] = 0
            yield lo, (
                _digits(np.arange(lo, lo + len(cut))),
                _digits(self.size[rows]),
                booleans[self.connected[rows].view(np.uint8)],
                np.hstack([digits, missing_text[missing.view(np.uint8)]]),
                categories[self.code[rows]],
                bounds[self.bound_of[rows]],
                booleans[self.at_boundary[rows].view(np.uint8)],
            )


_FIELDS = ClusterAudit._fields
_TABS = (b"\t",) * (len(_FIELDS) - 1) + (b"\n",)
# records per block of `json_blocks` and `table_blocks`: about 0.1 MB of rows
_BLOCK = 512


def _rows_of(texts) -> np.ndarray:
    """Each of the byte strings `texts` as a NUL-padded uint8 row."""
    array = np.array(texts, "S")
    return array.view(np.uint8).reshape(len(array), array.itemsize)


class ConnectivityReport(NamedTuple):
    """Per-cluster verdicts plus the aggregate quantities of a run."""

    graph_nodes: int
    graph_edges: int
    graph_digest: str
    threshold: str
    clusters: ClusterAudits
    counts: dict[str, int]
    proportions: dict[str, float]
    node_coverage: float
    stats: ClusterStats
    mincut_size_cap: int | None = None

    def to_dict(self) -> dict:
        return {**self._payload(), "clusters": self.clusters.to_dicts()}

    def _payload(self) -> dict:
        """`to_dict()` with the clusters left as their columns, which a
        document writer takes through `ClusterAudits.json_blocks`."""
        return {
            "graph": {
                "nodes": self.graph_nodes,
                "edges": self.graph_edges,
                "digest": self.graph_digest,
            },
            "threshold": self.threshold,
            "mincut_size_cap": self.mincut_size_cap,
            "counts": dict(self.counts),
            "proportions": dict(self.proportions),
            "node_coverage": self.node_coverage,
            "cluster_stats": self.stats._asdict(),
            "clusters": self.clusters,
        }


def _min_cut(
    indptr: np.ndarray, adj: np.ndarray, members: np.ndarray, t: ThresholdSpec
) -> tuple[int, int]:
    """The min cut value of one connected cluster, and how it was settled.

    A cluster whose minimum degree d is at most floor(f(size)) + 1 is
    offered to the forest certificate, which finds its exact value from few
    forests; the solver takes the rest, and every cluster the certificate
    leaves undecided.
    """
    si, sa = _kernels.induced_csr(indptr, adj, members)
    how = BY_SOLVER
    degree_min = int(np.diff(si).min())
    if degree_min <= int(t.value(len(members))) + 1:
        value = _kernels.forest_certificate(
            len(members), *_kernels.upper_edges(si, sa), degree_min, exact=True
        )
        if value is not None:
            return value, BY_CERTIFICATE
        how = STALLED
    value, _side = _kernels.min_cut_csr(si, sa)
    return int(value), how


def connectivity_audit(
    g: Graph,
    c: Clustering,
    t: ThresholdSpec,
    *,
    processes: int = 1,
    mincut_size_cap: int | None = None,
) -> ConnectivityReport:
    """Classify every cluster and aggregate the category proportions."""
    if mincut_size_cap is not None and mincut_size_cap < 0:
        raise ContractViolation(f"mincut size cap must be >= 0, got {mincut_size_cap}")
    _piece, owner, degree = first_split(g, c, degrees=True)
    sizes = c.sizes()
    connected = np.bincount(owner, minlength=len(sizes)) == 1
    solve = connected & (sizes > 1)
    if mincut_size_cap is not None:
        solve &= sizes <= mincut_size_cap
    delta = np.full(len(sizes), np.iinfo(np.int64).max)
    np.minimum.at(delta, c.assignment, degree)
    certified = solve & ((delta == 1) | (delta >= sizes // 2))
    cut = np.where(certified, delta, -1)  # -1: no min cut taken
    ids = np.flatnonzero(solve & ~certified)
    results = map_clusters(g, c, ids, _min_cut, (t,), processes)
    settled = [int(np.count_nonzero(certified)), 0, 0, 0]
    for _, how in results:
        settled[how] += 1
    cut[ids] = [value for value, _ in results]
    log_settled("audit clusters", settled)
    # the bound once per distinct size, as t.value returns it
    distinct, bound_of = np.unique(sizes, return_inverse=True)
    bounds = [t.value(size) for size in distinct.tolist()]
    bound = np.array(bounds, np.float64)[bound_of]
    has_cut = cut >= 0
    code = np.select(
        [sizes == 1, ~connected, ~has_cut, cut > bound],
        [CATEGORIES.index(cat) for cat in ("singleton", "disconnected", "skipped", "well")],
        CATEGORIES.index("poor"),
    ).astype(np.uint8)
    counts = dict(zip(CATEGORIES, np.bincount(code, minlength=len(CATEGORIES)).tolist()))
    columns = ClusterAudits(
        sizes, connected, cut, code, has_cut & (np.abs(cut - bound) < 1e-9),
        bounds, bound_of,
    )
    non_singleton = sum(counts[cat] for cat in CATEGORIES if cat != "singleton")
    proportions = {
        cat: (counts[cat] / non_singleton if non_singleton else 0.0)
        for cat in CATEGORIES
        if cat != "singleton"
    }
    return ConnectivityReport(
        graph_nodes=g.n,
        graph_edges=g.m,
        graph_digest=g.digest(),
        threshold=str(t),
        clusters=columns,
        counts=counts,
        proportions=proportions,
        node_coverage=node_coverage(c),
        stats=cluster_stats(c),
        mincut_size_cap=mincut_size_cap,
    )


class AuditDelta(NamedTuple):
    """Differences (after - before) of the aggregate audit quantities."""

    node_coverage: float
    non_singleton_count: int
    median_nonsingleton_size: float | None
    max_nonsingleton_size: int
    proportions: dict[str, float]
    counts: dict[str, int]


def audit_delta(before: ConnectivityReport, after: ConnectivityReport) -> AuditDelta:
    """Aggregate differences between two audits of the same graph."""
    if before.graph_digest != after.graph_digest:
        raise ContractViolation("audits describe different graphs")
    med_before = before.stats.median_nonsingleton_size
    med_after = after.stats.median_nonsingleton_size
    median_delta = (
        med_after - med_before
        if med_before is not None and med_after is not None
        else None
    )
    return AuditDelta(
        node_coverage=after.node_coverage - before.node_coverage,
        non_singleton_count=(
            after.stats.non_singleton_count - before.stats.non_singleton_count
        ),
        median_nonsingleton_size=median_delta,
        max_nonsingleton_size=(
            after.stats.max_nonsingleton_size - before.stats.max_nonsingleton_size
        ),
        proportions={
            cat: after.proportions.get(cat, 0.0) - before.proportions.get(cat, 0.0)
            for cat in CATEGORIES
            if cat != "singleton"
        },
        counts={
            cat: after.counts.get(cat, 0) - before.counts.get(cat, 0)
            for cat in CATEGORIES
        },
    )
