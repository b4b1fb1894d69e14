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
the rest and every cluster the certificate leaves undecided. The verdicts
are held as columns. The report does not depend on the worker count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

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
from .graph import Graph

CATEGORIES = ("well", "poor", "disconnected", "singleton", "skipped")


@dataclass(frozen=True)
class ClusterAudit:
    """Connectivity verdict for one cluster."""

    cluster_id: int
    size: int
    connected: bool
    min_cut: int | None
    category: str
    threshold_bound: float
    at_boundary: bool = False

    def to_dict(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "size": self.size,
            "connected": self.connected,
            "min_cut": self.min_cut,
            "category": self.category,
            "threshold_bound": self.threshold_bound,
            "at_boundary": self.at_boundary,
        }


class ClusterAudits(Sequence):
    """Every cluster's verdict, held as one list per field of `ClusterAudit`.

    An item is that cluster's `ClusterAudit`, made when it is read; `rows`
    and `to_dicts` read the columns without making one.
    """

    def __init__(self, *columns: list):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return ClusterAudit(*(column[i] for column in self._columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, ClusterAudits):
            return self._columns == other._columns
        return list(self) == other

    def rows(self):
        """Each cluster's fields, in `ClusterAudit`'s order, as tuples."""
        return zip(*self._columns)

    def to_dicts(self) -> list[dict]:
        """Each cluster's `ClusterAudit.to_dict()`."""
        return [dict(zip(_FIELDS, row)) for row in self.rows()]


_FIELDS = tuple(f.name for f in fields(ClusterAudit))


@dataclass
class ConnectivityReport:
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
            "cluster_stats": asdict(self.stats),
            "clusters": self.clusters.to_dicts(),
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
    distinct, size_of = np.unique(sizes, return_inverse=True)
    bounds = np.array([t.value(size) for size in distinct.tolist()], object)[size_of]
    bound = bounds.astype(np.float64)
    has_cut = cut >= 0
    code = np.select(
        [sizes == 1, ~connected, ~has_cut, cut > bound],
        [CATEGORIES.index(cat) for cat in ("singleton", "disconnected", "skipped", "well")],
        CATEGORIES.index("poor"),
    )
    counts = dict(zip(CATEGORIES, np.bincount(code, minlength=len(CATEGORIES)).tolist()))
    min_cuts = np.where(has_cut, cut, None).tolist()
    columns = ClusterAudits(
        list(range(len(sizes))),
        sizes.tolist(),
        connected.tolist(),
        min_cuts,
        np.array(CATEGORIES, object)[code].tolist(),
        bounds.tolist(),
        (has_cut & (np.abs(cut - bound) < 1e-9)).tolist(),
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


@dataclass(frozen=True)
class AuditDelta:
    """Differences (after - before) of the aggregate audit quantities."""

    node_coverage: float
    non_singleton_count: int
    median_nonsingleton_size: float | None
    max_nonsingleton_size: int
    proportions: dict[str, float] = field(hash=False)
    counts: dict[str, int] = field(hash=False)


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
