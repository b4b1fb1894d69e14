"""Connectivity audits of a (graph, clustering) pair.

Each non-singleton cluster is classified as well connected, poorly
connected, or disconnected under a threshold; singletons form their own
reporting category so the proportions describe real clusters only.
Disconnected clusters, and each node's degree inside its cluster, are found
in one pass over the graph (`_engine.first_split`). A connected cluster's
minimum degree d fixes its min cut when d is 1, or when d is at least half
its size, rounded down (Chartrand, SIAM J. Appl. Math. 14:778, 1966): the
min cut is then d. The min cut of every other connected cluster is taken by
the solver through `_engine.map_clusters`, serially or on forked worker
processes. The report does not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from ._engine import first_split, map_clusters
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


@dataclass
class ConnectivityReport:
    """Per-cluster verdicts plus the aggregate quantities of a run."""

    graph_nodes: int
    graph_edges: int
    graph_digest: str
    threshold: str
    clusters: list[ClusterAudit]
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
            "clusters": [rec.to_dict() for rec in self.clusters],
        }


def _min_cut(indptr: np.ndarray, adj: np.ndarray, members: np.ndarray) -> int:
    """The min cut value of one connected cluster."""
    value, _side = _kernels.min_cut_csr(*_kernels.induced_csr(indptr, adj, members))
    return int(value)


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
    cuts = dict(zip(np.flatnonzero(certified).tolist(), delta[certified].tolist()))
    ids = np.flatnonzero(solve & ~certified)
    cuts.update(zip(ids.tolist(), map_clusters(g, c, ids, _min_cut, (), processes)))
    records = []
    counts = dict.fromkeys(CATEGORIES, 0)
    for cid, (size, whole) in enumerate(zip(sizes.tolist(), connected.tolist())):
        bound = t.value(size)
        value = cuts.get(cid)
        if size == 1:
            category = "singleton"
        elif not whole:
            category = "disconnected"
        elif value is None:
            category = "skipped"
        else:
            category = "well" if value > bound else "poor"
        counts[category] += 1
        at_boundary = value is not None and abs(value - bound) < 1e-9
        records.append(
            ClusterAudit(cid, size, whole, value, category, bound, at_boundary)
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
        clusters=records,
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
