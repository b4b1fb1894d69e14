"""Output checks made apart from wellconn.

Every check reads the files the program wrote with its own parser and
recomputes what it can with numpy, scipy and networkx, or tests a property
the method must have. Each failed check raises `CheckFailed`.
"""

from __future__ import annotations

import math
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# audit clusters whose min cut is recomputed with networkx: the first few of
# at most this size, so that the oracle stays fast
STOER_WAGNER_SAMPLE = 2
STOER_WAGNER_MAX_SIZE = 200


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _node(label: str) -> int:
    return int(label[1:])  # labels are "n<index>", see workloads.make_inputs


class EdgeFile:
    """The edgelist as the benchmark wrote it, parsed back from disk."""

    def __init__(self, path: Path, n: int):
        with open(path, encoding="utf-8") as fh:
            ends = [_node(tok) for line in fh for tok in line.rstrip("\n").split("\t")]
        flat = np.asarray(ends, np.int64)
        self.n = n
        self.lines = len(flat) // 2
        u, v = flat[0::2], flat[1::2]
        keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
        self.u, self.v = keys // n, keys % n  # distinct unordered pairs
        # node order of a reader indexing labels by first appearance
        seen, first = np.unique(flat, return_index=True)
        self.first_seen = seen[np.argsort(first, kind="stable")]

    @property
    def pairs(self) -> int:
        return len(self.u)

    @property
    def nodes(self) -> int:
        return len(self.first_seen)


def read_partition(path: Path, n: int) -> tuple[np.ndarray, list[int]]:
    """Cluster id per node, checking the file names each of the n nodes once.

    Also returns the node of each line, in file order.
    """
    nodes: list[int] = []
    ids: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            label, token = line.rstrip("\n").split("\t")
            nodes.append(_node(label))
            ids.append(int(token))
    arr = np.asarray(nodes, np.int64)
    _require(len(arr) == n, f"{path.name}: {len(arr)} lines for {n} nodes")
    _require(
        np.array_equal(np.sort(arr), np.arange(n)),
        f"{path.name}: not a partition of exactly the input's labels",
    )
    assignment = np.empty(n, np.int64)
    assignment[arr] = ids
    return assignment, nodes


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    pairs = len(np.unique(a * (b.max() + 1) + b))
    return pairs == len(np.unique(a)) == len(np.unique(b))


def refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    return len(np.unique(fine * (coarse.max() + 1) + coarse)) == len(np.unique(fine))


def _intra(edges: EdgeFile, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = assignment[edges.u] == assignment[edges.v]
    return edges.u[keep], edges.v[keep]


def components_within(edges: EdgeFile, assignment: np.ndarray) -> np.ndarray:
    """scipy's connected components of every cluster's induced subgraph."""
    u, v = _intra(edges, assignment)
    graph = coo_matrix((np.ones(len(u)), (u, v)), shape=(edges.n, edges.n)).tocsr()
    return connected_components(graph, directed=False)[1]


def check_treat_payload(payload: dict, edges: EdgeFile, out: np.ndarray, mode: str) -> None:
    ingest = payload["ingest"]
    _require(payload["mode"] == mode, "treat payload names the wrong mode")
    _require(ingest["lines_read"] == edges.lines, "treat: lines_read differs from the file")
    _require(ingest["nodes"] == edges.nodes, "treat: ingest node count is wrong")
    _require(ingest["edges"] == edges.pairs, "treat: ingest edge count is wrong")
    _require(payload["graph"] == {"nodes": edges.n, "edges": edges.pairs},
             "treat: graph node or edge count is wrong")
    _require(payload["clusters_out"] == len(np.unique(out)), "treat: clusters_out is wrong")


def check_treated(mode: str, edges: EdgeFile, given: np.ndarray, out: np.ndarray,
                  planted: np.ndarray | None) -> None:
    """Properties of the treated clustering `out` of the input `given`."""
    _require(refines(out, given), "treated clustering does not refine the input")
    if mode == "cc":
        _require(same_partition(out, components_within(edges, given)),
                 "cc output differs from scipy's components of the input clusters")
        return
    _require(same_partition(out, components_within(edges, out)),
             "wcc kept a disconnected cluster")
    u, v = _intra(edges, out)
    degree = np.bincount(np.concatenate([u, v]), minlength=edges.n)
    min_degree = np.full(out.max() + 1, np.iinfo(np.int64).max)
    np.minimum.at(min_degree, out, degree)
    sizes = np.bincount(out)
    big = sizes >= 2
    _require(bool(np.all(min_degree[big] > np.log10(sizes[big]))),
             "wcc kept a cluster whose minimum degree does not exceed its bound")
    if planted is not None:
        _require(same_partition(out, planted), "wcc output differs from the planted communities")


def check_audit(payload: dict, mode: str, edges: EdgeFile, out: np.ndarray,
                file_order: list[int]) -> int:
    """Audit of the treated clustering; returns how many min cuts networkx redid."""
    _require(payload["graph"]["nodes"] == edges.n and payload["graph"]["edges"] == edges.pairs,
             "audit: graph node or edge count is wrong")
    records = payload["clusters"]
    _require(len(records) == len(np.unique(out)), "audit: wrong number of clusters")
    if mode == "wcc":
        _require(payload["counts"]["poor"] == 0, "audit finds poor clusters after wcc")
        _require(payload["counts"]["disconnected"] == 0,
                 "audit finds disconnected clusters after wcc")
    # wellconn indexes edgelist labels by first appearance, then the extra
    # labels of the clustering file in file order, and numbers clusters by
    # their smallest node index
    index = np.full(edges.n, -1, np.int64)
    index[edges.first_seen] = np.arange(edges.nodes)
    extra = [v for v in file_order if index[v] < 0]
    index[extra] = edges.nodes + np.arange(len(extra))
    smallest = np.full(out.max() + 1, edges.n, np.int64)
    np.minimum.at(smallest, out, index)
    canonical = np.argsort(np.argsort(smallest))[out]
    sizes = np.bincount(canonical)
    _require([r["size"] for r in records] == sizes.tolist(), "audit: cluster sizes differ")
    redone = 0
    for rec in records:
        if redone == STOER_WAGNER_SAMPLE:
            break
        if rec["min_cut"] is None or not 3 <= rec["size"] <= STOER_WAGNER_MAX_SIZE:
            continue
        members = np.flatnonzero(canonical == rec["cluster_id"])
        keep = np.isin(edges.u, members) & np.isin(edges.v, members)
        graph = nx.Graph()
        graph.add_edges_from(zip(edges.u[keep].tolist(), edges.v[keep].tolist()))
        _require(graph.number_of_nodes() == len(members) and nx.is_connected(graph),
                 f"audit: cluster {rec['cluster_id']} is not connected")
        value, _ = nx.stoer_wagner(graph)
        _require(value == rec["min_cut"],
                 f"audit: cluster {rec['cluster_id']} min cut {rec['min_cut']}, "
                 f"networkx finds {value}")
        redone += 1
    return redone


def _comb2(x: np.ndarray) -> int:
    return sum(int(k) * (int(k) - 1) // 2 for k in x.tolist())


def expected_scores(edges: EdgeFile, truth: np.ndarray, est: np.ndarray) -> dict[str, float]:
    """NMI (arithmetic mean), ARI and AGRI recomputed with numpy."""
    n = len(truth)
    _, cell = np.unique(truth * (est.max() + 1) + est, return_counts=True)
    a, b = np.bincount(truth), np.bincount(est)
    a, b = a[a > 0], b[b > 0]

    def entropy(counts):
        p = counts / n
        return float(-(p * np.log2(p)).sum())

    mutual = entropy(a) + entropy(b) - entropy(cell)
    mean_h = (entropy(a) + entropy(b)) / 2
    nmi = mutual / mean_h if mean_h else float(same_partition(truth, est))
    index, x, y = _comb2(cell), _comb2(a), _comb2(b)
    expected = x * y / (n * (n - 1) // 2)
    ari = (index - expected) / ((x + y) / 2 - expected)
    same_t = truth[edges.u] == truth[edges.v]
    same_e = est[edges.u] == est[edges.v]
    tt, tf = int(np.sum(same_t & same_e)), int(np.sum(same_t & ~same_e))
    ft, ff = int(np.sum(~same_t & same_e)), int(np.sum(~same_t & ~same_e))
    agri = 2 * (tt * ff - tf * ft) / ((tt + tf) * (tf + ff) + (tt + ft) * (ft + ff))
    return {"nmi": nmi, "ari": ari, "agri": agri}


def check_eval(payload: dict, edges: EdgeFile, truth: np.ndarray, est: np.ndarray) -> None:
    scores = payload["scores"]
    _require(sorted(scores) == ["agri", "ari", "nmi", "rmi"], "eval: scores missing")
    _require(payload["metadata"]["universe_nodes"] == edges.n, "eval: wrong universe")
    for name, value in expected_scores(edges, truth, est).items():
        _require(math.isclose(scores[name], value, rel_tol=1e-9, abs_tol=1e-9),
                 f"eval: {name} is {scores[name]}, numpy gives {value}")
