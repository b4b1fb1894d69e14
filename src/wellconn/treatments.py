"""Connectivity-repair treatments for clusterings: CC, WCC, and CM.

CC replaces each cluster by the connected components of its induced
subgraph. WCC additionally removes minimum edge cuts until every emitted
cluster strictly beats the connectivity bound. CM is WCC plus a
re-clustering step applied to every part produced by a split.

CC is run as WCC with the connectivity-only bound f(n) = 0: a connected
piece passes any bound below one edge, so only the component split acts.

The parent graph is never mutated: removing a cut and keeping both sides is
the same as recursing on the induced subgraphs of the two sides, because
crossing edges vanish from both. All three treatments take the components
of every cluster from one pass over the graph (`_engine.first_split`). A
cluster whose pieces all pass as they are is done there; the others, each
with a piece to cut, peel or re-cluster, run through `_engine.map_clusters`,
serially or on forked worker processes. Each such cluster's pieces come back
as one concatenated member array and the piece sizes; outputs are merged
canonically and do not depend on the worker count. Only the remainder of a
low-degree peel and the parts of a non-trivial re-clusterer are labelled into
components again: each side of a global minimum cut of a connected graph is
connected.

A connected piece that may need a cut is first offered to the forest
certificate (`_kernels.forest_certificate`) at k = floor(bound) + 1: a piece
whose min cut it certifies to be at least k passes as it is. Only the other
pieces go to the exact solver, so every cut taken is the solver's first
optimum, as before.
"""

from __future__ import annotations

import logging
import os
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._engine import (
    BY_CERTIFICATE,
    BY_DEGREE,
    BY_SOLVER,
    STALLED,
    first_split,
    log_settled,
    map_clusters,
)
from .clustering import (
    Clustering,
    ThresholdSpec,
    admit,
    clustering_from_membership,
    read_membership,
)
from .errors import (
    ClusteringParseError,
    ContractViolation,
    ExternalClustererError,
    TreatmentError,
)
from .graph import Graph, split_by_label, write_edgelist

log = logging.getLogger("wellconn")


class TreatmentTrace(NamedTuple):
    """Counters describing one treatment run."""

    cuts_performed: int = 0
    components_splits: int = 0
    max_recursion_depth: int = 0
    clusters_in: int = 0
    clusters_out: int = 0


class IdentityClusterer:
    """Returns the whole graph as one cluster (reduces CM to WCC)."""

    # re-clustering a connected part returns the part itself
    trivial_on_connected = True

    def cluster(self, graph: Graph) -> Clustering:
        return Clustering.from_assignment(np.zeros(graph.n, np.int64))


class ComponentsClusterer:
    """Returns the connected components as the clusters."""

    trivial_on_connected = True

    def cluster(self, graph: Graph) -> Clustering:
        labels = _kernels.connected_labels(graph.indptr, graph.adj)
        return Clustering.from_assignment(labels)


class ExternalClusterer:
    """Runs an external command on an edgelist and reads back a clustering.

    The command template is expanded by substituting `{input}` with the path
    of a tab-separated edgelist of the part and `{output}` with the path the
    command must write `node-label <tab> cluster-token` lines to. Nodes the
    command omits become singletons; labels outside the part are an error.
    """

    trivial_on_connected = False

    def __init__(self, command_template: str | list[str]):
        import shlex  # here, so that treatments without it never load it

        tokens = (
            shlex.split(command_template)
            if isinstance(command_template, str)
            else list(command_template)
        )
        if not tokens:
            raise ContractViolation("external clusterer: empty command")
        joined = " ".join(tokens)
        if "{input}" not in joined or "{output}" not in joined:
            raise ContractViolation(
                "external clusterer: command must mention {input} and {output}"
            )
        self.command = tokens

    def cluster(self, graph: Graph) -> Clustering:
        import subprocess  # here, so that treatments without it never load it
        import tempfile

        with tempfile.TemporaryDirectory(prefix="wellconn-ext-") as tmp:
            in_path = os.path.join(tmp, "part.tsv")
            out_path = os.path.join(tmp, "clusters.tsv")
            write_edgelist(graph, in_path)
            argv = [
                tok.replace("{input}", in_path).replace("{output}", out_path)
                for tok in self.command
            ]
            try:
                # only a tail of the output goes into a message, whatever its bytes
                proc = subprocess.run(
                    argv, capture_output=True, text=True, errors="replace"
                )
            except OSError as exc:
                raise ExternalClustererError(
                    f"cannot run {argv[0]!r}: {exc}"
                ) from exc
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout or "").strip()[-500:]
                raise ExternalClustererError(
                    f"command {argv[0]!r} exited {proc.returncode}: {tail}"
                )
            if not os.path.exists(out_path):
                raise ExternalClustererError(
                    f"command {argv[0]!r} wrote no output file"
                )
            try:
                membership = read_membership(out_path)
            except ClusteringParseError as exc:
                raise ExternalClustererError(f"external output: {exc}") from None
            foreign = admit(graph, membership).labels[graph.n :]
            if foreign:
                raise ExternalClustererError(
                    f"external output names unknown node {foreign[0]!r}: not a partition"
                )
            return clustering_from_membership(membership, graph.labels)


def parse_clusterer(text: str):
    """CLI grammar: 'identity', 'components', or 'external:<command>'."""
    if text == "identity":
        return IdentityClusterer()
    if text == "components":
        return ComponentsClusterer()
    if text.startswith("external:"):
        return ExternalClusterer(text[len("external:") :])
    raise ContractViolation(f"unknown clusterer: {text!r}")


def cc_treatment(g: Graph, c: Clustering, *, processes: int = 1) -> Clustering:
    """Replace each cluster by the connected components of its subgraph."""
    return cc_treatment_with_trace(g, c, processes=processes)[0]


def cc_treatment_with_trace(
    g: Graph, c: Clustering, *, processes: int = 1
) -> tuple[Clustering, TreatmentTrace]:
    return _treat(g, c, ThresholdSpec("connectivity-only", 0.0), None, processes)


def wcc_treatment(
    g: Graph, c: Clustering, t: ThresholdSpec, *, processes: int = 1
) -> tuple[Clustering, TreatmentTrace]:
    """Split clusters along minimum cuts until all satisfy the bound."""
    return _treat(g, c, t, clusterer=None, processes=processes)


def cm_treatment(
    g: Graph,
    c: Clustering,
    t: ThresholdSpec,
    clusterer,
    *,
    processes: int = 1,
) -> tuple[Clustering, TreatmentTrace]:
    """Like WCC, but every part produced by a split is re-clustered first."""
    if clusterer is None:
        raise ContractViolation("cm_treatment requires a clusterer")
    return _treat(g, c, t, clusterer=clusterer, processes=processes)


# ---------------------------------------------------------------------------
# split queue of one cluster


def _process_cluster(
    indptr: np.ndarray,
    adj: np.ndarray,
    nodes: np.ndarray,
    piece: np.ndarray,
    t: ThresholdSpec,
    clusterer,
    labels: list[str],
) -> tuple[np.ndarray, np.ndarray, int, int, int, list[int]]:
    """Run the split queue for one original cluster, given the first split.

    `nodes` are its members, and `piece` the first-split piece of each node.
    Returns (members, sizes, cuts_performed, components_splits, max_depth,
    settled): the emitted pieces concatenated in emission order, and their
    lengths, so that a worker sends back two arrays however many pieces
    there are; and how many pass-or-cut decisions each way settled, indexed
    as `_engine.log_settled` reads them (by degree: the vertices the peel
    strips).
    """
    fast = clusterer is None or clusterer.trivial_on_connected
    emitted: list[np.ndarray] = []
    cuts = comp_splits = maxdepth = 0
    settled = [0, 0, 0, 0]
    parts = [nodes[grp] for grp in split_by_label(piece[nodes])]
    depth = int(len(parts) > 1)  # a first split, which the caller counts
    if depth:
        parts = _recluster(parts, clusterer, indptr, adj, labels)
    # (nodes, depth, connected): components are connected, and so is each
    # side of a min cut (were it split into A1 and A2, the cut around A1 would
    # be smaller); the peel's remainder and re-clustered parts may not be
    stack = [(part, depth, fast or not depth) for part in parts]
    while stack:
        nd, depth, connected = stack.pop()
        if depth > maxdepth:
            maxdepth = depth
        size = len(nd)
        if size == 1 or (connected and 1.0 > t.value(size)):
            # a connected piece passes any bound below one edge
            emitted.append(nd)
            continue
        si, sa = _kernels.induced_csr(indptr, adj, nd)
        if not connected:
            comp = _kernels.connected_labels(si, sa)
            if comp.max() > 0:
                comp_splits += 1
                parts = [nd[grp] for grp in split_by_label(comp)]
                for part in _recluster(parts, clusterer, indptr, adj, labels):
                    stack.append((part, depth + 1, fast))
                continue
        bound = t.value(size)
        if 1.0 > bound:
            # any cut of a connected graph is at least 1, so it passes
            emitted.append(nd)
            continue
        if fast:
            degree_min = int(np.min(np.diff(si)))
            if degree_min <= bound:
                alive, peeled, count = _kernels.low_degree_peel(si, sa, t.value)
                if count > 0:  # guard: an empty batch must not re-enqueue
                    cuts += count
                    settled[BY_DEGREE] += count
                    for i in range(count):
                        emitted.append(nd[peeled[i] : peeled[i] + 1])
                    if depth + count > maxdepth:
                        maxdepth = depth + count
                    stack.append((nd[alive], depth + count, False))
                    continue
        # a piece whose min cut the forests certify above the bound passes;
        # the solver takes the rest, so every cut taken is its first optimum
        above = int(bound) + 1
        certified = _kernels.forest_certificate(
            len(si) - 1, *_kernels.upper_edges(si, sa), above
        )
        if certified == above:
            settled[BY_CERTIFICATE] += 1
            emitted.append(nd)
            continue
        settled[BY_SOLVER if certified is not None else STALLED] += 1
        value, side = _kernels.min_cut_csr(si, sa)
        if value < 0:
            raise TreatmentError("cluster became disconnected unexpectedly")
        if value > bound:
            emitted.append(nd)
            continue
        cuts += 1
        parts = [nd[side], nd[~side]]
        for part in _recluster(parts, clusterer, indptr, adj, labels):
            stack.append((part, depth + 1, fast))
    sizes = np.fromiter(map(len, emitted), np.int64, len(emitted))
    members = emitted[0] if len(emitted) == 1 else np.concatenate(emitted)
    return members, sizes, cuts, comp_splits, maxdepth, settled


def _recluster(
    parts: list[np.ndarray],
    clusterer,
    indptr: np.ndarray,
    adj: np.ndarray,
    labels: list[str],
) -> list[np.ndarray]:
    """Apply the re-clustering step of CM to each part of a split."""
    if clusterer is None or clusterer.trivial_on_connected:
        return parts
    out: list[np.ndarray] = []
    for part in parts:
        if len(part) == 1:
            out.append(part)
            continue
        si, sa = _kernels.induced_csr(indptr, adj, part)
        part_labels = [labels[i] for i in part.tolist()]
        sub = Graph(si, sa, part_labels)
        try:
            produced = clusterer.cluster(sub)
        except TreatmentError:
            raise
        except Exception as exc:  # the failing part gets named for the caller
            raise TreatmentError(
                f"re-clustering failed on a part of {len(part)} nodes: {exc}"
            ) from exc
        if produced.n != sub.n:
            raise TreatmentError(
                "re-clustering returned a non-partition "
                f"({produced.n} nodes for a {sub.n}-node part)"
            )
        out.extend(part[grp] for grp in split_by_label(produced.assignment))
    return out


def _treat(
    g: Graph,
    c: Clustering,
    t: ThresholdSpec,
    clusterer,
    processes: int,
) -> tuple[Clustering, TreatmentTrace]:
    piece, owner, _ = first_split(g, c)
    # a cluster runs its split queue if a piece of it may need a cut, or,
    # under a re-clusterer that is not trivial, if it splits
    piece_sizes = np.bincount(piece)
    may_cut = np.zeros(int(piece_sizes.max(initial=0)) + 1, bool)
    for size in np.flatnonzero(np.bincount(piece_sizes)).tolist():
        may_cut[size] = size > 1 and t.value(size) >= 1.0
    run = np.zeros(c.num_clusters, bool)
    run[owner[may_cut[piece_sizes]]] = True
    disconnected = np.bincount(owner, minlength=len(run)) > 1
    # the one re-clusterer that is not trivial, the external one, starts a
    # process per part: a cost the engine cannot count in CSR entries
    spawns = not (clusterer is None or clusterer.trivial_on_connected)
    if spawns:
        run |= disconnected
    ids = np.flatnonzero(run)
    results = map_clusters(
        g, c, ids, _process_cluster, (piece, t, clusterer, g.labels), processes,
        spawns=spawns,
    )
    cuts_performed = 0
    components_splits = int(np.count_nonzero(disconnected))
    max_recursion_depth = int(disconnected.any())
    assignment = piece
    next_id = len(owner)
    settled = [0, 0, 0, 0]
    for idx, (members, sizes, cuts, comp_splits, maxdepth, how) in zip(
        ids.tolist(), results
    ):
        settled = [a + b for a, b in zip(settled, how)]
        assignment[members] = np.repeat(np.arange(next_id, next_id + len(sizes)), sizes)
        next_id += len(sizes)
        cuts_performed += cuts
        components_splits += comp_splits
        max_recursion_depth = max(max_recursion_depth, maxdepth)
        log.debug("cluster %d: %d nodes -> %d pieces (%d cuts, %d later component "
                  "splits)", idx, len(members), len(sizes), cuts, comp_splits)
    treated = Clustering.from_assignment(assignment)
    trace = TreatmentTrace(
        cuts_performed, components_splits, max_recursion_depth, len(run),
        treated.num_clusters,
    )
    log_settled("treatment pieces", settled)
    log.info("treatment: %d clusters in, %d out, %d cuts, %d component splits",
             trace.clusters_in, trace.clusters_out, trace.cuts_performed,
             trace.components_splits)
    return treated, trace
