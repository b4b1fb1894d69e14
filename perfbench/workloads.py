"""Seeded workload inputs for the benchmark.

Each workload is made from its seed with wellconn's own generators
(`wellconn.gadgets.generate`), sometimes combined with a few extra edges,
and written as three files: the edgelist, the input clustering that
`treat` repairs, and the planted clustering that `eval` scores against.
The program under test only ever sees these files.

Node indices are shuffled by a seeded permutation before writing, so that
clusters are not contiguous runs of the edgelist, as in real data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wellconn.clustering import Clustering, write_clustering
from wellconn.gadgets import GadgetSpec, generate
from wellconn.graph import Graph, write_edgelist


@dataclass(frozen=True)
class Workload:
    """How one workload is made and run."""

    name: str
    mode: str  # treat mode: "wcc" or "cc"
    treat_workers: int
    audit_workers: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wcc-giants", "wcc", 1, 1,
            "sparse giant clusters at mean degree 12 beside a sparse tail: "
            "min cut of large clusters dominates, and only here the low-degree peel fires",
        ),
        Workload(
            "wcc-merged", "wcc", 2, 2,
            "dense communities joined in a path by one or two edges: many exact "
            "cuts per cluster, re-induced subgraphs and few pool tasks",
        ),
        Workload(
            "cc-many-small", "cc", 1, 2,
            "many small sparse clusters: per-cluster overhead, parsing and "
            "writing dominate, and audit makes many small min cuts",
        ),
    )
}


@dataclass
class Inputs:
    """The files of one workload plus what the checks need to know of them."""

    edgelist: Path
    clustering: Path  # input of treat (and, treated, of audit)
    truth: Path  # planted clustering, for eval
    labels: list[str]  # label of each generated node
    input_assignment: np.ndarray  # input cluster of each node
    truth_assignment: np.ndarray  # planted cluster of each node
    generate_s: float  # time spent inside wellconn.gadgets.generate


# Sizes per scale. "full" is what the benchmark measures; "smoke" is a tiny
# version of every workload for the benchmark's own tests.
SCALES = {
    "full": {
        # giants: criterion 10's mean degree; sizes cut so that one
        # treat + audit + eval round takes about two seconds without numba,
        # and a run repeats it often enough for a steady median
        "wcc-giants": dict(giant=1200, giants=2, tail=100, tails=20, mean_degree=12.0,
                           p_out=4e-7),
        "wcc-merged": dict(clusters=4, parts=4, size=(60, 70), p_in=0.25,
                           cross_edges=200),
        "cc-many-small": dict(nodes=25000, size=(20, 300), degree_at_max=10.0,
                              p_out=4e-5),
    },
    "smoke": {
        "wcc-giants": dict(giant=400, giants=2, tail=40, tails=10, mean_degree=12.0,
                           p_out=4e-5),
        "wcc-merged": dict(clusters=3, parts=3, size=(60, 80), p_in=0.3,
                           cross_edges=20),
        "cc-many-small": dict(nodes=1500, size=(10, 60), degree_at_max=6.0,
                              p_out=1e-4),
    },
}


def _generate(spec: GadgetSpec) -> tuple[Graph, Clustering, float]:
    started = time.perf_counter()
    graph, clustering = generate(spec)
    return graph, clustering, time.perf_counter() - started


def _edges(graph: Graph) -> np.ndarray:
    u, v = graph.edge_arrays()
    return np.stack([u, v], axis=1)


def _giants(rng: np.random.Generator, seed: int, p: dict):
    sizes = (p["giant"],) * p["giants"] + (p["tail"],) * p["tails"]
    # one p_in for the whole graph, as in criterion 10: giants get the mean
    # degree, the tail is left sparse and mostly disconnected
    p_in = p["mean_degree"] / (p["giant"] - 1)
    graph, truth, gen_s = _generate(GadgetSpec(
        kind="planted-partition-lite", sizes=sizes, p_in=p_in, p_out=p["p_out"], seed=seed,
    ))
    return _edges(graph), truth.assignment, truth.assignment, gen_s


def _merged(rng: np.random.Generator, seed: int, p: dict):
    """Communities chained by 1-2 edges; each input cluster is one chain."""
    chains = [p["parts"]] * p["clusters"]
    lo, hi = p["size"]
    sizes = tuple(int(s) for s in rng.integers(lo, hi + 1, size=sum(chains)))
    graph, truth, gen_s = _generate(GadgetSpec(
        kind="planted-partition-lite", sizes=sizes, p_in=p["p_in"], p_out=0.0, seed=seed,
    ))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    cluster_of_part = np.repeat(np.arange(len(chains)), chains)
    extra = []
    part = 0
    for length in chains:
        for j in range(part, part + length - 1):
            # join community j to j+1 with one or two edges
            for _ in range(int(rng.integers(1, 3))):
                a = starts[j] + int(rng.integers(0, sizes[j]))
                b = starts[j + 1] + int(rng.integers(0, sizes[j + 1]))
                extra.append((a, b))
        part += length
    input_assignment = cluster_of_part[truth.assignment]
    # noise between input clusters: it never lies inside a cluster
    n = graph.n
    while len(extra) < sum(chains) + p["cross_edges"]:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if input_assignment[a] != input_assignment[b]:
            extra.append((a, b))
    edges = np.concatenate([_edges(graph), np.asarray(extra, np.int64)])
    return edges, input_assignment, truth.assignment, gen_s


def _many_small(rng: np.random.Generator, seed: int, p: dict):
    lo, hi = p["size"]
    sizes: list[int] = []
    while sum(sizes) < p["nodes"]:
        # log-uniform sizes: many small clusters, a few of a few hundred
        sizes.append(int(round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))
    p_in = p["degree_at_max"] / (hi - 1)
    graph, truth, gen_s = _generate(GadgetSpec(
        kind="planted-partition-lite", sizes=tuple(sizes), p_in=p_in, p_out=p["p_out"],
        seed=seed,
    ))
    return _edges(graph), truth.assignment, truth.assignment, gen_s


_MAKERS = {"wcc-giants": _giants, "wcc-merged": _merged, "cc-many-small": _many_small}


def make_inputs(name: str, seed: int, directory: Path, scale: str = "full") -> Inputs:
    """Generate workload `name` from `seed` and write its files to `directory`."""
    rng = np.random.Generator(np.random.PCG64([seed, 0xBE]))
    edges, input_assignment, truth_assignment, gen_s = _MAKERS[name](
        rng, seed, SCALES[scale][name]
    )
    n = len(input_assignment)
    perm = rng.permutation(n)  # node i of the generator becomes node perm[i]
    edges = perm[edges]
    inverse = np.empty(n, np.int64)
    inverse[perm] = np.arange(n)
    input_assignment = input_assignment[inverse]
    truth_assignment = truth_assignment[inverse]
    labels = [f"n{i}" for i in range(n)]
    graph = Graph.from_edges(n, edges, labels)
    directory.mkdir(parents=True, exist_ok=True)
    files = Inputs(
        edgelist=directory / "edges.tsv",
        clustering=directory / "input.tsv",
        truth=directory / "truth.tsv",
        labels=labels,
        input_assignment=input_assignment,
        truth_assignment=truth_assignment,
        generate_s=gen_s,
    )
    write_edgelist(graph, files.edgelist)
    write_clustering(Clustering.from_assignment(input_assignment), graph, files.clustering)
    write_clustering(Clustering.from_assignment(truth_assignment), graph, files.truth)
    return files
