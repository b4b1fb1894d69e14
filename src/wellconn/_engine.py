"""One per-cluster engine shared by the treatments and the audit.

`map_clusters` applies a function to every cluster of a clustering, serially
or on a pool of forked worker processes, and returns the results in cluster
order. Forked workers share the parent's CSR arrays copy-on-write and do not
re-import the package; the graph and the function reach them as the pool's
initializer arguments, which `fork` inherits rather than pickles. Only the
member arrays of the clusters and the results cross process boundaries.
"""

from __future__ import annotations

import math
import multiprocessing

import numpy as np

from .clustering import Clustering
from .errors import ContractViolation, TreatmentError
from .graph import Graph

# (indptr, adj, fn, args, mark) of this worker process; set only in workers
_worker: tuple = ()


def _init_worker(indptr: np.ndarray, adj: np.ndarray, fn, args: tuple) -> None:
    global _worker
    _worker = (indptr, adj, fn, args, np.full(len(indptr) - 1, -1, np.int64))


def _apply(idx: int, indptr, adj, members, mark, fn, args: tuple):
    try:
        return fn(indptr, adj, members, mark, *args)
    except TreatmentError as exc:  # the same type, naming the input cluster
        raise type(exc)(f"cluster {idx}: {exc}") from exc


def _run(task: tuple[int, np.ndarray]):
    idx, members = task
    indptr, adj, fn, args, mark = _worker
    return idx, _apply(idx, indptr, adj, members, mark, fn, args)


def map_clusters(g: Graph, c: Clustering, fn, args: tuple, processes: int) -> list:
    """Return [fn(g.indptr, g.adj, members, mark, *args) for members in c.clusters].

    `mark` is an int64 scratch buffer of length g.n filled with -1, one per
    worker, that `fn` must leave filled with -1. At most one worker per
    cluster is started; the largest clusters are dealt out first. A
    `TreatmentError` from `fn` is raised again, of the same type, with the
    index of its cluster in front of the message.
    """
    if c.n != g.n:
        raise ContractViolation(f"clustering covers {c.n} nodes but graph has {g.n}")
    if processes < 1:
        raise ContractViolation(f"processes must be at least 1, got {processes}")
    workers = min(processes, len(c.clusters))
    if workers <= 1:
        mark = np.full(g.n, -1, np.int64)
        return [
            _apply(idx, g.indptr, g.adj, members, mark, fn, args)
            for idx, members in enumerate(c.clusters)
        ]
    order = sorted(enumerate(c.clusters), key=lambda task: -len(task[1]))
    chunksize = min(4, math.ceil(len(order) / (4 * workers)))
    results: list = [None] * len(c.clusters)
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, _init_worker, (g.indptr, g.adj, fn, args)) as pool:
        for idx, result in pool.imap_unordered(_run, order, chunksize):
            results[idx] = result
    return results
