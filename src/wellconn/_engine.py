"""One per-cluster engine shared by the treatments and the audit.

`map_clusters` applies a function to every cluster of a clustering, serially
or on a `concurrent.futures.ProcessPoolExecutor` of forked workers (imported
only then), and returns the results in cluster order. Forked workers share
the parent's CSR arrays copy-on-write and do not re-import the package; the
graph and the function reach them as the executor's initializer arguments,
which `fork` inherits rather than pickles. Only the member arrays of the
clusters and the results cross process boundaries.
"""

from __future__ import annotations

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


def _run(tasks: list[tuple[int, np.ndarray]]) -> list[tuple]:
    indptr, adj, fn, args, mark = _worker
    return [(i, _apply(i, indptr, adj, members, mark, fn, args)) for i, members in tasks]


def map_clusters(g: Graph, c: Clustering, fn, args: tuple, processes: int) -> list:
    """Return [fn(g.indptr, g.adj, members, mark, *args) for members in c.clusters].

    `mark` is an int64 scratch buffer of length g.n filled with -1, one per
    worker, that `fn` must leave filled with -1. At most one worker per
    cluster is started. The clusters, largest first, are dealt round-robin
    into 16 chunks per worker, so that no chunk gets all the largest. A
    `TreatmentError` from `fn` is raised again, of the same type, with the
    index of its cluster in front of the message. A worker process that dies
    ends the call with a `TreatmentError`.
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
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    order = sorted(enumerate(c.clusters), key=lambda task: -len(task[1]))
    chunks = min(len(order), 16 * workers)
    results: list = [None] * len(c.clusters)
    fork = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(
            workers, fork, _init_worker, (g.indptr, g.adj, fn, args)
        ) as pool:
            for done in pool.map(_run, [order[j::chunks] for j in range(chunks)]):
                for idx, result in done:
                    results[idx] = result
    except BrokenProcessPool as exc:
        raise TreatmentError(f"a worker process died: {exc}") from None
    return results
