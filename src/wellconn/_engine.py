"""One first split and one per-cluster engine, shared by the treatments and the audit.

`first_split` finds the components of every cluster in one pass over the
graph. Only the clusters that need more (a cut, a peel, a re-clustering or a
min cut) go to `map_clusters`, which returns their results in cluster order.

The worker count follows the size of the work: one worker per `_SHARE` CSR
entries of the mapped clusters, at most one per cluster and at most the
`processes` asked for. So small work runs in this process whatever
`processes` says, as it does with one worker or one cluster: below the
cutoff a fork, its copy-on-write faults and the join cost more than a second
worker saves. The exemption is a cluster's work that starts processes of its
own (cm with an external re-clusterer), whose cost the entries do not show:
it gets one worker per cluster up to `processes`, as asked. Otherwise it is
a plain fork-join:

- Deal. The clusters, largest first, are dealt into one fixed share per
  worker, each to the share with the fewest nodes so far (the lowest share
  on a tie). A worker runs its share in cluster order.
- Fork. Each worker is started with `os.fork()` and inherits its share, the
  graph and the function; nothing is pickled on the way in. The parent runs
  no cluster itself, so a command run by a cluster's work that kills its
  parent process kills a worker, not the caller.
- Join. Each worker writes its whole result, or its first failure, as one
  pickle to its own pipe and leaves through `os._exit`. The parent reads
  every pipe to its end, reaps every worker and puts the results in cluster
  order. Of several failures, the one of the lowest cluster index is raised,
  so the error does not depend on timing; a worker that died is named by the
  clusters of its share.

Workers are forked, not spawned: they share the parent's CSR arrays
copy-on-write and skip the re-import of numpy and the package (about 0.2 s,
more than the per-cluster work of most inputs). A command's process has one
thread when it forks, so no thread's lock can be copied in a held state:
wellconn starts no threads, and `cli` loads numpy without OpenBLAS's thread
pool. A library caller that loaded numpy itself may hold that pool's idle
threads; no cluster's work calls BLAS.
"""

from __future__ import annotations

import heapq
import os
import pickle
import signal
import sys

import numpy as np

from . import _kernels
from .clustering import Clustering
from .errors import ContractViolation, TreatmentError
from .graph import Graph, split_by_label


class _Log:
    """The "wellconn" logger's methods, looked up once `logging` is loaded.

    Until then no handler can take a record, so a call does nothing: a run
    that asks for no log never loads `logging`.
    """

    def __getattr__(self, name: str):
        logging = sys.modules.get("logging")
        if logging is None:
            return _ignore
        return getattr(logging.getLogger("wellconn"), name)


def _ignore(*args, **kwargs) -> None:
    pass


log = _Log()

# CSR entries of mapped work per worker. A second worker paid for itself,
# whole process, from about 200k entries on dense clusters with many cuts,
# and only from about 1.25M on sparse giants; it did not, up to 3.4M, on an
# audit of many small clusters (CHANGES.md has the table). So two workers
# start from 2M entries: every perfbench workload (at most 49k) stays in one
# process, and criterion 10 (9.9M) forks.
_SHARE = 1 << 20

# how a piece's or a cluster's min-cut question was settled: by its degrees,
# by the forest certificate, by the solver, or by the solver after a
# certificate pass stalled
BY_DEGREE, BY_CERTIFICATE, BY_SOLVER, STALLED = range(4)


def log_settled(what: str, settled: list[int]) -> None:
    """One log line of how many `what` each way settled, indexed as above."""
    log.info(
        "%s: %d settled by degree, %d by certificate, %d by the solver; %d "
        "certificate passes stalled", what, settled[BY_DEGREE],
        settled[BY_CERTIFICATE], settled[BY_SOLVER] + settled[STALLED],
        settled[STALLED],
    )


def first_split(
    g: Graph, c: Clustering, *, degrees: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The connected components of every cluster of `c`, in one pass over `g`.

    Returns the piece of each node, pieces numbered 0..p-1 by their smallest
    node, the input cluster of each piece, and, if `degrees`, each node's
    degree inside its cluster (else None). The degrees let a caller read some
    min cuts without the solver: a connected cluster with a node of degree 1
    has min cut 1, and one whose minimum degree d is at least half its size,
    rounded down, has min cut d (Chartrand, SIAM J. Appl. Math. 14:778, 1966).
    """
    if c.n != g.n:
        raise ContractViolation(f"clustering covers {c.n} nodes but graph has {g.n}")
    # in the adjacency's int32, each node's cluster too: half the memory of int64
    u, v = _kernels.upper_edges(g.indptr, g.adj, g.adj.dtype)
    cluster = c.assignment.astype(u.dtype)
    inside = cluster[u] == cluster[v]
    u, v = u[inside], v[inside]  # the other edges are freed before the kernel runs
    piece = _kernels.component_labels(g.n, u, v)
    degree = None
    if degrees:  # taken after the kernel, whose first round sets the peak
        degree = np.bincount(u, minlength=g.n)
        degree += np.bincount(v, minlength=g.n)
    owner = np.zeros(int(piece.max(initial=-1)) + 1, np.int64)
    owner[piece] = c.assignment
    return piece, owner, degree


def _apply(idx: int, indptr, adj, members, fn, args: tuple):
    try:
        return fn(indptr, adj, members, *args)
    except TreatmentError as exc:  # the same type, naming the input cluster
        raise type(exc)(f"cluster {idx}: {exc}") from exc


def _deal(work: dict[int, np.ndarray], workers: int) -> list[list[int]]:
    """Cluster indices of each worker's share, each share in cluster order."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [(0, j) for j in range(workers)]  # (nodes so far, share) as a heap
    for idx in sorted(work, key=lambda i: -len(work[i])):
        nodes, j = loads[0]
        shares[j].append(idx)
        heapq.heapreplace(loads, (nodes + len(work[idx]), j))
    return [sorted(share) for share in shares]


def _work(
    fd: int, inherited: list[int], share: list[int], g: Graph, work, fn, args
) -> None:
    """Body of a worker: run `share`, send one pickle down `fd`, never return."""
    code = 1
    try:
        # a read end left open here would keep a worker whose parent is gone
        # blocked on a full pipe
        for other in inherited:
            os.close(other)
        idx = share[0]
        try:
            out: list | tuple = []
            for idx in share:
                out.append((idx, _apply(idx, g.indptr, g.adj, work[idx], fn, args)))
        except BaseException as exc:  # sent to the parent, which raises it
            out = (idx, exc)
        try:
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
            if isinstance(out, tuple):
                pickle.loads(data)  # an exception can pickle and still not load
        except Exception as exc:
            bad = out[1] if isinstance(out, tuple) else exc
            bad = TreatmentError(f"{type(bad).__name__}: {bad}")
            data = pickle.dumps((idx, bad), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _died(status: int, share: list[int]) -> TreatmentError:
    if status == 0:
        how = "its result was cut short"
    else:
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            try:
                how = f"killed by {signal.Signals(-code).name}"
            except ValueError:
                how = f"killed by signal {-code}"
        else:
            how = f"exit status {code}"
    clusters = ", ".join(map(str, share))
    return TreatmentError(
        f"a worker process died ({how}) while running clusters {clusters}"
    )


def map_clusters(
    g: Graph,
    c: Clustering,
    ids: np.ndarray,
    fn,
    args: tuple,
    processes: int,
    *,
    spawns: bool = False,
) -> list:
    """Return [fn(g.indptr, g.adj, members, *args) for each cluster of `ids`].

    `ids` are ascending cluster indices of `c`, and `members` are each
    cluster's nodes, ascending. It starts at most one worker per cluster
    and, unless `spawns` says that `fn` starts processes of its own, at most
    one per `_SHARE` CSR entries of the clusters; one worker runs them in
    this process. A `TreatmentError` from `fn` is raised again, of the same
    type, with the index of its cluster in front of the message; of several
    failures, the one of the lowest cluster index. A worker process that
    dies ends the call with a `TreatmentError` that names its clusters.
    """
    if processes < 1:
        raise ContractViolation(f"processes must be at least 1, got {processes}")
    chosen = np.zeros(c.num_clusters, bool)
    chosen[ids] = True
    nodes = np.flatnonzero(chosen[c.assignment])
    groups = split_by_label(c.assignment[nodes])
    work = {idx: nodes[grp] for idx, grp in zip(ids.tolist(), groups)}
    entries = int(np.diff(g.indptr)[nodes].sum())
    workers = min(processes, len(work))
    if not spawns:
        workers = min(workers, entries // _SHARE)
    workers = max(workers, 1)
    log.info("mapped %d clusters, %d CSR entries, on %d of %d workers",
             len(work), entries, workers, processes)
    if workers == 1:
        return [
            _apply(idx, g.indptr, g.adj, members, fn, args)
            for idx, members in work.items()
        ]
    shares = _deal(work, workers)
    pids: list[int] = []  # started and not yet reaped
    pipes = []  # read end of each worker's pipe, in share order
    try:
        for share in shares:
            rfd, wfd = os.pipe()
            inherited = [rfd, *(pipe.fileno() for pipe in pipes)]
            pid = os.fork()
            if pid == 0:
                _work(wfd, inherited, share, g, work, fn, args)
            pids.append(pid)
            os.close(wfd)
            pipes.append(open(rfd, "rb"))
        results: dict = {}
        failures = []
        for pid, pipe, share in zip(list(pids), pipes, shares):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            try:
                out = pickle.loads(data) if status == 0 else None
            except (EOFError, pickle.UnpicklingError):  # empty or short
                out = None
            if out is None:
                failures.append((share[0], _died(status, share)))
            elif isinstance(out, tuple):
                failures.append(out)
            else:
                for idx, result in out:
                    results[idx] = result
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return [results[idx] for idx in work]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:
                pass
