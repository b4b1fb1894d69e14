"""Run one wellconn command in-process, with a span around each layer call.

    python perfbench/traced.py TRACE_FILE -- <wellconn arguments>

Run from the repository root. The script imports `wellconn` from `src/`,
replaces the public functions the program looks up at call time with
wrappers that record spans (name, start, end, parent span, and a few counts),
calls `wellconn.cli.main` with the given arguments, and at exit writes all
spans to TRACE_FILE as one JSON document. The program itself is unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()


def _min_cut_counts(args, result):
    indptr, adj = args[0], args[1]
    return {"n": len(indptr) - 1, "m": len(adj) // 2}


def _peel_counts(args, result):
    return {"peeled": int(result[2])}


def _induced_counts(args, result):
    return {"m": len(result[1]) // 2}


class Tracer:
    """Spans kept in memory: [id, parent id or -1, name, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, counts=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, counts=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, counts))


def install(tracer: Tracer) -> None:
    """Wrap each layer where the program looks it up at call time."""
    from wellconn import _kernels, cli, clustering, treatments
    from wellconn.clustering import Clustering

    tracer.patch(_kernels, "min_cut_csr", "kernels.min_cut_csr", _min_cut_counts)
    tracer.patch(_kernels, "low_degree_peel", "kernels.low_degree_peel", _peel_counts)
    tracer.patch(_kernels, "induced_csr", "kernels.induced_csr", _induced_counts)
    tracer.patch(_kernels, "connected_labels", "kernels.connected_labels")
    tracer.patch(treatments, "split_by_label", "graph.split_by_label")
    tracer.patch(clustering, "read_membership", "clustering.read_membership")
    from_assignment = Clustering.__dict__["from_assignment"].__func__
    Clustering.from_assignment = classmethod(
        tracer.wrap(from_assignment, "clustering.from_assignment")
    )
    for attr, name in (
        ("wcc_treatment", "treatments"),
        ("cc_treatment_with_trace", "treatments"),
        ("connectivity_audit", "audit"),
        ("load_edgelist", "graph.load_edgelist"),
        ("load_clustering", "clustering.load_clustering"),
        ("write_clustering", "clustering.write_clustering"),
        ("read_membership", "clustering.read_membership"),
        ("nmi", "metrics.nmi"),
        ("ari", "metrics.ari"),
        ("agri", "metrics.agri"),
        ("rmi", "metrics.rmi"),
        ("_sha256", "cli.sha256"),
        ("_write_document", "cli.write_document"),
    ):
        tracer.patch(cli, attr, name)


def main() -> int:
    trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced.py TRACE_FILE -- <wellconn arguments>")
    import_started = time.perf_counter()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import wellconn.cli

    import_s = time.perf_counter() - import_started
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(wellconn.cli.main, "cli.main")(argv)
    wall_s = time.perf_counter() - STARTED
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "wall_s": wall_s, "exit_code": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
