"""Command-line front end: treat, audit, eval, dl, stats, generate.

Every run writes one self-describing JSON document: a `manifest` block
(inputs, digests, options, version, wall-clock duration) plus a `payload`
block holding the actual results. Payloads are byte-reproducible: stable
key order, LF endings, no timestamps, independent of the worker count.

`main` runs one command in this process and returns its exit code; `run`,
the console entry point, runs `main` and leaves without the interpreter's
teardown.

A command loads only the modules it runs: audit imports `audit` and eval
imports `metrics` when they first call into them, and dl and generate
import theirs in their own function. `treatments` is imported with this
module (see the subcommands below).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from importlib import import_module
from itertools import chain
from pathlib import Path
from typing import NoReturn

# numpy's OpenBLAS starts a thread pool at import, sized by this variable,
# which it reads only then; wellconn makes no BLAS call. A value the caller
# set is kept, and the process's environment is the caller's again once
# numpy is loaded, so that the commands a run starts inherit it unchanged.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy  # noqa: F401
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .clustering import (
    ThresholdSpec,
    admit,
    cluster_stats,
    clustering_from_membership,
    join_memberships,
    load_clustering,
    read_membership,
    write_clustering,
)
from .errors import ContractViolation, ExternalClustererError, WellconnError
from .graph import (
    Graph,
    induced_subgraph,
    load_edgelist,
    sha256,
    write_edgelist,
    write_lines,
)
from .treatments import (
    cc_treatment_with_trace,
    cm_treatment,
    parse_clusterer,
    wcc_treatment,
)

log = logging.getLogger("wellconn")


def _later(module: str, name: str):
    """A stand-in for `name` of `module` that imports the module when called."""

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# audit and eval's functions, each a module attribute the command looks up
# when it calls it, so that a wrapper put in its place sees the import
connectivity_audit = _later("audit", "connectivity_audit")
nmi = _later("metrics", "nmi")
ari = _later("metrics", "ari")
agri = _later("metrics", "agri")
rmi = _later("metrics", "rmi")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1.

    Flags must be spelled out: with prefix matching, treat's `--output`
    would silently stand for `--output-file`, which audit and eval spell
    `--output` for their report.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sha256(path: str | Path) -> str:
    with open(path, "rb") as fh:
        h = sha256(os.fstat(fh.fileno()).st_size)
        # 64 KiB reads into one buffer: 1 MiB ones, taken before the command
        # runs, raised its peak RSS by about 1 MB
        buf = memoryview(bytearray(1 << 16))
        while size := fh.readinto(buf):
            h.update(buf[:size])
    return h.hexdigest()


# json's C encoder writes a container without indentation, its members split
# by ",\n". A raw newline never occurs inside a JSON string, so putting the
# indentation after each newline gives the bytes of
# `json.JSONEncoder(indent=2, sort_keys=True)`, whose pure-Python indented
# encoder is several times slower.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n", ": "))
_RECORDS_PER_BLOCK = 2048


def _flat(value) -> bool:
    """A container whose members hold no member of their own."""
    members = value.values() if isinstance(value, dict) else value
    return not any(isinstance(m, (dict, list, tuple)) and m for m in members)


def _records(value) -> bool:
    """A list of non-empty dicts, none of whose values is a container."""
    if set(map(type, value)) != {dict} or not all(value):
        return False
    kinds = set(map(type, chain.from_iterable(map(dict.values, value))))
    return not any(issubclass(kind, (dict, list, tuple)) for kind in kinds)


def _indented(value, level: int):
    """The text of `value` as an indented member at `level`, in chunks.

    One C call encodes a flat container, and one per block a list of flat
    records, whose boundaries, the only "},\n{" in the text, open and close
    their own lines. Only containers of containers are walked here; their
    keys are str, as in every document wellconn writes.
    """
    if not isinstance(value, (dict, list, tuple)):
        yield _ENCODER.encode(value)
        return
    close = "\n" + "  " * level
    pad = close + "  "
    if _flat(value):
        text = _ENCODER.encode(value)
        yield text if len(text) == 2 else text[0] + pad + text[1:-1].replace(
            "\n", pad) + close + text[-1]
    elif isinstance(value, dict):
        for i, key in enumerate(sorted(value)):
            yield f"{',' if i else '{'}{pad}{_ENCODER.encode(key)}: "
            yield from _indented(value[key], level + 1)
        yield close + "}"
    elif _records(value):
        inner = pad + "  "
        for i in range(0, len(value), _RECORDS_PER_BLOCK):
            text = _ENCODER.encode(value[i : i + _RECORDS_PER_BLOCK])
            text = text[2:-2].replace("\n", inner).replace(
                "}," + inner + "{", pad + "}," + pad + "{" + inner)
            yield f"{',' if i else '['}{pad}{{{inner}{text}{pad}}}"
        yield close + "]"
    else:
        for i, item in enumerate(value):
            yield f"{',' if i else '['}{pad}"
            yield from _indented(item, level + 1)
        yield close + "]"


def _write_document(target: str | None, manifest: dict, payload: dict) -> None:
    doc = {"manifest": manifest, "payload": payload}
    # written as it is encoded: the whole text of a large audit would set the
    # command's peak memory
    text = chain(_indented(doc, 0), ["\n"])
    if target in (None, "-"):
        # flushed here, so that a stream that cannot take the document fails
        # inside main's error handling
        write_lines(sys.stdout, text)
        sys.stdout.flush()
    else:
        write_lines(target, text)


# the options that name input files; main digests each one given before the
# command runs, so an output written over an input cannot change its digest.
# Only regular files: a pipe can be read once, and the command must read it.
_INPUT_OPTIONS = (
    "edgelist", "existing_clustering", "clustering", "ground_truth", "estimated",
    "components_before", "components_after",
)

# integer options and their least values, checked before any input is read
_AT_LEAST = {"num_processors": 1, "mincut_cap": 0}


def _check_files(inputs, outputs) -> None:
    """Raise now what opening an input, or an output to write, would raise
    after the work, creating and changing nothing. Pipes, devices and the
    output "-" (stdout) are left to the command."""
    for path in filter(None, inputs + outputs):
        if path == "-" or os.path.lexists(path) and not (
            os.path.isfile(path) or os.path.isdir(path)
        ):
            continue
        if path in inputs:
            open(path, "rb").close()
            continue
        try:  # made and removed again if new, else opened without truncation
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(path)
        except FileExistsError:
            os.close(os.open(path, os.O_WRONLY))


def _manifest(subcommand: str, inputs: dict, options: dict, started: float) -> dict:
    return {
        "tool": "wellconn",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "options": options,
        "duration_seconds": round(time.monotonic() - started, 3),
    }


def _setup_logging(log_file: str | None, log_level: int) -> None:
    logger = logging.getLogger("wellconn")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
        handler.close()
    if log_level <= 0:
        logger.addHandler(logging.NullHandler())
        logger.setLevel(logging.CRITICAL)
        return
    level = logging.INFO if log_level == 1 else logging.DEBUG
    handler = (
        logging.FileHandler(log_file, encoding="utf-8")
        if log_file
        else logging.StreamHandler(sys.stderr)
    )
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)


# ---------------------------------------------------------------------------
# subcommands: each returns (target, options, payload), and `main` alone
# times it, sets up logging, digests its inputs and writes the document once
# it succeeds. Each command imports the modules only it runs: treat none,
# audit `audit`, eval `metrics`, dl `dl` and generate `gadgets`, so that no
# other command compiles them. `treatments`, which only treat runs, is the
# exception: perfbench's tracer (perfbench/traced.py) imports it to wrap its
# functions, and imported here its compile falls within the time that tracer
# reads as this module's import, not between that import and the command.


def _cmd_treat(args):
    threshold = ThresholdSpec.parse(args.threshold)
    sidecar = args.output_file + ".run.json"
    _check_files([args.edgelist, args.existing_clustering], [args.output_file, sidecar])
    graph, ingest = load_edgelist(args.edgelist)
    loaded = load_clustering(args.existing_clustering, graph)
    graph = loaded.graph
    clustering = loaded.clustering
    log.info(
        "loaded %d nodes, %d edges, %d clusters", graph.n, graph.m, clustering.num_clusters
    )
    if args.mode == "cc":
        treated, trace = cc_treatment_with_trace(
            graph, clustering, processes=args.num_processors
        )
    elif args.mode == "wcc":
        treated, trace = wcc_treatment(
            graph, clustering, threshold, processes=args.num_processors
        )
    else:
        clusterer = parse_clusterer(args.clusterer)
        treated, trace = cm_treatment(
            graph, clustering, threshold, clusterer, processes=args.num_processors
        )
    write_clustering(treated, graph, args.output_file)
    payload = {
        "mode": args.mode,
        "threshold": str(threshold),
        "ingest": ingest._asdict(),
        "clustering_file": {
            "unknown_labels": loaded.unknown_labels,
            "missing_nodes": loaded.missing_nodes,
        },
        "graph": {"nodes": graph.n, "edges": graph.m},
        "trace": trace._asdict(),
        "clusters_out": treated.num_clusters,
        "output_sha256": _sha256(args.output_file),
    }
    options = {
        "mode": args.mode,
        "threshold": str(threshold),
        "num_processors": args.num_processors,
        "clusterer": args.clusterer if args.mode == "cm" else None,
        "output_file": str(args.output_file),
    }
    return sidecar, options, payload


def _cmd_audit(args):
    threshold = ThresholdSpec.parse(args.threshold)
    _check_files([args.edgelist, args.clustering], [args.per_cluster_table, args.output])
    graph, _ingest = load_edgelist(args.edgelist)
    loaded = load_clustering(args.clustering, graph)
    report = connectivity_audit(
        loaded.graph, loaded.clustering, threshold,
        processes=args.num_processors, mincut_size_cap=args.mincut_cap,
    )
    if args.per_cluster_table:
        header = (
            "cluster_id\tsize\tconnected\tmin_cut\tcategory"
            "\tthreshold_bound\tat_boundary\n"
        )
        rows = (
            f"{cid}\t{size}\t{connected}\t{'' if cut is None else cut}"
            f"\t{category}\t{bound!r}\t{at_boundary}\n"
            for cid, size, connected, cut, category, bound, at_boundary
            in report.clusters.rows()
        )
        write_lines(args.per_cluster_table, chain([header], rows))
    options = {
        "threshold": str(threshold),
        "num_processors": args.num_processors,
        "mincut_cap": args.mincut_cap,
    }
    return args.output, options, report.to_dict()


def _universe_for_eval(args):
    """The shared node universe of the two membership files, and their clusterings.

    It holds the graph's nodes (none without --edgelist), then the labels the
    files add. --restrict-common keeps the nodes of the graph, or without one
    the labels of both files, that both files name. Without it, the files are
    joined to the graph by `join_memberships`, as packed keys where they pack.
    """
    # the edgelist is parsed before either membership file is read, so that
    # its parse, the command's peak, holds neither of them
    if args.edgelist:
        graph, _ = load_edgelist(args.edgelist)
    else:
        graph = Graph.from_edges(0, [])
    if not args.restrict_common:
        graph, (truth, est), sizes = join_memberships(
            graph, args.ground_truth, args.estimated
        )
        # without a graph the universe is the union of the two label sets,
        # which are equal when each file names all of it
        if not args.edgelist and sizes != [graph.n, graph.n]:
            raise ContractViolation(
                "clustering files cover different node sets "
                f"({sizes[0]} vs {sizes[1]} labels); "
                "pass --restrict-common to use the intersection"
            )
        restrict, dropped = False, (0, 0)
    else:
        truth_map = read_membership(args.ground_truth)
        est_map = read_membership(args.estimated)
        sizes = [len(truth_map), len(est_map)]
        # without a graph, files that name the same labels are not restricted
        restrict = bool(args.edgelist) or truth_map.keys() != est_map.keys()
        if restrict:
            # deterministic universe order: the graph's, or the truth file's
            common = truth_map.keys() & est_map.keys()
            if args.edgelist:
                nodes = [v for v, lab in enumerate(graph.labels) if lab in common]
                graph, _ = induced_subgraph(graph, nodes)
                keep = graph.labels
            else:
                keep = [lab for lab in truth_map if lab in common]
            truth_map = {lab: truth_map[lab] for lab in keep}
            est_map = {lab: est_map[lab] for lab in keep}
        graph = admit(graph, truth_map, est_map)
        labels = graph.labels
        truth = clustering_from_membership(truth_map, labels)
        est = clustering_from_membership(est_map, labels)
        dropped = sizes[0] - len(truth_map), sizes[1] - len(est_map)
    if graph.n == 0:
        raise ContractViolation("evaluation universe is empty")
    restricted = {
        "restricted": restrict,
        "dropped_truth": dropped[0],
        "dropped_estimated": dropped[1],
    }
    return truth, est, graph, restricted


# eval's scores by name; each looks its metric up in this module when called
_METRICS = {
    "nmi": lambda truth, est, graph: nmi(truth, est),
    "ari": lambda truth, est, graph: ari(truth, est),
    "agri": lambda truth, est, graph: agri(graph, truth, est),
    "rmi": lambda truth, est, graph: rmi(truth, est, normalized=True),
    "rmi_unnormalized": lambda truth, est, graph: rmi(truth, est, normalized=False),
}


def _cmd_eval(args):
    from .metrics import (
        LOG_BASE,
        NMI_NORMALIZATION,
        clamped_table_counts,
        table_count_method,
    )

    if args.metrics is None:
        # agri needs the graph, so it only defaults in when one is given
        args.metrics = "nmi,ari,agri,rmi" if args.edgelist else "nmi,ari,rmi"
    wanted = [tok.strip() for tok in args.metrics.split(",") if tok.strip()]
    if not wanted:
        raise ContractViolation(f"no metric given (choose from {sorted(_METRICS)})")
    for tok in wanted:
        if tok not in _METRICS:
            raise ContractViolation(f"unknown metric {tok!r} (choose from {sorted(_METRICS)})")
    if "agri" in wanted and not args.edgelist:
        raise ContractViolation("agri requires --edgelist")
    _check_files([args.edgelist, args.ground_truth, args.estimated], [args.output])
    truth, est, graph, restricted = _universe_for_eval(args)
    clamped = []
    if "rmi" in wanted or "rmi_unnormalized" in wanted:
        clamped = clamped_table_counts(truth, est, normalized="rmi" in wanted)
    payload = {
        "scores": {tok: _METRICS[tok](truth, est, graph) for tok in wanted},
        "metadata": {
            "log_base": LOG_BASE,
            "nmi_normalization": NMI_NORMALIZATION,
            "rmi_normalized": "rmi" in wanted,
            "rmi_table_count_clamped": clamped,
            "rmi_table_count_method": table_count_method(truth.n),
            "universe_nodes": truth.n,
            **restricted,
        },
    }
    options = {"metrics": wanted, "restrict_common": args.restrict_common}
    return args.output, options, payload


def _cmd_dl(args):
    from .dl import dl_diff, load_components, pe_for_clustering

    payload: dict = {}
    if (args.components_before is None) != (args.components_after is None):
        raise ContractViolation(
            "--components-before and --components-after must be given together"
        )
    if args.edgelist and args.clustering:
        graph, _ = load_edgelist(args.edgelist)
        loaded = load_clustering(args.clustering, graph)
        value = pe_for_clustering(loaded.graph, loaded.clustering)
        payload["edge_count_prior"] = {
            "value": value,
            "unit": "nats",
            "num_blocks": loaded.clustering.num_clusters,
            "num_edges": loaded.graph.m,
        }
    if args.components_before and args.components_after:
        before = load_components(args.components_before)
        after = load_components(args.components_after)
        diff = dl_diff(before, after)
        payload["totals"] = {
            "untreated": before.total(),
            "treated": after.total(),
            "unit": before.unit,
        }
        payload["diff"] = diff.to_dict()
    if not payload:
        raise ContractViolation(
            "dl needs --edgelist/--clustering or the two component files"
        )
    return args.output, {}, payload


def _cmd_stats(args):
    if args.edgelist:
        graph, _ = load_edgelist(args.edgelist)
    else:
        graph = Graph.from_edges(0, [])
    loaded = load_clustering(args.clustering, graph)
    clustering = loaded.clustering
    extra = {
        "graph_nodes": loaded.graph.n,
        "graph_edges": loaded.graph.m,
        "missing_nodes": loaded.missing_nodes,
        "unknown_labels": loaded.unknown_labels,
    } if args.edgelist else {}
    payload = {
        "nodes": clustering.n,
        "clusters": clustering.num_clusters,
        "singletons": clustering.singletons(),
        **cluster_stats(clustering)._asdict(),
        **extra,
    }
    return args.output, {}, payload


def _cmd_generate(args):
    from .gadgets import GadgetSpec, generate, parse_sizes

    if args.kind in ("clique-ring", "bridged-cliques"):
        spec = GadgetSpec(
            kind=args.kind,
            num_cliques=args.num_cliques,
            clique_size=args.clique_size,
            bridges=args.bridges,
        )
    elif args.kind == "planted-partition-lite":
        spec = GadgetSpec(
            kind=args.kind,
            sizes=parse_sizes(args.sizes),
            p_in=args.p_in,
            p_out=args.p_out,
            seed=args.seed,
        )
    else:
        spec = GadgetSpec(kind=args.kind, n=args.n, p=args.p, seed=args.seed)
    graph, clustering = generate(spec)
    write_edgelist(graph, args.edgelist_out)
    write_clustering(clustering, graph, args.clustering_out)
    payload = {
        "kind": args.kind,
        "seed": args.seed,
        "nodes": graph.n,
        "edges": graph.m,
        "clusters": clustering.num_clusters,
        "edgelist_sha256": _sha256(args.edgelist_out),
        "clustering_sha256": _sha256(args.clustering_out),
    }
    options = {k: v for k, v in vars(args).items() if k != "func"}
    return args.output, options, payload


# ---------------------------------------------------------------------------
# parser


def _add_logging(sub) -> None:
    sub.add_argument("--log-file", default=None)
    sub.add_argument("--log-level", type=int, default=0, choices=(0, 1, 2))


def _add_common(sub) -> None:
    _add_logging(sub)
    sub.add_argument("--output", default=None, help="report path (default stdout)")


_PROCESSORS_HELP = (
    "most worker processes for the per-cluster work (default 1); work too "
    "small to pay for a fork runs in one process whatever this says"
)


# the subcommands, in the order the top-level help lists them
_SUBCOMMANDS = ("treat", "audit", "eval", "dl", "stats", "generate")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand and its arguments."""
    return _parser(_SUBCOMMANDS)


def _parser(filled) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the arguments of those in `filled`.

    The top-level help lists every subcommand either way; a subcommand's own
    arguments are most of the build's time.
    """
    parser = _Parser(prog="wellconn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wellconn {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    treat = subs.add_parser("treat", help="repair a clustering (cc, wcc, or cm)")
    if "treat" in filled:
        treat.add_argument("--edgelist", required=True)
        treat.add_argument("--existing-clustering", required=True)
        treat.add_argument("--mode", required=True, choices=("cc", "wcc", "cm"))
        treat.add_argument("--threshold", default="1log10")
        treat.add_argument("--output-file", required=True)
        treat.add_argument(
            "--num-processors", type=int, default=1,
            help=_PROCESSORS_HELP + ", except under cm with an external re-clusterer, "
            "which gets one worker per cluster up to this number",
        )
        treat.add_argument(
            "--clusterer",
            default="identity",
            help="cm re-clusterer: identity, components, or external:<command>",
        )
        _add_logging(treat)
        treat.set_defaults(func=_cmd_treat)

    audit = subs.add_parser("audit", help="classify cluster connectivity")
    if "audit" in filled:
        audit.add_argument("--edgelist", required=True)
        audit.add_argument("--clustering", required=True)
        audit.add_argument("--threshold", default="1log10")
        audit.add_argument(
            "--num-processors", type=int, default=1, help=_PROCESSORS_HELP
        )
        audit.add_argument("--mincut-cap", type=int, default=None)
        audit.add_argument("--per-cluster-table", default=None)
        _add_common(audit)
        audit.set_defaults(func=_cmd_audit)

    ev = subs.add_parser("eval", help="score a clustering against ground truth")
    if "eval" in filled:
        ev.add_argument("--ground-truth", required=True)
        ev.add_argument("--estimated", required=True)
        ev.add_argument("--metrics", default=None)
        ev.add_argument("--edgelist", default=None)
        ev.add_argument("--restrict-common", action="store_true")
        _add_common(ev)
        ev.set_defaults(func=_cmd_eval)

    dl = subs.add_parser("dl", help="description-length accounting")
    if "dl" in filled:
        dl.add_argument("--edgelist", default=None)
        dl.add_argument("--clustering", default=None)
        dl.add_argument("--components-before", default=None)
        dl.add_argument("--components-after", default=None)
        _add_common(dl)
        dl.set_defaults(func=_cmd_dl)

    stats = subs.add_parser("stats", help="cluster size statistics and coverage")
    if "stats" in filled:
        stats.add_argument("--clustering", required=True)
        stats.add_argument("--edgelist", default=None)
        _add_common(stats)
        stats.set_defaults(func=_cmd_stats)

    gen = subs.add_parser("generate", help="write a synthetic network + clustering")
    if "generate" in filled:
        gen.add_argument(
            "--kind",
            required=True,
            choices=(
                "clique-ring", "bridged-cliques", "planted-partition-lite", "random-gnp"
            ),
        )
        gen.add_argument("--num-cliques", type=int, default=2)
        gen.add_argument("--clique-size", type=int, default=10)
        gen.add_argument("--bridges", type=int, default=1)
        gen.add_argument("--sizes", default="100x10")
        gen.add_argument("--p-in", type=float, default=0.1)
        gen.add_argument("--p-out", type=float, default=0.001)
        gen.add_argument("--n", type=int, default=100)
        gen.add_argument("--p", type=float, default=0.05)
        gen.add_argument("--seed", type=int, default=0)
        gen.add_argument("--edgelist-out", required=True)
        gen.add_argument("--clustering-out", required=True)
        _add_common(gen)
        gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the subcommand this run names gets its arguments: the top level
    # takes no option with a value, so that is the first non-option
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = _parser({named})
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        started = time.monotonic()
        for dest, least in _AT_LEAST.items():
            value = getattr(args, dest, None)
            if value is not None and value < least:
                flag = "--" + dest.replace("_", "-")
                raise ContractViolation(f"{flag} must be at least {least}, got {value}")
        _setup_logging(args.log_file, args.log_level)
        inputs = {
            role: {
                "path": str(path),
                "sha256": _sha256(path) if os.path.isfile(path) else None,
            }
            for role in _INPUT_OPTIONS
            if (path := getattr(args, role, None))
        }
        target, options, payload = args.func(args)
        _write_document(
            target, _manifest(args.subcommand, inputs, options, started), payload
        )
        return 0
    except ExternalClustererError as exc:
        print(f"wellconn: external clusterer failed: {exc}", file=sys.stderr)
        return 2
    except WellconnError as exc:
        print(f"wellconn: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"wellconn: error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Console entry point: `main` on the process's arguments, then `os._exit`.

    The interpreter's teardown frees every object after the document is
    written, which costs tens of milliseconds and changes nothing. So the
    log handlers are closed and stdout and stderr flushed here, and the
    process leaves at once. Output that stdout cannot take at this point,
    such as argparse's `--help` or `--version` text, is reported as an error.
    """
    code = main()
    logging.shutdown()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # a failure main already reported keeps its message and exit code
        if code == 0:
            print(f"wellconn: error: {exc}", file=sys.stderr)
            code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
