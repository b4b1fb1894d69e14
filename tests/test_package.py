"""The package surface: its public names, loaded from their modules on first
use, the modules each command leaves unloaded, and the process a command
runs in: one thread, the caller's environment, and output that survives the
console entry point's fast exit."""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import wellconn as w
from conftest import wellconn_env

PUBLIC_NAMES = [
    "__version__",
    "AuditDelta", "ClusterAudit", "ClusterStats", "Clustering", "ClusteringLoadResult",
    "ClusteringParseError", "ComponentsClusterer", "ConnectivityReport",
    "ContingencyTable", "ContractViolation", "CutResult", "DEFAULT_THRESHOLD",
    "DLComponents", "DLDiffReport", "EdgelistParseError", "ExternalClusterer",
    "ExternalClustererError", "GadgetSpec", "Graph", "IdentityClusterer",
    "IngestReport", "ThresholdSpec", "TreatmentError", "TreatmentTrace",
    "UnitMismatch", "UniverseMismatch", "WellconnError",
    "agri", "ari", "audit_delta", "brute_force_min_cut", "cc_treatment",
    "cc_treatment_with_trace", "cluster_stats", "cm_treatment", "compose_dl",
    "connected_components", "connectivity_audit", "contingency", "dl_diff",
    "edge_count_prior_cost", "generate", "global_min_cut", "induced_subgraph",
    "is_refinement", "is_well_connected", "load_clustering", "load_components",
    "load_edgelist", "nmi", "node_coverage", "parse_clusterer", "parse_sizes",
    "pe_for_clustering", "read_membership", "rmi", "save_components",
    "wcc_treatment", "write_clustering", "write_edgelist",
]

# modules that treat, audit and eval never run; numpy.ma is loaded by a bare
# np.unique(x), which takes a hash path in numpy 2.4, fractions (which
# loads decimal) by exact scores that need only int / int, _hashlib
# (OpenSSL) by a digest of inputs this small, and logging by a run that
# asks for no log
UNUSED_BY_TREAT_AUDIT_EVAL = (
    "wellconn.dl", "wellconn.gadgets", "wellconn.mincut", "subprocess", "shlex",
    "numpy.ma", "fractions", "decimal", "_hashlib", "logging",
)

# modules that some command loads and others must not
PER_COMMAND = ("wellconn.audit", "wellconn.metrics", "dataclasses")


def caller_env(**extra: str) -> dict[str, str]:
    """`wellconn_env()` without OPENBLAS_NUM_THREADS or PYTHONUNBUFFERED, plus `extra`.

    Without PYTHONUNBUFFERED a child's stdout is block-buffered, as in a
    shell pipeline, so output left in its buffer at exit would be lost.
    """
    env = wellconn_env()
    for name in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return {**env, **extra}


def fresh_python(code: str, *args: str, env: dict[str, str] | None = None) -> str:
    """Run `code` in a new interpreter and return what it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=wellconn_env() if env is None else env, capture_output=True, text=True,
        check=True,
    )
    return proc.stdout


def console(*argv) -> subprocess.CompletedProcess:
    """`python -m wellconn` with `argv` in `caller_env()`, stdout and stderr piped."""
    return subprocess.run(
        [sys.executable, "-m", "wellconn", *map(str, argv)],
        env=caller_env(), capture_output=True, timeout=60,
    )


@pytest.fixture
def planted_files(tmp_path):
    """An edgelist and its planted clustering, four clusters on 100 nodes."""
    g, truth = w.generate(w.GadgetSpec(
        kind="planted-partition-lite", sizes=(30, 30, 20, 20), p_in=0.3, p_out=0.02,
        seed=4,
    ))
    net, truth_file = tmp_path / "net.tsv", tmp_path / "truth.tsv"
    w.write_edgelist(g, net)
    w.write_clustering(truth, g, truth_file)
    return net, truth_file


def test_public_names_pinned():
    assert w.__all__ == PUBLIC_NAMES
    assert len(w.__all__) == 61
    assert dir(w) == sorted(w.__all__)


def test_each_name_is_its_modules_object():
    for name in PUBLIC_NAMES[1:]:
        value = getattr(w, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("wellconn."), name
        assert getattr(module, name) is value, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from wellconn import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(w, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        w.no_such_name
    assert not hasattr(w, "no_such_name")
    with pytest.raises(ImportError):
        exec("from wellconn import no_such_name", {})


def test_bare_import_loads_no_module_and_resolves_submodules():
    out = fresh_python(
        "import sys, wellconn\n"
        "print(sorted(m for m in sys.modules if m.startswith('wellconn.')))\n"
        "print(wellconn.graph.__name__, wellconn._kernels.__name__)\n"
    )
    assert out.splitlines() == ["[]", "wellconn.graph wellconn._kernels"]


def test_treat_audit_eval_leave_unused_modules_unloaded(tmp_path, planted_files):
    net, truth_file = planted_files
    runs = [
        ["treat", "--edgelist", net, "--existing-clustering", truth_file,
         "--mode", mode, "--output-file", tmp_path / f"{mode}.tsv"]
        for mode in ("wcc", "cc")
    ]
    runs += [
        ["audit", "--edgelist", net, "--clustering", truth_file,
         "--num-processors", 2, "--output", tmp_path / "audit.json"],
        ["eval", "--ground-truth", truth_file, "--estimated", tmp_path / "wcc.tsv",
         "--edgelist", net, "--output", tmp_path / "eval.json"],
    ]
    out = fresh_python(
        "import json, sys\n"
        "from wellconn.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = set(json.loads(sys.argv[2])) & set(sys.modules)\n"
        "print(json.dumps([codes, sorted(loaded)]))\n",
        json.dumps([[str(a) for a in argv] for argv in runs]),
        json.dumps(UNUSED_BY_TREAT_AUDIT_EVAL),
    )
    assert json.loads(out) == [[0, 0, 0, 0], []]
    assert json.loads((tmp_path / "eval.json").read_text())["payload"]["scores"]


def test_each_command_loads_only_its_own_modules(tmp_path, planted_files):
    net, truth_file = planted_files
    wcc = tmp_path / "wcc.tsv"
    runs = [
        ([], []),
        (["treat", "--edgelist", net, "--existing-clustering", truth_file,
          "--mode", "wcc", "--output-file", wcc], []),
        (["treat", "--edgelist", net, "--existing-clustering", truth_file,
          "--mode", "cc", "--output-file", tmp_path / "cc.tsv"], []),
        (["audit", "--edgelist", net, "--clustering", wcc,
          "--output", tmp_path / "audit.json"], ["wellconn.audit"]),
        (["eval", "--ground-truth", truth_file, "--estimated", wcc, "--edgelist", net,
          "--output", tmp_path / "eval.json"], ["wellconn.metrics"]),
    ]
    for argv, expected in runs:
        out = fresh_python(
            "import json, sys\n"
            "from wellconn.cli import main\n"
            "code = main(sys.argv[2:]) if sys.argv[2:] else 0\n"
            "loaded = set(json.loads(sys.argv[1])) & set(sys.modules)\n"
            "print(json.dumps([code, sorted(loaded)]))\n",
            json.dumps(PER_COMMAND), *map(str, argv),
        )
        assert json.loads(out) == [0, expected], argv


def test_a_large_input_loads_openssl_and_keeps_the_document(tmp_path):
    # an edgelist of at least graph._OPENSSL_FROM bytes: its digest, the
    # command's first, loads OpenSSL in a fresh interpreter; pytest has
    # loaded it already, so in this process every digest takes it
    from wellconn import graph
    from wellconn.cli import main

    n = 40_000
    net, clusters = tmp_path / "net.tsv", tmp_path / "clusters.tsv"
    net.write_text("".join(
        f"n{i}\tn{(i + step) % n}\n" for i in range(n) for step in (1, 7)
    ))
    clusters.write_text("".join(f"n{i}\t{i // 100}\n" for i in range(n)))
    assert net.stat().st_size >= graph._OPENSSL_FROM
    argv = ["treat", "--edgelist", str(net), "--existing-clustering", str(clusters),
            "--mode", "cc", "--output-file", str(tmp_path / "cc.tsv")]
    document = tmp_path / "cc.tsv.run.json"
    assert main(argv) == 0
    in_process = json.loads(document.read_text())
    out = fresh_python(
        "import json, sys\n"
        "from wellconn.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, '_hashlib' in sys.modules]))\n",
        *argv,
    )
    assert json.loads(out) == [0, True]
    fresh = json.loads(document.read_text())
    for doc in (in_process, fresh):
        doc["manifest"]["duration_seconds"] = 0
    assert fresh == in_process
    assert fresh["payload"]["clusters_out"] == n // 100


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_thread_and_restores_the_environment():
    out = fresh_python(
        "import os, wellconn.cli\n"
        "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)\n",
        env=caller_env(),
    )
    assert out.split() == ["1", "False"]


def test_cli_import_keeps_the_callers_blas_threads():
    out = fresh_python(
        "import os, wellconn.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n",
        env=caller_env(OPENBLAS_NUM_THREADS="2"),
    )
    assert out == "2\n"


def test_console_document_matches_main(planted_files, capsys):
    from wellconn.cli import main

    net, truth_file = planted_files
    argv = ["stats", "--clustering", truth_file, "--edgelist", net]
    assert main([str(a) for a in argv]) == 0
    in_process = capsys.readouterr().out
    proc = console(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""

    def blank(text: str) -> str:
        return re.sub(r'"duration_seconds": [0-9.e+-]+', '"duration_seconds": 0', text)

    assert blank(proc.stdout.decode("utf-8")) == blank(in_process)
    assert in_process.endswith("}\n")


def test_console_log_file_has_every_line(tmp_path, planted_files):
    from wellconn.cli import main

    net, truth_file = planted_files

    def messages(log_file) -> list[str]:
        # each line is `date time LEVEL message`; the clock is blanked
        lines = log_file.read_text().splitlines()
        return [line.split(" ", 2)[2] for line in lines]

    logs = []
    for how in ("main", "console"):
        log_file = tmp_path / f"{how}.log"
        argv = ["treat", "--edgelist", net, "--existing-clustering", truth_file,
                "--mode", "wcc", "--output-file", tmp_path / f"{how}.tsv",
                "--log-file", log_file, "--log-level", "2"]
        if how == "main":
            assert main([str(a) for a in argv]) == 0
        else:
            proc = console(*argv)
            assert proc.returncode == 0, proc.stderr
        logs.append(messages(log_file))
    assert logs[1] == logs[0]
    assert logs[0][0].startswith("INFO loaded 100 nodes")
    assert logs[0][-1].startswith("INFO treatment: 4 clusters in")


def test_external_clusterer_sees_the_callers_environment(tmp_path):
    # one cluster of two cliques and a bridge: the cut splits it, and the
    # clusterer runs on each side
    g, _ = w.generate(w.GadgetSpec(kind="bridged-cliques", num_cliques=2, clique_size=6))
    net, whole = tmp_path / "net.tsv", tmp_path / "whole.tsv"
    w.write_edgelist(g, net)
    w.write_clustering(w.Clustering.from_assignment([0] * g.n), g, whole)
    seen = tmp_path / "environ.json"
    script = tmp_path / "record.py"
    script.write_text(
        "import json, os, sys\n"
        "with open(sys.argv[3], 'w') as fh:\n"
        "    json.dump(dict(os.environ), fh)\n"
        "nodes = set()\n"
        "for line in open(sys.argv[1]):\n"
        "    nodes.update(line.split())\n"
        "with open(sys.argv[2], 'w') as out:\n"
        "    out.writelines(f'{v}\\tone\\n' for v in sorted(nodes))\n"
    )
    proc = console(
        "treat", "--edgelist", net, "--existing-clustering", whole,
        "--mode", "cm", "--output-file", tmp_path / "out.tsv",
        "--clusterer", f"external:{sys.executable} {script} {{input}} {{output}} {seen}",
    )
    assert proc.returncode == 0, proc.stderr
    environ = json.loads(seen.read_text())
    assert "OPENBLAS_NUM_THREADS" not in environ
    assert environ["PYTHONPATH"] == caller_env()["PYTHONPATH"]
