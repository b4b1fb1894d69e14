"""The package surface: its public names, loaded from their modules on first
use, and the modules each command leaves unloaded."""

import importlib
import json
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

# modules that treat, audit and eval never run
UNUSED_BY_TREAT_AUDIT_EVAL = (
    "wellconn.dl", "wellconn.gadgets", "wellconn.mincut", "subprocess", "shlex",
)


def fresh_python(code: str, *args: str) -> str:
    """Run `code` in a new interpreter and return what it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=wellconn_env(), capture_output=True, text=True, check=True,
    )
    return proc.stdout


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


def test_treat_audit_eval_leave_unused_modules_unloaded(tmp_path):
    g, truth = w.generate(w.GadgetSpec(
        kind="planted-partition-lite", sizes=(30, 30, 20, 20), p_in=0.3, p_out=0.02,
        seed=4,
    ))
    net, truth_file = tmp_path / "net.tsv", tmp_path / "truth.tsv"
    w.write_edgelist(g, net)
    w.write_clustering(truth, g, truth_file)
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
