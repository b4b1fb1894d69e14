"""wellconn: audit and repair the edge-connectivity of graph clusterings.

The package loads tab-separated edgelists and clustering files, classifies
clusters as well connected, poorly connected, or disconnected against a
configurable minimum-cut bound, repairs clusterings by splitting along
connected components (cc), minimum cuts (wcc), or cuts plus re-clustering
(cm), scores clusterings against ground truth (NMI, ARI, AGRI, RMI), and
accounts for the blockmodel description-length term that penalizes block
counts.

Each public name is imported from its module on first use (PEP 562), so a
command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each module
_PUBLIC = {
    "audit": (
        "AuditDelta", "ClusterAudit", "ConnectivityReport", "audit_delta",
        "connectivity_audit",
    ),
    "clustering": (
        "Clustering", "ClusteringLoadResult", "ClusterStats", "ThresholdSpec",
        "DEFAULT_THRESHOLD", "cluster_stats", "is_refinement", "is_well_connected",
        "load_clustering", "node_coverage", "read_membership", "write_clustering",
    ),
    "dl": (
        "DLComponents", "DLDiffReport", "compose_dl", "dl_diff",
        "edge_count_prior_cost", "load_components", "pe_for_clustering",
        "save_components",
    ),
    "errors": (
        "ClusteringParseError", "ContractViolation", "EdgelistParseError",
        "ExternalClustererError", "TreatmentError", "UnitMismatch",
        "UniverseMismatch", "WellconnError",
    ),
    "gadgets": ("GadgetSpec", "generate", "parse_sizes"),
    "graph": (
        "Graph", "IngestReport", "connected_components", "induced_subgraph",
        "load_edgelist", "write_edgelist",
    ),
    "metrics": ("ContingencyTable", "agri", "ari", "contingency", "nmi", "rmi"),
    "mincut": ("CutResult", "brute_force_min_cut", "global_min_cut"),
    "treatments": (
        "ComponentsClusterer", "ExternalClusterer", "IdentityClusterer",
        "TreatmentTrace", "cc_treatment", "cc_treatment_with_trace", "cm_treatment",
        "parse_clusterer", "wcc_treatment",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    """Import a public name's module, or a submodule, on first access."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        return import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__
