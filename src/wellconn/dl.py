"""Degree-corrected blockmodel description-length accounting.

The description length splits into four nonnegative terms: the adjacency
likelihood cost, the degree prior cost, the partition prior cost, and the
edge-count-matrix prior cost. Only the last one is computed natively here
(it has a closed form in the block count and edge count); the other three
are ingested from component files produced by external tooling, and the
composition and differencing logic explains when a repaired clustering
would be preferred once the edge-count-matrix term is set aside.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .clustering import Clustering
from .errors import ContractViolation, UnitMismatch
from .graph import Graph, write_lines

COMPONENT_NAMES = ("adjacency", "degrees", "partition", "edge_counts")


@dataclass(frozen=True)
class DLComponents:
    """The four description-length terms for one (network, clustering) pair.

    Values are negative log-probabilities, so all terms are nonnegative.
    `unit` is an opaque tag ("nats", "bits", "k", ...) used only to refuse
    mixing incompatible values.
    """

    adjacency: float
    degrees: float
    partition: float
    edge_counts: float
    unit: str = "nats"

    def __post_init__(self):
        for name in COMPONENT_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ContractViolation(f"component {name} must be finite")
            if value < 0:
                raise ContractViolation(f"component {name} must be nonnegative")

    def total(self) -> float:
        return self.adjacency + self.degrees + self.partition + self.edge_counts


def compose_dl(components: DLComponents) -> float:
    """Total description length: the exact sum of the four terms."""
    return components.total()


@dataclass(frozen=True)
class DLDiffReport:
    """Per-term and total differences (treated - untreated) plus preferences.

    `preference` names the side with the lower total; `preference_without_pe`
    does the same after dropping the edge-count-matrix prior term; `flipped`
    records whether dropping that term changes the preference.
    """

    adjacency: float
    degrees: float
    partition: float
    edge_counts: float
    total: float
    preference: str
    preference_without_pe: str
    flipped: bool
    unit: str

    def to_dict(self) -> dict:
        return {
            "differences": {
                "adjacency": self.adjacency,
                "degrees": self.degrees,
                "partition": self.partition,
                "edge_counts": self.edge_counts,
                "total": self.total,
            },
            "preference": self.preference,
            "preference_without_pe": self.preference_without_pe,
            "flipped": self.flipped,
            "unit": self.unit,
        }


def _preference(untreated_total: float, treated_total: float) -> str:
    if treated_total < untreated_total:
        return "treated"
    if untreated_total < treated_total:
        return "untreated"
    return "tie"


def dl_diff(untreated: DLComponents, treated: DLComponents) -> DLDiffReport:
    """Difference report between an untreated and a treated clustering."""
    if untreated.unit != treated.unit:
        raise UnitMismatch(
            f"cannot compare units {untreated.unit!r} and {treated.unit!r}"
        )
    preference = _preference(untreated.total(), treated.total())
    preference_without = _preference(
        untreated.total() - untreated.edge_counts,
        treated.total() - treated.edge_counts,
    )
    return DLDiffReport(
        adjacency=treated.adjacency - untreated.adjacency,
        degrees=treated.degrees - untreated.degrees,
        partition=treated.partition - untreated.partition,
        edge_counts=treated.edge_counts - untreated.edge_counts,
        total=treated.total() - untreated.total(),
        preference=preference,
        preference_without_pe=preference_without,
        flipped=preference != preference_without,
        unit=untreated.unit,
    )


def edge_count_prior_cost(num_blocks: int, num_edges: int) -> float:
    """The edge-count-matrix prior term for an undirected graph, in nats.

    Equals log C(B(B+1)/2 + E - 1, E) for B blocks and E edges: the log of
    the number of ways to spread E edges over the multiset of block pairs.
    Exactly 0 for a single block; strictly increasing in the block count
    whenever E >= 1.
    """
    if num_blocks < 1:
        raise ContractViolation("block count must be at least 1")
    if num_edges < 0:
        raise ContractViolation("edge count must be nonnegative")
    if num_blocks == 1 or num_edges == 0:
        return 0.0
    top = num_blocks * (num_blocks + 1) // 2 + num_edges - 1
    return (
        math.lgamma(top + 1)
        - math.lgamma(num_edges + 1)
        - math.lgamma(top - num_edges + 1)
    )


def pe_for_clustering(g: Graph, c: Clustering) -> float:
    """Edge-count-matrix prior of a clustering: blocks include singletons."""
    if c.n != g.n:
        raise ContractViolation(
            f"clustering covers {c.n} nodes but graph has {g.n}"
        )
    return edge_count_prior_cost(c.num_clusters, g.m)


def load_components(source: str | Path | IO | dict) -> DLComponents:
    """Read a component file: JSON with a unit tag and the four named terms."""
    try:
        if isinstance(source, dict):
            data = source
        elif isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(source)
        comp = data["components"]
        return DLComponents(
            adjacency=float(comp["adjacency"]),
            degrees=float(comp["degrees"]),
            partition=float(comp["partition"]),
            edge_counts=float(comp["edge_counts"]),
            unit=str(data.get("unit", "nats")),
        )
    except KeyError as exc:
        raise ContractViolation(f"component file missing key: {exc}") from exc
    except (TypeError, ValueError) as exc:  # not JSON, not UTF-8, not a number
        raise ContractViolation(f"bad component file: {exc}") from exc


def save_components(components: DLComponents, target: str | Path | IO) -> None:
    doc = {"unit": components.unit, "components": {
        name: getattr(components, name) for name in COMPONENT_NAMES
    }}
    write_lines(target, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
