"""Clustering accuracy scores against ground truth: NMI, ARI, AGRI, RMI.

All information measures use base-2 logarithms. NMI is normalized by the
arithmetic mean of the two entropies. ARI follows the permutation-model
adjustment and is computed in exact rational arithmetic. AGRI is the same
adjusted-agreement construction restricted to node pairs that are edges of
the graph. RMI subtracts the information cost of the contingency table
(the log of the number of tables with the observed margins) from the mutual
information; the table count is exact for small universes and otherwise
uses the classical independence approximation of the count, taken as 0
where it is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clustering import Clustering
from .errors import ContractViolation, UniverseMismatch
from .graph import Graph

LOG_BASE = 2
NMI_NORMALIZATION = "arithmetic-mean"
EXACT_TABLE_COUNT_LIMIT = 20


@dataclass(frozen=True)
class ContingencyTable:
    """Sparse pairwise counts between two clusterings of the same universe."""

    n: int
    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray

    def dense(self) -> np.ndarray:
        out = np.zeros((len(self.row_sums), len(self.col_sums)), dtype=np.int64)
        out[self.rows, self.cols] = self.counts
        return out


def contingency(truth: Clustering, est: Clustering) -> ContingencyTable:
    """Exact counts of nodes per (truth cluster, estimated cluster) pair."""
    if truth.n != est.n:
        raise UniverseMismatch(
            f"clusterings cover different universes: {truth.n} vs {est.n} nodes"
        )
    if truth.n == 0:
        raise ContractViolation("contingency of an empty universe")
    k_est = est.num_clusters
    keys = truth.assignment * np.int64(k_est) + est.assignment
    uniq, counts = np.unique(keys, return_counts=True)
    rows = (uniq // k_est).astype(np.int64)
    cols = (uniq % k_est).astype(np.int64)
    return ContingencyTable(
        n=truth.n,
        row_sums=tuple(truth.sizes().tolist()),
        col_sums=tuple(est.sizes().tolist()),
        rows=rows,
        cols=cols,
        counts=counts.astype(np.int64),
    )


def _entropy_bits(sizes: tuple[int, ...], n: int) -> float:
    return -sum((s / n) * math.log2(s / n) for s in sizes if s)


def _mutual_information_bits(table: ContingencyTable) -> float:
    n = table.n
    total = 0.0
    for r, c, cnt in zip(
        table.rows.tolist(), table.cols.tolist(), table.counts.tolist()
    ):
        a = table.row_sums[r]
        b = table.col_sums[c]
        total += (cnt / n) * math.log2(cnt * n / (a * b))
    return total


def nmi(truth: Clustering, est: Clustering) -> float:
    """Mutual information normalized by the mean of the two entropies."""
    table = contingency(truth, est)
    h_truth = _entropy_bits(table.row_sums, table.n)
    h_est = _entropy_bits(table.col_sums, table.n)
    denom = (h_truth + h_est) / 2.0
    if denom == 0.0:
        return 1.0 if truth == est else 0.0
    return _mutual_information_bits(table) / denom


def ari(truth: Clustering, est: Clustering) -> float:
    """Adjusted Rand index under the permutation model, exact arithmetic."""
    if truth.n < 2:
        raise ContractViolation("ari requires at least 2 nodes")
    table = contingency(truth, est)
    n = table.n
    pairs_total = math.comb(n, 2)
    x = sum(math.comb(s, 2) for s in table.row_sums)
    y = sum(math.comb(s, 2) for s in table.col_sums)
    index = sum(math.comb(int(c), 2) for c in table.counts.tolist())
    # (index - x*y/pairs) / ((x+y)/2 - x*y/pairs); int / int is correctly rounded
    den = pairs_total * (x + y) - 2 * x * y
    if den == 0:
        return 1.0 if truth == est else 0.0
    return 2 * (pairs_total * index - x * y) / den


def agri(g: Graph, truth: Clustering, est: Clustering) -> float:
    """Adjusted graph-aware Rand index: agreement over edges, chance-corrected.

    Each edge is scored by whether its endpoints share a cluster in each
    clustering; the 2x2 agreement table is adjusted exactly like ARI
    (on the complete graph this reduces to ARI).
    """
    if truth.n != est.n:
        raise UniverseMismatch(
            f"clusterings cover different universes: {truth.n} vs {est.n} nodes"
        )
    if g.n != truth.n:
        raise UniverseMismatch(
            f"graph has {g.n} nodes but clusterings cover {truth.n}"
        )
    u, v = g.edge_arrays()
    same_t = truth.assignment[u] == truth.assignment[v]
    same_e = est.assignment[u] == est.assignment[v]
    a = int(np.count_nonzero(same_t & same_e))
    b = int(np.count_nonzero(same_t & ~same_e))
    c = int(np.count_nonzero(~same_t & same_e))
    d = int(np.count_nonzero(~same_t & ~same_e))
    num = 2 * (a * d - b * c)
    den = (a + b) * (b + d) + (a + c) * (c + d)
    if den == 0:
        return 1.0 if b == 0 and c == 0 else 0.0
    return num / den


def count_tables(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> int:
    """Number of nonnegative integer matrices with the given margins (exact)."""
    if sum(row_sums) != sum(col_sums):
        raise ContractViolation("margins must have equal totals")
    rows = tuple(sorted((s for s in row_sums if s), reverse=True))
    cols = tuple(sorted(s for s in col_sums if s))
    if not rows:
        return 1

    @lru_cache(maxsize=None)
    def rec(row_idx: int, remaining: tuple[int, ...]) -> int:
        if row_idx == len(rows):
            return 1
        total = 0
        target = rows[row_idx]

        def place(pos: int, left: int, acc: tuple[int, ...]):
            nonlocal total
            if pos == len(remaining):
                if left == 0:
                    total += rec(row_idx + 1, tuple(sorted(acc)))
                return
            room = sum(remaining[pos:])
            if left > room:
                return
            for take in range(min(left, remaining[pos]) + 1):
                place(pos + 1, left - take, acc + (remaining[pos] - take,))

        place(0, target, ())
        return total

    return rec(0, cols)


def log2_table_count(
    row_sums: tuple[int, ...], col_sums: tuple[int, ...]
) -> tuple[float, str]:
    """log2 of the table count, exact below the limit, else approximated.

    The approximation treats row and column constraints as independent:
    count(a) * count(b) / count(total), where count(x) is the number of
    matrices with only those margins fixed. A negative approximation is
    taken as 0 (`clamped_table_counts` names where that happened).
    """
    method = table_count_method(sum(row_sums))
    if method == "exact-enumeration":
        return math.log2(count_tables(row_sums, col_sums)), method
    return max(_independence_estimate(row_sums, col_sums), 0.0), method


# an rmi score and its clamped_table_counts ask for the same three estimates
@lru_cache(maxsize=3)
def _independence_estimate(
    row_sums: tuple[int, ...], col_sums: tuple[int, ...]
) -> float:
    """log2 of the independence approximation of the table count, unclamped."""
    n = sum(row_sums)
    r = len(row_sums)
    s = len(col_sums)
    log2e = math.log2(math.e)

    def logc(a: int, k: int) -> float:
        return (
            math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
        ) * log2e

    # one term per distinct sum, added up in the margins' order
    row_term = {a: logc(a + s - 1, s - 1) for a in set(row_sums)}
    col_term = {b: logc(b + r - 1, r - 1) for b in set(col_sums)}
    return (
        sum(map(row_term.__getitem__, row_sums))
        + sum(map(col_term.__getitem__, col_sums))
        - logc(n + r * s - 1, r * s - 1)
    )


def clamped_table_counts(
    truth: Clustering, est: Clustering, normalized: bool = True
) -> list[str]:
    """The table counts an rmi score uses whose estimate was negative, so taken as 0.

    The unnormalized score uses the `joint` table (truth by estimate); the
    normalized one also uses `truth` and `estimated`, each by itself. With
    every count clamped, the normalized rmi equals nmi. Exact counts are
    never clamped.
    """
    if table_count_method(truth.n) == "exact-enumeration":
        return []
    t, e = tuple(truth.sizes().tolist()), tuple(est.sizes().tolist())
    tables = {"joint": (t, e), "truth": (t, t), "estimated": (e, e)}
    names = list(tables) if normalized else ["joint"]
    return [name for name in names if _independence_estimate(*tables[name]) < 0]


def table_count_method(n: int) -> str:
    return (
        "exact-enumeration"
        if n <= EXACT_TABLE_COUNT_LIMIT
        else "independence-approximation"
    )


def _rmi_unnormalized(table: ContingencyTable) -> float:
    logw, _ = log2_table_count(table.row_sums, table.col_sums)
    return _mutual_information_bits(table) - logw / table.n


def rmi(truth: Clustering, est: Clustering, normalized: bool = True) -> float:
    """Reduced mutual information, in bits per node; optionally normalized.

    The normalized variant divides by the mean of the two self-scores so
    that rmi(c, c, True) == 1.
    """
    table = contingency(truth, est)
    value = _rmi_unnormalized(table)
    if not normalized:
        return value
    self_truth = _rmi_unnormalized(contingency(truth, truth))
    self_est = _rmi_unnormalized(contingency(est, est))
    denom = (self_truth + self_est) / 2.0
    if denom == 0.0:
        return 1.0 if truth == est else 0.0
    return value / denom
