"""Exact global minimum edge cuts of connected undirected graphs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ContractViolation
from .graph import Graph

BRUTE_FORCE_MAX_NODES = 16


@dataclass(frozen=True, eq=False)
class CutResult:
    """A global minimum cut: its size and a witnessing bipartition.

    `side` is a per-node boolean mask; True marks side A, which always
    contains node 0. Both sides are non-empty and the number of edges with
    endpoints on different sides equals `value`.
    """

    value: int
    side: np.ndarray = field(repr=False)

    def side_a(self) -> np.ndarray:
        return np.flatnonzero(self.side).astype(np.int64)

    def side_b(self) -> np.ndarray:
        return np.flatnonzero(~self.side).astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutResult):
            return NotImplemented
        return self.value == other.value and np.array_equal(self.side, other.side)


def _check_connected(g: Graph, caller: str) -> None:
    if g.n < 2:
        raise ContractViolation(f"{caller}: graph must have at least 2 nodes")
    labels = _kernels.connected_labels(g.indptr, g.adj)
    if labels.max() != 0:
        raise ContractViolation(f"{caller}: graph must be connected")


def global_min_cut(g: Graph) -> CutResult:
    """Exact global minimum edge cut of a connected graph with n >= 2.

    Deterministic: repeated calls return the identical cut. Value is at
    least 1 and at most the minimum degree.
    """
    _check_connected(g, "global_min_cut")
    value, side = _kernels.min_cut_csr(g.indptr, g.adj)
    if value < 0:
        raise ContractViolation("global_min_cut: graph must be connected")
    return CutResult(int(value), side)


def brute_force_min_cut(g: Graph) -> CutResult:
    """Exhaustive minimum cut over all bipartitions; test oracle for n <= 16.

    Among minimum cuts, returns the one whose side A (the side containing
    node 0) is lexicographically smallest as a sorted index tuple.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX_NODES:
        raise ContractViolation(
            f"brute_force_min_cut: refused for n={n} > {BRUTE_FORCE_MAX_NODES}"
        )
    _check_connected(g, "brute_force_min_cut")
    nbr = [0] * n
    for v in range(n):
        for u in g.neighbors(v).tolist():
            nbr[v] |= 1 << u
    full = (1 << n) - 1
    best_value: int | None = None
    best_tuple: tuple[int, ...] | None = None
    best_mask = 0
    # side A always holds node 0; enumerate the other n-1 memberships
    for bits in range(1 << (n - 1)):
        mask = 1 | (bits << 1)
        if mask == full:
            continue
        inv = full & ~mask
        cut = 0
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cut += bin(nbr[v] & inv).count("1")
        if best_value is None or cut < best_value:
            best_value = cut
            best_mask = mask
            best_tuple = None
        elif cut == best_value:
            if best_tuple is None:
                best_tuple = _mask_tuple(best_mask)
            cand = _mask_tuple(mask)
            if cand < best_tuple:
                best_tuple = cand
                best_mask = mask
    side = np.zeros(n, dtype=bool)
    for v in range(n):
        if best_mask >> v & 1:
            side[v] = True
    return CutResult(int(best_value), side)


def _mask_tuple(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)
