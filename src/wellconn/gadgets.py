"""Deterministic synthetic test networks with planted clusterings.

The pseudo-random source is numpy's PCG64 (O'Neill's permuted congruential
generator) seeded directly with the spec's seed, so equal specs reproduce
byte-identical graphs anywhere numpy runs. The draws come in a fixed order:
for each block in index order, a binomial count of its internal edges and
then their sample; then one binomial count and one sample for the edges
between blocks. A sample enumerates all candidate pairs when it draws among
at most 2048 nodes, and draws endpoints in batches above that. G(n, p) is
the planted partition with one block.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .clustering import Clustering
from .errors import ContractViolation
from .graph import Graph

# up to this many nodes, edge sampling enumerates all candidate pairs
_DENSE_SAMPLING_LIMIT = 2048


class GadgetSpec(NamedTuple):
    """Recipe for one synthetic network.

    kinds and parameters:
      clique-ring / bridged-cliques: num_cliques, clique_size, bridges
        (cliques joined pairwise in a ring by that many bridge edges)
      planted-partition-lite: sizes, p_in, p_out, seed
      random-gnp: n, p, seed
    """

    kind: str
    num_cliques: int = 0
    clique_size: int = 0
    bridges: int = 0
    sizes: tuple[int, ...] = ()
    p_in: float = 0.0
    p_out: float = 0.0
    n: int = 0
    p: float = 0.0
    seed: int = 0


def generate(spec: GadgetSpec) -> tuple[Graph, Clustering]:
    """Deterministic graph plus its planted ground-truth clustering."""
    if spec.seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {spec.seed}")
    if spec.kind in ("clique-ring", "bridged-cliques"):
        return _clique_ring(spec.num_cliques, spec.clique_size, spec.bridges)
    if spec.kind == "planted-partition-lite":
        return _planted_partition(spec.sizes, spec.p_in, spec.p_out, spec.seed)
    if spec.kind == "random-gnp":
        return _random_gnp(spec.n, spec.p, spec.seed)
    raise ContractViolation(f"unknown gadget kind: {spec.kind!r}")


def _clique_ring(k: int, s: int, b: int) -> tuple[Graph, Clustering]:
    if k < 1:
        raise ContractViolation("need at least one clique")
    if s < 1:
        raise ContractViolation("clique size must be at least 1")
    if b < 0 or b > s:
        raise ContractViolation(f"bridge count must be in [0, {s}]")
    n = k * s
    edges: list[tuple[int, int]] = []
    for i in range(k):
        base = i * s
        for a in range(s):
            for c in range(a + 1, s):
                edges.append((base + a, base + c))
    if k >= 2 and b > 0:
        ring_pairs = [(i, i + 1) for i in range(k - 1)]
        if k > 2:
            ring_pairs.append((k - 1, 0))
        for i, j in ring_pairs:
            for t in range(b):
                edges.append((i * s + t, j * s + t))
    g = Graph.from_edges(n, edges)
    assignment = np.repeat(np.arange(k, dtype=np.int64), s)
    return g, Clustering.from_assignment(assignment)


def _sample_pairs(rng: np.random.Generator, n: int, count: int, accept=None) -> np.ndarray:
    """Draw `count` distinct unordered pairs of 0..n-1 as int64 keys lo*n+hi.

    Only pairs that `accept(u, v)` allows are drawn, or every pair when it is
    None. Up to the dense limit, a permutation of all accepted pairs picks
    them; above it, the first `count` distinct accepted draws of a uniform
    endpoint stream do. Both selections are uniform and deterministic.
    """
    if count == 0:
        return np.empty(0, np.int64)
    if n <= _DENSE_SAMPLING_LIMIT:
        u, v = np.triu_indices(n, 1)
        if accept is not None:
            ok = accept(u, v)
            u, v = u[ok], v[ok]
        # in place: fresh temporaries here triple the page faults
        keys = u.astype(np.int64, copy=False)
        keys *= n
        keys += v
        return keys[rng.permutation(len(keys))[:count]]
    picked = np.empty(0, np.int64)
    # the keys picked so far, ascending, under a sentinel no key reaches: a
    # batch costs a lookup, where np.isin would sort every picked key again
    seen = np.array([np.iinfo(np.int64).max])
    while len(picked) < count:
        remaining = count - len(picked)
        batch = max(int(remaining * 1.3) + 16, 64)
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        ok = u != v
        if accept is not None:
            ok &= accept(u, v)
        u, v = u[ok], v[ok]
        drawn = np.minimum(u, v) * n + np.maximum(u, v)
        keys, first = np.unique(drawn, return_index=True)
        at = np.searchsorted(seen, keys)
        fresh = seen[at] != keys
        picked = np.concatenate([picked, drawn[np.sort(first[fresh])[:remaining]]])
        seen = np.insert(seen, at[fresh], keys[fresh])
    return picked


def _binomial_count(rng: np.random.Generator, population: int, p: float) -> int:
    if population <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return population
    return int(rng.binomial(population, p))


def _planted_partition(
    sizes: tuple[int, ...], p_in: float, p_out: float, seed: int
) -> tuple[Graph, Clustering]:
    if not sizes or any(s < 1 for s in sizes):
        raise ContractViolation("cluster sizes must be positive")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ContractViolation("edge probabilities must lie in [0, 1]")
    n = int(sum(sizes))
    assignment = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    rng = np.random.Generator(np.random.PCG64(seed))
    keys: list[np.ndarray] = []

    # internal edges, cluster by cluster in index order
    base = 0
    for size in sizes:
        want = _binomial_count(rng, size * (size - 1) // 2, p_in)
        local = _sample_pairs(rng, size, want)
        keys.append((local // size + base) * n + local % size + base)
        base += size

    # cross-cluster edges
    cross_pairs = n * (n - 1) // 2 - sum(s * (s - 1) // 2 for s in sizes)
    want = _binomial_count(rng, cross_pairs, p_out)
    keys.append(_sample_pairs(rng, n, want, lambda u, v: assignment[u] != assignment[v]))

    # each step frees what it read, as the keys and pairs are the command's
    # peak: the block keys, their join, and the (m, 2) pairs made from it
    all_keys = np.concatenate(keys)
    del keys
    pairs = np.empty((len(all_keys), 2), np.int64)
    np.divmod(all_keys, n, out=(pairs[:, 0], pairs[:, 1]))
    del all_keys
    g = Graph.from_edges(n, pairs)
    return g, Clustering.from_assignment(assignment)


def _random_gnp(n: int, p: float, seed: int) -> tuple[Graph, Clustering]:
    if n < 0:
        raise ContractViolation("node count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ContractViolation("edge probability must lie in [0, 1]")
    if n == 0:
        return Graph.from_edges(0, []), Clustering.from_assignment(np.empty(0, np.int64))
    return _planted_partition((n,), p, 0.0, seed)


def parse_sizes(text: str) -> tuple[int, ...]:
    """Parse a size spec like '200x3000,20000x20' into an explicit tuple."""
    sizes: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        size_text, times, count_text = chunk.partition("x")
        try:
            size, count = int(size_text), int(count_text) if times else 1
        except ValueError:
            raise ContractViolation(f"bad size spec chunk: {chunk!r}") from None
        # numbers past sys.maxsize cannot size a list or an array
        if not (1 <= size <= sys.maxsize and 1 <= count <= sys.maxsize):
            raise ContractViolation(f"bad size spec chunk: {chunk!r}")
        sizes.extend([size] * count)
    if not sizes:
        raise ContractViolation(f"empty size spec: {text!r}")
    return tuple(sizes)
