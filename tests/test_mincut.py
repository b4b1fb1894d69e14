"""Exact global minimum cut: examples, oracle equivalence, invariants."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellconn as w
from conftest import (
    brute_cut_value,
    clique_edges,
    cycle_edges,
    edges_of,
    graph_of,
    path_edges,
    random_connected_graph,
    star_edges,
    two_cliques,
)


class TestExamples:
    def test_k4(self):
        g = graph_of(4, clique_edges(4))
        assert w.global_min_cut(g).value == 3

    def test_path(self):
        g = graph_of(3, path_edges(3))
        assert w.global_min_cut(g).value == 1

    def test_triangle_brute(self):
        g = graph_of(3, cycle_edges(3))
        assert w.brute_force_min_cut(g).value == 2

    def test_star_brute(self):
        g = graph_of(6, star_edges(6))
        assert w.brute_force_min_cut(g).value == 1

    def test_two_k5_bridge(self):
        g = two_cliques(5, bridges=1)
        cut = w.global_min_cut(g)
        bf = w.brute_force_min_cut(g)
        assert cut.value == bf.value == 1
        sides = {frozenset(cut.side_a().tolist()), frozenset(cut.side_b().tolist())}
        assert sides == {frozenset(range(5)), frozenset(range(5, 10))}


class TestContracts:
    def test_disconnected_rejected(self):
        # two disjoint edges: the kernel itself returns a cut of value 1
        for g in (two_cliques(4, bridges=0), graph_of(4, [(0, 1), (2, 3)])):
            with pytest.raises(w.ContractViolation):
                w.global_min_cut(g)
            with pytest.raises(w.ContractViolation):
                w.brute_force_min_cut(g)

    def test_too_small_rejected(self):
        g = w.Graph.from_edges(1, [])
        with pytest.raises(w.ContractViolation):
            w.global_min_cut(g)

    def test_brute_force_size_cap(self):
        g = graph_of(17, path_edges(17))
        with pytest.raises(w.ContractViolation):
            w.brute_force_min_cut(g)

    def test_two_node_graph(self):
        g = graph_of(2, [(0, 1)])
        cut = w.global_min_cut(g)
        assert cut.value == 1
        assert sorted([cut.side_a().size, cut.side_b().size]) == [1, 1]


class TestOracleEquivalence:
    def test_values_match_brute_force(self):
        rng = random.Random(101)
        checked = 0
        while checked < 150:
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n, rng.uniform(0.2, 0.9))
            if g is None:
                continue
            assert w.global_min_cut(g).value == w.brute_force_min_cut(g).value
            checked += 1

    def test_gnp_10_04_instances(self):
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            g = random_connected_graph(rng, 10, 0.4)
            if g is None:
                continue
            assert w.global_min_cut(g).value == w.brute_force_min_cut(g).value
            checked += 1

    def test_structured_families(self):
        for n in range(2, 11):
            for edges in (clique_edges(n), path_edges(n), cycle_edges(n), star_edges(n)):
                if not edges:
                    continue
                g = graph_of(n, edges)
                assert w.global_min_cut(g).value == brute_cut_value(g)


class TestInvariants:
    def _witness_ok(self, g: w.Graph, cut: w.CutResult):
        assert 1 <= cut.value <= int(g.degrees().min())
        assert cut.side[0]
        a = cut.side_a()
        b = cut.side_b()
        assert a.size > 0 and b.size > 0
        # crossing edges count equals the value
        u, v = g.edge_arrays()
        crossing = int(np.count_nonzero(cut.side[u] != cut.side[v]))
        assert crossing == cut.value
        # removing exactly the crossing edges disconnects into the two sides
        kept = [(x, y) for x, y in zip(u.tolist(), v.tolist()) if cut.side[x] == cut.side[y]]
        g2 = w.Graph.from_edges(g.n, kept)
        comp_label = {}
        for i, comp in enumerate(w.connected_components(g2)):
            for node in comp.tolist():
                comp_label[node] = i
        for side_nodes in (a, b):
            labels = {comp_label[x] for x in side_nodes.tolist()}
            for other in (b if side_nodes is a else a).tolist():
                assert comp_label[other] not in labels

    def test_witness_validity(self):
        rng = random.Random(33)
        checked = 0
        while checked < 60:
            g = random_connected_graph(rng, rng.randint(2, 14), rng.uniform(0.2, 0.8))
            if g is None:
                continue
            self._witness_ok(g, w.global_min_cut(g))
            checked += 1

    def test_determinism(self):
        rng = random.Random(44)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 14), 0.5)
            if g is None:
                continue
            first = w.global_min_cut(g)
            for _ in range(3):
                again = w.global_min_cut(g)
                assert again == first

    def test_brute_force_lexicographic_tie_break(self):
        # path 0-1-2-3 has min cuts {0},{0,1},{0,1,2}; (0,) is lex-smallest
        g = graph_of(4, path_edges(4))
        cut = w.brute_force_min_cut(g)
        assert cut.value == 1
        assert cut.side_a().tolist() == [0]

    def test_min_degree_one_early_exit_side(self):
        # lowest-index degree-1 vertex becomes the singleton side
        g = graph_of(5, [(0, 1), (1, 2), (2, 3), (3, 1), (2, 4)])
        cut = w.global_min_cut(g)
        assert cut.value == 1
        assert sorted([cut.side_a().size, cut.side_b().size]) == [1, 4]
        singleton = cut.side_a() if cut.side_a().size == 1 else cut.side_b()
        assert singleton.tolist() == [0]


def edmonds_karp_min_cut(g: w.Graph) -> int:
    """Independent oracle: min over t of max-flow(0, t) with unit capacities."""
    from collections import deque

    n = g.n
    best = None
    base = {}
    for u, v in edges_of(g):
        base[(u, v)] = 1
        base[(v, u)] = 1
    for t in range(1, n):
        cap = dict(base)
        flow = 0
        while True:
            parent = {0: None}
            queue = deque([0])
            while queue and t not in parent:
                x = queue.popleft()
                for y in g.neighbors(x).tolist():
                    if y not in parent and cap.get((x, y), 0) > 0:
                        parent[y] = x
                        queue.append(y)
            if t not in parent:
                break
            y = t
            while parent[y] is not None:
                x = parent[y]
                cap[(x, y)] -= 1
                cap[(y, x)] = cap.get((y, x), 0) + 1
                y = x
            flow += 1
        if best is None or flow < best:
            best = flow
    return best


class TestAdversarialFamilies:
    """Closed-form connectivities that exercise the contraction machinery."""

    def test_circulants_are_maximally_edge_connected(self):
        # connected vertex-transitive graphs satisfy cut = degree
        for n, k in ((20, 2), (50, 3), (120, 3), (75, 4)):
            edges = [
                (i, (i + d) % n) for i in range(n) for d in range(1, k + 1)
            ]
            g = graph_of(n, edges)
            assert w.global_min_cut(g).value == 2 * k, (n, k)

    def test_hypercubes(self):
        for d in (3, 4, 6):
            n = 1 << d
            edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(d)]
            g = graph_of(n, edges)
            assert w.global_min_cut(g).value == d

    def test_complete_bipartite(self):
        for a, b in ((2, 5), (4, 4), (3, 30)):
            edges = [(i, a + j) for i in range(a) for j in range(b)]
            g = graph_of(a + b, edges)
            assert w.global_min_cut(g).value == min(a, b)

    def test_grids(self):
        for rows, cols in ((2, 2), (3, 7), (6, 6)):
            def node(r, c):
                return r * cols + c
            edges = []
            for r in range(rows):
                for c in range(cols):
                    if c + 1 < cols:
                        edges.append((node(r, c), node(r, c + 1)))
                    if r + 1 < rows:
                        edges.append((node(r, c), node(r + 1, c)))
            g = graph_of(rows * cols, edges)
            assert w.global_min_cut(g).value == 2

    def test_multi_bridge_barbells(self):
        for s, bridges in ((6, 2), (8, 3), (12, 5)):
            g = two_cliques(s, bridges=bridges)
            cut = w.global_min_cut(g)
            assert cut.value == bridges
            sides = {frozenset(cut.side_a().tolist()), frozenset(cut.side_b().tolist())}
            assert sides == {frozenset(range(s)), frozenset(range(s, 2 * s))}

    def test_matches_flow_oracle_mid_size(self):
        rng = random.Random(202)
        checked = 0
        while checked < 25:
            n = rng.randint(16, 40)
            g = random_connected_graph(rng, n, rng.uniform(0.12, 0.35))
            if g is None:
                continue
            assert w.global_min_cut(g).value == edmonds_karp_min_cut(g)
            checked += 1

    def test_clique_chain_with_weak_link(self):
        # chain of cliques where one inner joint is the unique weakest cut
        sizes = [8, 8, 8, 8]
        edges = []
        offsets = []
        base = 0
        for s in sizes:
            offsets.append(base)
            edges.extend(clique_edges(s, offset=base))
            base += s
        # strong joins (3 edges) everywhere except one single-edge joint
        joins = [3, 1, 3]
        for idx, width in enumerate(joins):
            a, b = offsets[idx], offsets[idx + 1]
            for t in range(width):
                edges.append((a + t, b + t))
        g = graph_of(base, edges)
        cut = w.global_min_cut(g)
        assert cut.value == 1
        assert {cut.side_a().size, cut.side_b().size} == {16}


def clique_chain(s: int, k: int, bridges: int) -> w.Graph:
    """k cliques of size s in a path, neighbours joined by `bridges` edges."""
    edges = []
    for c in range(k):
        edges += clique_edges(s, offset=c * s)
        if c:
            edges += [((c - 1) * s + t, c * s + s - 1 - t) for t in range(bridges)]
    return graph_of(s * k, edges)


def tied_min_cut_instances() -> dict[str, w.Graph]:
    """Seeded graphs with many minimum cuts of equal value."""
    out = {}
    for n in (5, 12, 40):
        out[f"cycle-{n}"] = graph_of(n, cycle_edges(n))
    for n, k in ((20, 2), (31, 3), (64, 4)):
        out[f"circulant-{n}-{k}"] = graph_of(
            n, [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)]
        )
    for d in (3, 4, 6):
        out[f"hypercube-{d}"] = graph_of(
            1 << d, [(x, x ^ (1 << b)) for x in range(1 << d) for b in range(d)]
        )
    out["barbell-3"] = two_cliques(3, bridges=2)
    out["barbell-6"] = two_cliques(6, bridges=2)
    out["chain-5x3"] = clique_chain(5, 3, 2)
    out["chain-4x4"] = clique_chain(4, 4, 2)
    for k, s, b in ((4, 6, 1), (5, 5, 2), (6, 8, 2)):
        out[f"clique-ring-{k}x{s}-{b}"] = w.generate(
            w.GadgetSpec(kind="bridged-cliques", num_cliques=k, clique_size=s, bridges=b)
        )[0]
    planted = [("planted-whole", (30, 30, 30, 30), 0.5, 0.002, (1, 2, 3, 4)),
               ("planted-cluster", (90,), 0.2, 0.0, (1, 2, 3))]
    for name, sizes, p_in, p_out, seeds in planted:
        for seed in seeds:
            g, _ = w.generate(w.GadgetSpec(
                kind="planted-partition-lite", sizes=sizes, p_in=p_in, p_out=p_out,
                seed=seed,
            ))
            comp = max(w.connected_components(g), key=len)
            out[f"{name}-{seed}"] = w.induced_subgraph(g, comp)[0]
    return out


# (value, sha256 of side.tobytes()) of global_min_cut on each instance
WITNESS_PINS = {
    "cycle-5": (2, "957b88b12730e646e0f33d3618b77dfa579e8231e3c59c7104be7165611c8027"),
    "cycle-12": (2, "ca888f40c3caca805b37a5434c75de5550616e0795e7602fb91156f22dd90851"),
    "cycle-40": (2, "b68f593141969cfeddf2011667ccdca92d2d22b414194bdf4ccbaa2833c85be2"),
    "circulant-20-2": (4, "21fc3f955c14305ed66b2f6064de082e8447f29048da3ab7c5c01090c1b722ab"),
    "circulant-31-3": (6, "bdc3fafe93e6c473f44c7383a8681d8991fe71ec20ee172df82a527c8da61f0f"),
    "circulant-64-4": (8, "16abab341fb7f370e27e4dadcf81766dd0dfd0ae64469477bb2cf6614938b2af"),
    "hypercube-3": (3, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
    "hypercube-4": (4, "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
    "hypercube-6": (6, "16abab341fb7f370e27e4dadcf81766dd0dfd0ae64469477bb2cf6614938b2af"),
    "barbell-3": (2, "f7e597afd62bfc19e1d8508dff6d71532383d3ffbf8924db91c2dad2bdeb87e9"),
    "barbell-6": (2, "c35057aa26e65757df8a61107878f41f6d15b33cec882716405d8befa82d456b"),
    "chain-5x3": (2, "5c59273e35591c13df20304c9725cf58423e5d10597b0c1690bde4f52c32eb76"),
    "chain-4x4": (2, "4b0ebea5afb86afbadf12eedc5c56e680f4946e61efe94ad358b6ff89ea5fec7"),
    "clique-ring-4x6-1": (2, "cc510c409ffcac17397bc283a924ebf0a0cd3d0898fe3a036537b503ade74f03"),
    "clique-ring-5x5-2": (4, "4f3efbbc85f6f531b5cbd3c6f3bbfff6ab93828ca66fdeefd819ebd3b3137c4c"),
    "clique-ring-6x8-2": (4, "13a0f8f794a414de72179a7c29ba20a428666801c30aeaae2fc9d935c0c6b3b9"),
    "planted-whole-1": (2, "617a882ec2e8a3d09ed3fb421c3668052da9f446e15681b3b9039b3354c54fa0"),
    "planted-whole-2": (5, "617a882ec2e8a3d09ed3fb421c3668052da9f446e15681b3b9039b3354c54fa0"),
    "planted-whole-3": (3, "617a882ec2e8a3d09ed3fb421c3668052da9f446e15681b3b9039b3354c54fa0"),
    "planted-whole-4": (2, "e141bba4bf706a73679ba9a0de146a875def19df19a1940f6fdfb325034254ca"),
    "planted-cluster-1": (6, "15e925b5ab0df9354d42165e7280509e64c9ecde658aa752f0f457f61f8d02f8"),
    "planted-cluster-2": (9, "b2b08e58385771112bd15f8eb38378c1ab20e60de85fa83de13b6d416d87615b"),
    "planted-cluster-3": (9, "6cd602f6b5335b8ff9ed71bbd1422fe31a5e3e4d2028b4128d225a54489ed993"),
}


class TestWitnessPins:
    """The witness chosen among tied minimum cuts never drifts.

    A change in tie-breaking picks another side of the same value, which
    changes treat's output bytes while every value test still passes.
    """

    def test_tied_instances_pinned(self):
        got = {}
        for name, g in tied_min_cut_instances().items():
            cut = w.global_min_cut(g)
            got[name] = (cut.value, hashlib.sha256(cut.side.tobytes()).hexdigest())
        assert got == WITNESS_PINS


def random_cycles_edges(rng: np.random.Generator, nodes, rounds: int) -> list:
    """Union of `rounds` random Hamiltonian cycles: connected, near-regular."""
    edges = []
    for _ in range(rounds):
        perm = rng.permutation(np.asarray(nodes)).tolist()
        edges += zip(perm, perm[1:] + perm[:1])
    return edges


def circulant_edges(nodes: list, jumps) -> list:
    n = len(nodes)
    return [(nodes[i], nodes[(i + d) % n]) for i in range(n) for d in jumps]


def differential_graph(family: str, n: int, seed: int) -> tuple[w.Graph, int | None]:
    """A connected graph of the family, and its min cut where the family fixes it."""
    rng = np.random.default_rng(seed)
    if family == "circulant":
        jumps = {1, *rng.integers(2, min(n // 2, 20), size=int(rng.integers(0, 4))).tolist()}
        return graph_of(n, circulant_edges(rng.permutation(n).tolist(), jumps)), None
    if family == "planted":
        blocks = np.array_split(np.arange(n), int(rng.integers(2, 6)))
        edges = []
        for block in blocks:
            edges += random_cycles_edges(rng, block, int(rng.integers(2, 5)))
        for a, b in zip(blocks, blocks[1:] + blocks[:1]):
            for _ in range(int(rng.integers(1, 7))):
                edges.append((int(rng.choice(a)), int(rng.choice(b))))
        return graph_of(n, edges), None
    # two blocks joined by k edges with distinct endpoints
    half = n // 2
    k = int(rng.integers(1, 5))
    if family == "barbell":
        rounds = int(rng.integers(2, 5))
        edges = random_cycles_edges(rng, range(half), rounds)
        edges += random_cycles_edges(rng, range(half, n), rounds)
    else:
        # at-bound: circulant blocks of connectivity 2k + 2, so the k bridges
        # are the only minimum cut
        jumps = range(1, k + 2)
        edges = circulant_edges(rng.permutation(half).tolist(), jumps)
        edges += circulant_edges((half + rng.permutation(n - half)).tolist(), jumps)
    left = rng.choice(half, size=k, replace=False).tolist()
    right = (half + rng.choice(n - half, size=k, replace=False)).tolist()
    edges += zip(left, right)
    return graph_of(n, edges), (k if family == "at-bound" else None)


class TestDifferentialStoerWagner:
    """global_min_cut against networkx's Stoer-Wagner, an independent solver."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["barbell", "circulant", "planted", "at-bound"]),
        n=st.integers(50, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_networkx(self, family, n, seed):
        nx = pytest.importorskip("networkx")
        g, known = differential_graph(family, n, seed)
        u, v = g.edge_arrays()
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(zip(u.tolist(), v.tolist()))
        expected, _ = nx.stoer_wagner(ref)
        cut = w.global_min_cut(g)
        assert cut.value == expected
        assert cut.side[0] and not cut.side.all()
        assert int(np.count_nonzero(cut.side[u] != cut.side[v])) == cut.value
        if known is not None:
            # a cut equal to the bound is not above it: wcc splits at the bridges
            assert cut.value == known
            whole = w.Clustering.from_assignment(np.zeros(g.n, np.int64))
            out, _ = w.wcc_treatment(g, whole, w.ThresholdSpec("constant", float(known)))
            half = g.n // 2
            assert [c.tolist() for c in out.clusters] == [
                list(range(half)), list(range(half, g.n))
            ]
