"""Synthetic gadget generators: structure, determinism, validation."""

import hashlib

import numpy as np
import pytest

import wellconn as w
from wellconn import gadgets
from conftest import assert_valid_partition


class TestCliqueGadgets:
    def test_bridged_pair(self):
        g, gt = w.generate(
            w.GadgetSpec(kind="bridged-cliques", num_cliques=2, clique_size=10, bridges=1)
        )
        assert (g.n, g.m) == (20, 91)
        assert [sorted(c.tolist()) for c in gt.clusters] == [
            list(range(10)),
            list(range(10, 20)),
        ]
        cut = w.global_min_cut(g)
        assert cut.value == 1

    def test_clique_ring_disconnected(self):
        g, gt = w.generate(
            w.GadgetSpec(kind="clique-ring", num_cliques=5, clique_size=4, bridges=0)
        )
        assert (g.n, g.m) == (20, 5 * 6)
        comps = w.connected_components(g)
        assert [len(c) for c in comps] == [4] * 5
        assert gt.num_clusters == 5
        for comp, cluster in zip(comps, gt.clusters):
            assert comp.tolist() == cluster.tolist()

    def test_ring_with_bridges_connected(self):
        g, _ = w.generate(
            w.GadgetSpec(kind="clique-ring", num_cliques=4, clique_size=5, bridges=2)
        )
        assert len(w.connected_components(g)) == 1
        # 4 cliques of C(5,2)=10 edges plus 4 ring pairs x 2 bridges
        assert g.m == 4 * 10 + 4 * 2

    def test_degenerate_parameters(self):
        for spec in (
            w.GadgetSpec(kind="clique-ring", num_cliques=0, clique_size=4),
            w.GadgetSpec(kind="clique-ring", num_cliques=2, clique_size=0),
            w.GadgetSpec(kind="bridged-cliques", num_cliques=2, clique_size=3, bridges=4),
        ):
            with pytest.raises(w.ContractViolation):
                w.generate(spec)


class TestPlantedPartition:
    def test_valid_partition_and_sizes(self):
        spec = w.GadgetSpec(
            kind="planted-partition-lite",
            sizes=(30, 20, 10),
            p_in=0.4,
            p_out=0.01,
            seed=5,
        )
        g, gt = w.generate(spec)
        assert g.n == 60
        assert_valid_partition(gt, 60)
        assert sorted(len(c) for c in gt.clusters) == [10, 20, 30]

    def test_seed_determinism(self):
        spec = w.GadgetSpec(
            kind="planted-partition-lite", sizes=(50, 50), p_in=0.2, p_out=0.02, seed=9
        )
        g1, c1 = w.generate(spec)
        g2, c2 = w.generate(spec)
        assert g1.digest() == g2.digest()
        assert c1 == c2
        g3, _ = w.generate(
            w.GadgetSpec(
                kind="planted-partition-lite", sizes=(50, 50), p_in=0.2, p_out=0.02, seed=10
            )
        )
        assert g3.digest() != g1.digest()

    def test_large_cluster_sparse_path(self):
        # exercises the sparse sampling branch (> dense limit)
        spec = w.GadgetSpec(
            kind="planted-partition-lite",
            sizes=(3000, 100),
            p_in=0.002,
            p_out=0.00002,
            seed=3,
        )
        g, gt = w.generate(spec)
        assert g.n == 3100
        assert_valid_partition(gt, g.n)
        assert g.m > 0
        g2, _ = w.generate(spec)
        assert g2.digest() == g.digest()

    def test_p_extremes(self):
        g, _ = w.generate(
            w.GadgetSpec(kind="planted-partition-lite", sizes=(5, 5), p_in=1.0, p_out=0.0, seed=0)
        )
        assert g.m == 2 * 10
        g2, _ = w.generate(
            w.GadgetSpec(kind="planted-partition-lite", sizes=(5, 5), p_in=0.0, p_out=0.0, seed=0)
        )
        assert g2.m == 0

    def test_parameter_validation(self):
        with pytest.raises(w.ContractViolation):
            w.generate(w.GadgetSpec(kind="planted-partition-lite", sizes=(), p_in=0.5))
        with pytest.raises(w.ContractViolation):
            w.generate(
                w.GadgetSpec(kind="planted-partition-lite", sizes=(3,), p_in=1.5)
            )


class TestGnp:
    def test_empty(self):
        g, gt = w.generate(w.GadgetSpec(kind="random-gnp", n=0, p=0.5))
        assert (g.n, g.m) == (0, 0)
        assert gt.num_clusters == 0

    def test_determinism(self):
        spec = w.GadgetSpec(kind="random-gnp", n=200, p=0.05, seed=11)
        g1, _ = w.generate(spec)
        g2, _ = w.generate(spec)
        assert g1.digest() == g2.digest()

    def test_full_density(self):
        g, _ = w.generate(w.GadgetSpec(kind="random-gnp", n=12, p=1.0, seed=0))
        assert g.m == 66

    def test_unknown_kind(self):
        with pytest.raises(w.ContractViolation):
            w.generate(w.GadgetSpec(kind="mystery"))


class TestParseSizes:
    def test_grammar(self):
        assert w.parse_sizes("200x3,10") == (200, 200, 200, 10)
        assert w.parse_sizes("5") == (5,)

    def test_rejects_bad_chunks(self):
        for bad in ("", "0x3", "10x0", "x", "axb", "5x", "abc"):
            with pytest.raises(w.ContractViolation):
                w.parse_sizes(bad)


# Recorded from the generator before its samplers were merged into one:
# every sampling regime must keep its bytes.
SAMPLING_PINS = [
    # n <= 2048: every pair enumerated
    pytest.param(
        dict(kind="planted-partition-lite", sizes=(30, 20, 10), p_in=0.4, p_out=0.01, seed=5),
        "10e3b7a3f5d250ff389a08d20392f1e8edb8a3b5dacd457a7cfe8d2054305232",
        "84e52398c2654945a9eddb8af108b0566567d1ea54ff8ff17fb4e389208d95af",
        id="dense",
    ),
    # small blocks, cross edges drawn among n > 2048
    pytest.param(
        dict(kind="planted-partition-lite", sizes=(100,) * 25, p_in=0.05, p_out=0.001, seed=7),
        "62c070a134e030b3f75ee8bcc5587d6deabe516fd341d9b4a1ae0c2093d7990a",
        "c355757bf7c642e6925f499a23387cac7e779b44eda1550a257c740add7fee76",
        id="sparse-cross",
    ),
    # one block above 2048 drawn in batches
    pytest.param(
        dict(kind="planted-partition-lite", sizes=(3000, 100), p_in=0.002, p_out=0.00002, seed=3),
        "e7b33e8c5117c5b3b98bdf0435ca4be32022e4e04a913f2d9f09eebca3c970e3",
        "a8e062f3fffc659c64eb3ed01fad95b40d7b35d456d53966bcb7efa091e48a2a",
        id="sparse-internal",
    ),
    pytest.param(
        dict(kind="random-gnp", n=200, p=0.05, seed=11),
        "6657c9c8e7c62be730333a96be1ea1b5f4a059effe4d86e449a4f15bff2eb1c2",
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
        id="gnp-dense",
    ),
    pytest.param(
        dict(kind="random-gnp", n=5000, p=0.002, seed=2026),
        "b47e20af8aba4fb3f27afb2c6a01a599cfbbdf0c98a65ccdb15870405a60842d",
        "e7e2dcff542de95352682dc186432e98f0188084896773f1973276b0577d5305",
        id="gnp-sparse",
    ),
    # duplicates force several batches
    pytest.param(
        dict(kind="random-gnp", n=2049, p=0.6, seed=1),
        "c1bb066127dd3e414efb4bfa8df93e00150a7647b89316b205009b662fada7d7",
        "f3e70dac36eb1b853d669f00f457c97c2f37cb5d8ae245305d05d661439365a7",
        id="gnp-multi-batch",
    ),
    pytest.param(
        dict(kind="planted-partition-lite", sizes=(5, 5), p_in=0.0, p_out=0.0, seed=0),
        "9c650fc2e807619d57ab76c9c23e3e75e23cc42b673caa8d00fcc839ee4b8043",
        "23ebc865e5eee5c9c3cd23c9791d8fabdbbf2ab95b6241b3d6b6ef14be0808bb",
        id="p-zero",
    ),
    pytest.param(
        dict(kind="planted-partition-lite", sizes=(5, 5), p_in=1.0, p_out=1.0, seed=0),
        "3a852d87c46185d5e5034cfce72edf95465bdff033000c9b31cc999c98b64292",
        "23ebc865e5eee5c9c3cd23c9791d8fabdbbf2ab95b6241b3d6b6ef14be0808bb",
        id="p-one",
    ),
    pytest.param(
        dict(kind="random-gnp", n=12, p=1.0, seed=0),
        "8d3331961b1f6dd478c90fbfdd399eee16dd5d2074877e7039884db738b46029",
        "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
        id="gnp-p-one",
    ),
    pytest.param(
        dict(kind="random-gnp", n=1, p=0.5, seed=0),
        "77367f403894881d92304c8dd3cab53536de482e581ee42c094deb83eb5f42bf",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        id="gnp-n-one",
    ),
]


@pytest.mark.parametrize("spec, graph_sha, assignment_sha", SAMPLING_PINS)
def test_sampling_regimes_pinned(spec, graph_sha, assignment_sha):
    g, gt = w.generate(w.GadgetSpec(**spec))
    assert g.digest() == graph_sha
    assert hashlib.sha256(gt.assignment.tobytes()).hexdigest() == assignment_sha


def _sample_pairs_reference(rng, n, count, accept):
    """The per-key `set` loop the vectorized sparse sampler replaced."""
    have: set[int] = set()
    keys_in_order: list[int] = []
    remaining = count
    while remaining > 0:
        batch = max(int(remaining * 1.3) + 16, 64)
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        ok = u != v
        u, v = u[ok], v[ok]
        if accept is not None:
            ok = accept(u, v)
            u, v = u[ok], v[ok]
        for key in (np.minimum(u, v) * n + np.maximum(u, v)).tolist():
            if key not in have:
                have.add(key)
                keys_in_order.append(key)
                remaining -= 1
                if remaining == 0:
                    break
    return np.asarray(keys_in_order, dtype=np.int64)


def test_sparse_sampler_matches_set_loop():
    r = np.random.default_rng(17)
    for case in range(12):
        kind = case % 3
        n = int(r.integers(2049, 6000 if kind < 2 else 2600))
        block = np.arange(n) // 40
        if kind == 0:
            accept, pool = None, n * (n - 1) // 2
        elif kind == 1:
            accept = lambda u, v: block[u] != block[v]  # noqa: E731
            pool = n * (n - 1) // 2 - int((np.bincount(block) ** 2).sum() - n) // 2
        else:
            # duplicate-heavy: few accepted pairs, most of them wanted
            accept = lambda u, v: u % 64 == v % 64  # noqa: E731
            k = np.bincount(np.arange(n) % 64)
            pool = int((k * (k - 1) // 2).sum())
        count = int(
            r.integers(1, 30000) if kind < 2 else r.integers(pool // 2, pool * 9 // 10)
        )
        assert count <= pool  # else neither sampler could finish
        seed = int(r.integers(0, 2**32))
        expected = _sample_pairs_reference(
            np.random.default_rng(seed), n, count, accept
        )
        got = gadgets._sample_pairs(np.random.default_rng(seed), n, count, accept)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), (n, count, kind)
