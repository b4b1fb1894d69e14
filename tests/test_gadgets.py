"""Synthetic gadget generators: structure, determinism, validation."""

import numpy as np
import pytest

import wellconn as w
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
