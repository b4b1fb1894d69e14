"""CC, WCC, and CM treatments: examples, invariants, reference equivalence."""

import hashlib
import logging
import os
import random
import sys

import numpy as np
import pytest

import wellconn as w
from wellconn import _engine, treatments
from wellconn.cli import main
from conftest import (
    assert_valid_partition,
    clique_edges,
    count_forks,
    graph_of,
    random_clustering,
    random_graph_any,
    reference_cc,
    reference_wcc,
    two_cliques,
)


def one_cluster(g: w.Graph) -> w.Clustering:
    return w.Clustering.from_assignment(np.zeros(g.n, np.int64))


class TestCC:
    def test_disconnected_cluster_splits(self):
        g = two_cliques(5, bridges=0)
        out = w.cc_treatment(g, one_cluster(g))
        assert [len(c) for c in out.clusters] == [5, 5]

    def test_connected_cluster_unchanged(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)])
        c = one_cluster(g)
        assert w.cc_treatment(g, c) == c

    def test_internally_isolated_node_becomes_singleton(self):
        # node 5 has no neighbors inside its cluster
        g = graph_of(6, clique_edges(5))
        c = one_cluster(g)
        out = w.cc_treatment(g, c)
        assert sorted(len(x) for x in out.clusters) == [1, 5]
        assert w.node_coverage(out) == w.node_coverage(c) - 100.0 / 6

    def test_matches_reference(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_graph_any(rng, rng.randint(2, 40), rng.uniform(0.05, 0.4))
            c = random_clustering(rng, g.n, kmax=6)
            expected = reference_cc(g, c)
            out, trace = w.cc_treatment_with_trace(g, c)
            assert out == expected
            # cc shares the wcc engine, so its trace is counted independently
            splits = sum(
                len(w.connected_components(w.induced_subgraph(g, members)[0])) > 1
                for members in c.clusters
            )
            assert trace.components_splits == splits
            assert trace.max_recursion_depth == (1 if splits else 0)
            assert trace.cuts_performed == 0
            assert trace.clusters_in == c.num_clusters
            assert trace.clusters_out == expected.num_clusters

    def test_no_cluster_runs_a_split_queue(self, threshold, monkeypatch):
        # the first split settles cc, and wcc of clusters under 10 nodes, whose
        # bound 1log10 is below any cut
        def split_queue(*args):
            raise AssertionError("a cluster ran its split queue")

        monkeypatch.setattr(treatments, "_process_cluster", split_queue)
        rng = random.Random(11)
        g = random_graph_any(rng, 80, 0.1)
        c = w.Clustering.from_assignment(np.arange(g.n) // 9)
        expected = reference_cc(g, c)
        for processes in (1, 2):
            assert w.cc_treatment(g, c, processes=processes) == expected
            assert w.wcc_treatment(g, c, threshold, processes=processes)[0] == expected

    def test_idempotent(self):
        rng = random.Random(10)
        for _ in range(15):
            g = random_graph_any(rng, rng.randint(2, 40), 0.15)
            c = random_clustering(rng, g.n, kmax=5)
            once = w.cc_treatment(g, c)
            assert w.cc_treatment(g, once) == once


class TestWCC:
    def test_two_k10_bridge_splits_into_cliques(self, threshold):
        g = two_cliques(10, bridges=1)
        out, trace = w.wcc_treatment(g, one_cluster(g), threshold)
        assert [sorted(c.tolist()) for c in out.clusters] == [
            list(range(10)),
            list(range(10, 20)),
        ]
        assert trace.cuts_performed == 1
        assert trace.clusters_out == 2

    def test_k10_unchanged(self, threshold):
        g = graph_of(10, clique_edges(10))
        c = one_cluster(g)
        out, trace = w.wcc_treatment(g, c, threshold)
        assert out == c
        assert trace.cuts_performed == 0

    def test_all_singletons_unchanged(self, threshold):
        g = graph_of(5, [(0, 1), (2, 3)])
        c = w.Clustering.from_assignment(range(5))
        out, _ = w.wcc_treatment(g, c, threshold)
        assert out == c

    def test_postcondition_well_connected(self, threshold):
        rng = random.Random(77)
        for _ in range(20):
            g = random_graph_any(rng, rng.randint(2, 70), rng.uniform(0.05, 0.3))
            c = random_clustering(rng, g.n, kmax=6)
            out, _ = w.wcc_treatment(g, c, threshold)
            assert_valid_partition(out, g.n)
            for members in out.clusters:
                if len(members) < 2:
                    continue
                sub, _ = w.induced_subgraph(g, members)
                assert len(w.connected_components(sub)) == 1
                cut = w.global_min_cut(sub)
                assert w.is_well_connected(cut.value, len(members), threshold)

    def test_matches_reference_engine(self, threshold):
        rng = random.Random(123)
        for _ in range(12):
            g = random_graph_any(rng, rng.randint(2, 60), rng.uniform(0.06, 0.35))
            c = random_clustering(rng, g.n, kmax=5)
            fast = w.wcc_treatment(g, c, threshold)[0]
            slow = reference_wcc(g, c, threshold)
            assert fast == slow

    def test_matches_reference_constant_threshold(self):
        rng = random.Random(321)
        t = w.ThresholdSpec.parse("2")
        for _ in range(8):
            g = random_graph_any(rng, rng.randint(2, 40), 0.2)
            c = random_clustering(rng, g.n, kmax=4)
            assert w.wcc_treatment(g, c, t)[0] == reference_wcc(g, c, t)

    def test_idempotent(self, threshold):
        rng = random.Random(5)
        for _ in range(12):
            g = random_graph_any(rng, rng.randint(2, 50), 0.15)
            c = random_clustering(rng, g.n, kmax=5)
            once, _ = w.wcc_treatment(g, c, threshold)
            twice, trace = w.wcc_treatment(g, once, threshold)
            assert twice == once
            assert trace.cuts_performed == 0

    def test_refinement_chain_and_coverage(self, threshold):
        rng = random.Random(6)
        for _ in range(15):
            g = random_graph_any(rng, rng.randint(2, 60), rng.uniform(0.05, 0.3))
            c = random_clustering(rng, g.n, kmax=6)
            cc_out = w.cc_treatment(g, c)
            wcc_out, trace = w.wcc_treatment(g, c, threshold)
            assert w.is_refinement(cc_out, c)
            assert w.is_refinement(wcc_out, cc_out)
            assert w.node_coverage(wcc_out) <= w.node_coverage(cc_out) + 1e-12
            assert w.node_coverage(cc_out) <= w.node_coverage(c) + 1e-12
            assert trace.clusters_out >= trace.clusters_in

    def test_constant_threshold_postcondition(self):
        t = w.ThresholdSpec.parse("5")
        rng = random.Random(55)
        for _ in range(8):
            g = random_graph_any(rng, rng.randint(5, 60), 0.3)
            c = random_clustering(rng, g.n, kmax=3)
            out, _ = w.wcc_treatment(g, c, t)
            for members in out.clusters:
                if len(members) < 2:
                    continue
                sub, _ = w.induced_subgraph(g, members)
                assert w.global_min_cut(sub).value > 5

    def test_connectivity_only_equals_cc(self):
        t = w.ThresholdSpec.parse("connectivity")
        rng = random.Random(8)
        for _ in range(10):
            g = random_graph_any(rng, rng.randint(2, 50), 0.12)
            c = random_clustering(rng, g.n, kmax=5)
            out, _ = w.wcc_treatment(g, c, t)
            assert out == w.cc_treatment(g, c)

    def test_parallel_matches_serial(self, threshold, forks):
        rng = random.Random(99)
        g = random_graph_any(rng, 120, 0.08)
        # the second input has fewer clusters than workers; the third is so
        # sparse that its four clusters split into hundreds of pieces
        sparse, truth = w.generate(w.GadgetSpec(
            kind="planted-partition-lite", sizes=(300, 300, 300, 300),
            p_in=0.008, p_out=0.0005, seed=5,
        ))
        assert w.wcc_treatment(sparse, truth, threshold)[1].clusters_out > 500
        inputs = [
            (g, random_clustering(rng, g.n, kmax=8)),
            (g, w.Clustering.from_assignment(np.arange(g.n) % 3)),
            (sparse, truth),
        ]
        for g, c in inputs:
            serial = w.wcc_treatment(g, c, threshold, processes=1)
            serial_cc = w.cc_treatment_with_trace(g, c)
            for processes in (2, 4):
                assert w.wcc_treatment(g, c, threshold, processes=processes) == serial
            assert w.cc_treatment_with_trace(g, c, processes=2) == serial_cc

    def test_workers_capped_at_cluster_count(self, threshold, forks, caplog):
        g = two_cliques(10, bridges=1)
        c = w.Clustering.from_assignment(np.repeat([0, 1], 10))
        serial = w.wcc_treatment(g, c, threshold)
        with caplog.at_level(logging.INFO, logger="wellconn"):
            assert w.wcc_treatment(g, c, threshold, processes=8) == serial
        assert len(forks) == 2
        # each clique's 90 entries and the bridge's two
        assert "mapped 2 clusters, 182 CSR entries, on 2 of 8 workers" in caplog.text

    def test_small_work_forks_no_worker(self, threshold, monkeypatch):
        # four clusters that split into hundreds of pieces, far below one
        # share of CSR entries: eight workers asked, none forked
        started = count_forks(monkeypatch)
        g, truth = w.generate(w.GadgetSpec(
            kind="planted-partition-lite", sizes=(300, 300, 300, 300),
            p_in=0.008, p_out=0.0005, seed=5,
        ))
        serial = w.wcc_treatment(g, truth, threshold)
        assert w.wcc_treatment(g, truth, threshold, processes=8) == serial
        report = w.connectivity_audit(g, truth, threshold)
        assert w.connectivity_audit(g, truth, threshold, processes=8) == report
        assert started == []

    def test_treated_file_pinned(self, tmp_path):
        # each input cluster is two planted blocks sharing few edges; the run
        # makes two exact cuts besides its peels. The digest pins the output
        # bytes: which side each cut and peel takes, which no value test sees.
        g, truth = w.generate(w.GadgetSpec(
            kind="planted-partition-lite", sizes=(40, 40, 60, 60, 80, 80),
            p_in=0.25, p_out=0.0008, seed=11,
        ))
        w.write_edgelist(g, tmp_path / "net.tsv")
        w.write_clustering(
            w.Clustering.from_assignment(truth.assignment // 2), g, tmp_path / "gt.tsv"
        )
        out = tmp_path / "out.tsv"
        assert main(
            ["treat", "--edgelist", str(tmp_path / "net.tsv"),
             "--existing-clustering", str(tmp_path / "gt.tsv"),
             "--mode", "wcc", "--threshold", "1log10", "--output-file", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c35a07b6c38ab905c4e7909756becc89beca0ea6ffba6c8456b78cf0d94b5e23"
        )


class TestCM:
    def test_identity_equals_wcc(self, threshold):
        rng = random.Random(42)
        for _ in range(10):
            g = random_graph_any(rng, rng.randint(2, 50), rng.uniform(0.05, 0.3))
            c = random_clustering(rng, g.n, kmax=5)
            wcc_out, wcc_trace = w.wcc_treatment(g, c, threshold)
            cm_out, cm_trace = w.cm_treatment(g, c, threshold, w.IdentityClusterer())
            assert cm_out == wcc_out
            assert cm_trace == wcc_trace

    def test_components_clusterer_on_gadget(self, threshold):
        g = two_cliques(10, bridges=1)
        c = one_cluster(g)
        out, _ = w.cm_treatment(g, c, threshold, w.ComponentsClusterer())
        assert out == w.wcc_treatment(g, c, threshold)[0]

    def test_k10_never_reclustered(self, threshold):
        g = graph_of(10, clique_edges(10))
        c = one_cluster(g)

        class Exploding:
            kind = "exploding"
            trivial_on_connected = False

            def cluster(self, graph):
                raise AssertionError("well-connected cluster must not be re-clustered")

        out, _ = w.cm_treatment(g, c, threshold, Exploding())
        assert out == c

    def test_reclustered_parts_end_well_connected(self, threshold):
        # a re-clusterer that splits each part by the parity of its local ids
        # returns disconnected clusters, which must be split again
        class Parity:
            trivial_on_connected = False

            def cluster(self, graph):
                return w.Clustering.from_assignment(np.arange(graph.n) % 2)

        rng = random.Random(12)
        for _ in range(15):
            g = random_graph_any(rng, rng.randint(2, 60), rng.uniform(0.05, 0.3))
            c = random_clustering(rng, g.n, kmax=4)
            out, _ = w.cm_treatment(g, c, threshold, Parity())
            assert_valid_partition(out, g.n)
            for members in out.clusters:
                if len(members) < 2:
                    continue
                sub, _ = w.induced_subgraph(g, members)
                assert len(w.connected_components(sub)) == 1
                cut = w.global_min_cut(sub)
                assert w.is_well_connected(cut.value, len(members), threshold)

    @pytest.mark.parametrize("produced, message", [
        (ValueError("no parts today"),
         "re-clustering failed on a part of 3 nodes: no parts today"),
        (w.Clustering.from_assignment([0, 0]),
         "re-clustering returned a non-partition (2 nodes for a 3-node part)"),
    ])
    def test_reclusterer_failure_names_the_input_cluster(self, threshold, produced, message):
        # cluster 0 is a triangle that passes; cluster 1 is two triangles,
        # whose parts go to the re-clusterer
        class Failing:
            trivial_on_connected = False

            def cluster(self, graph):
                if isinstance(produced, Exception):
                    raise produced
                return produced

        g = graph_of(9, clique_edges(3) + clique_edges(3, 3) + clique_edges(3, 6))
        c = w.Clustering.from_assignment([0, 0, 0, 1, 1, 1, 1, 1, 1])
        with pytest.raises(w.TreatmentError) as info:
            w.cm_treatment(g, c, threshold, Failing())
        assert type(info.value) is w.TreatmentError
        assert str(info.value) == f"cluster 1: {message}"

    def test_requires_clusterer(self, threshold):
        g = graph_of(3, [(0, 1), (1, 2)])
        with pytest.raises(w.ContractViolation):
            w.cm_treatment(g, one_cluster(g), threshold, None)

    def test_cm_identity_idempotent(self, threshold):
        rng = random.Random(4)
        g = random_graph_any(rng, 40, 0.12)
        c = random_clustering(rng, g.n, kmax=4)
        once, _ = w.cm_treatment(g, c, threshold, w.IdentityClusterer())
        twice, _ = w.cm_treatment(g, once, threshold, w.IdentityClusterer())
        assert twice == once


class TestExternalClusterer:
    def _script(self, tmp_path, body: str) -> str:
        path = tmp_path / "reclusterer.py"
        path.write_text(body)
        return f"{sys.executable} {path} {{input}} {{output}}"

    def test_external_identity_matches_wcc(self, tmp_path, threshold):
        # every node into one cluster: exactly the identity clusterer
        script = self._script(
            tmp_path,
            "import sys\n"
            "nodes = set()\n"
            "for line in open(sys.argv[1]):\n"
            "    a, b = line.split()\n"
            "    nodes.update((a, b))\n"
            "with open(sys.argv[2], 'w') as out:\n"
            "    for v in sorted(nodes):\n"
            "        out.write(f'{v}\\tall\\n')\n",
        )
        g = two_cliques(10, bridges=1)
        c = one_cluster(g)
        out, _ = w.cm_treatment(g, c, threshold, w.ExternalClusterer(script))
        assert out == w.wcc_treatment(g, c, threshold)[0]

    def test_external_omitted_nodes_become_singletons(self, tmp_path, threshold):
        # the command writes no assignments at all: every node becomes a
        # singleton after the first split, so the result is all singletons
        script = self._script(
            tmp_path,
            "import sys\nopen(sys.argv[2], 'w').close()\n",
        )
        g = two_cliques(10, bridges=1)
        out, _ = w.cm_treatment(g, one_cluster(g), threshold, w.ExternalClusterer(script))
        assert all(len(c) == 1 for c in out.clusters)

    def test_external_failure_raises(self, tmp_path, threshold):
        script = self._script(tmp_path, "import sys\nsys.exit(3)\n")
        g = two_cliques(10, bridges=1)
        with pytest.raises(w.ExternalClustererError):
            w.cm_treatment(g, one_cluster(g), threshold, w.ExternalClusterer(script))

    def test_external_foreign_labels_rejected(self, tmp_path, threshold):
        g = two_cliques(10, bridges=1)
        # foreign labels after a node of the part, the first of them not the
        # least, an empty token, a node assigned twice, a short line; {v} is
        # a node of the part
        for written, message in (
            ("{v}\tx\nzz\tx\naa\tx\n", "unknown node 'zz': not a partition"),
            ("{v}\t\n", "expected two tab-separated tokens"),
            ("{v}\tx\n{v}\ty\n", "conflicting clusters 'x' and 'y'"),
            ("{v}\n", "expected two tab-separated tokens"),
        ):
            script = self._script(
                tmp_path,
                "import sys\n"
                "v = open(sys.argv[1]).read().split()[0]\n"
                "with open(sys.argv[2], 'w') as out:\n"
                f"    out.write({written!r}.format(v=v))\n",
            )
            clusterer = w.ExternalClusterer(script)
            with pytest.raises(w.ExternalClustererError, match=message):
                w.cm_treatment(g, one_cluster(g), threshold, clusterer)

    def test_no_output_file_exits_2(self, tmp_path, capsys):
        script = self._script(tmp_path, "import sys\n")
        assert self._treat_two_triangles(tmp_path, f"external:{script}", "out.tsv") == 2
        err = capsys.readouterr().err
        assert err.startswith("wellconn: external clusterer failed: cluster 0: command ")
        assert err.rstrip().endswith("wrote no output file")

    @pytest.mark.parametrize("processes", [1, 2])
    def test_failure_names_the_input_cluster(self, tmp_path, capsys, processes):
        # four 6-cliques in a ring, clustered in two pairs; each cluster splits
        # at its bridge. The command fails on the parts of cluster 1 alone,
        # then on every part, where the lowest failing cluster is named
        g, _ = w.generate(w.GadgetSpec(
            kind="bridged-cliques", num_cliques=4, clique_size=6, bridges=1
        ))
        w.write_edgelist(g, tmp_path / "net.tsv")
        pairs = w.Clustering.from_assignment(np.arange(24) // 12)
        w.write_clustering(pairs, g, tmp_path / "pairs.tsv")
        for failing, named in (("{'12', '18'}", 1), ("labels", 0)):
            script = self._script(
                tmp_path,
                "import sys\n"
                "labels = set(open(sys.argv[1]).read().split())\n"
                f"if labels & {failing}:\n"
                "    sys.exit(3)\n"
                "with open(sys.argv[2], 'w') as out:\n"
                "    out.writelines(v + '\\tall\\n' for v in labels)\n",
            )
            capsys.readouterr()
            assert main(
                ["treat", "--edgelist", str(tmp_path / "net.tsv"),
                 "--existing-clustering", str(tmp_path / "pairs.tsv"),
                 "--mode", "cm", "--clusterer", f"external:{script}",
                 "--num-processors", str(processes),
                 "--output-file", str(tmp_path / "out.tsv")]
            ) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"wellconn: external clusterer failed: cluster {named}: command "
            )
            assert "exited 3" in err
            with pytest.raises(ChildProcessError):  # every worker was reaped
                os.waitpid(-1, os.WNOHANG)

    def _undecodable_stderr_script(self, tmp_path, code: int) -> str:
        # writes a byte that is not UTF-8 to stderr, then exits with `code`
        # or puts every node of its part into one cluster
        return self._script(
            tmp_path,
            "import sys\n"
            "sys.stderr.buffer.write(b'progress \\xe9\\n')\n"
            f"if {code}:\n"
            f"    sys.exit({code})\n"
            "labels = set(open(sys.argv[1]).read().split())\n"
            "with open(sys.argv[2], 'w') as out:\n"
            "    out.writelines(v + '\\tall\\n' for v in labels)\n",
        )

    def _treat_two_triangles(self, tmp_path, clusterer: str, out: str) -> int:
        # two triangles in one cluster: CM re-clusters each component
        g = two_cliques(3)
        w.write_edgelist(g, tmp_path / "net.tsv")
        w.write_clustering(one_cluster(g), g, tmp_path / "one.tsv")
        return main(
            ["treat", "--edgelist", str(tmp_path / "net.tsv"),
             "--existing-clustering", str(tmp_path / "one.tsv"),
             "--mode", "cm", "--clusterer", clusterer,
             "--output-file", str(tmp_path / out)]
        )

    def test_undecodable_stderr_of_a_success_is_ignored(self, tmp_path):
        script = self._undecodable_stderr_script(tmp_path, 0)
        assert self._treat_two_triangles(tmp_path, f"external:{script}", "ext.tsv") == 0
        assert self._treat_two_triangles(tmp_path, "identity", "identity.tsv") == 0
        ext = (tmp_path / "ext.tsv").read_bytes()
        assert ext == (tmp_path / "identity.tsv").read_bytes()

    def test_undecodable_stderr_of_a_failure_is_reported(self, tmp_path, capsys, threshold):
        script = self._undecodable_stderr_script(tmp_path, 3)
        g = two_cliques(3)
        clusterer = w.ExternalClusterer(script)
        with pytest.raises(w.ExternalClustererError, match="exited 3: progress \ufffd"):
            w.cm_treatment(g, one_cluster(g), threshold, clusterer)
        capsys.readouterr()
        assert self._treat_two_triangles(tmp_path, f"external:{script}", "ext.tsv") == 2
        err = capsys.readouterr().err
        assert err.startswith("wellconn: external clusterer failed: cluster 0: command ")
        assert "exited 3: progress \ufffd" in err

    def test_command_template_validation(self):
        with pytest.raises(w.ContractViolation):
            w.ExternalClusterer("sort")  # no placeholders
        with pytest.raises(w.ContractViolation):
            w.ExternalClusterer("")

    def test_parse_clusterer(self):
        assert type(w.parse_clusterer("identity")) is w.IdentityClusterer
        assert type(w.parse_clusterer("components")) is w.ComponentsClusterer
        ext = w.parse_clusterer("external:cmd --in {input} --out {output}")
        assert type(ext) is w.ExternalClusterer
        with pytest.raises(w.ContractViolation):
            w.parse_clusterer("bogus")


class TestTraces:
    def test_cc_trace_counts(self):
        g = two_cliques(5, bridges=0)
        _, trace = w.cc_treatment_with_trace(g, one_cluster(g))
        assert trace.components_splits == 1
        assert trace.cuts_performed == 0
        assert trace.clusters_in == 1
        assert trace.clusters_out == 2

    def test_wcc_trace_on_gadget(self, threshold):
        g = two_cliques(10, bridges=1)
        _, trace = w.wcc_treatment(g, one_cluster(g), threshold)
        assert trace.cuts_performed == 1
        assert trace.components_splits == 0
        assert trace.max_recursion_depth >= 1


def entries_of(indptr, adj, members):
    return int((indptr[members + 1] - indptr[members]).sum())


def cycle(n: int) -> w.Graph:
    """The cycle on n nodes, built as its CSR: 2n entries."""
    nodes = np.arange(n)
    adj = np.sort(np.stack([(nodes - 1) % n, (nodes + 1) % n], axis=1), axis=1)
    return w.Graph(np.arange(0, 2 * n + 1, 2), adj.ravel(), [str(v) for v in range(n)])


def test_workers_follow_the_entries(monkeypatch):
    # eight clusters of a cycle with just under and just over two shares of
    # CSR entries: one worker, then two, of the two asked
    started = count_forks(monkeypatch)
    for n, workers in ((_engine._SHARE - 1, 0), (_engine._SHARE + 1, 2)):
        g = cycle(n)
        c = w.Clustering.from_assignment(np.arange(n) * 8 // n)
        ids = np.arange(8)
        serial = _engine.map_clusters(g, c, ids, entries_of, (), 1)
        assert sum(serial) == 2 * n
        assert _engine.map_clusters(g, c, ids, entries_of, (), 2) == serial
        assert len(started) == workers
