"""Acceptance criteria, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 8 carries one
sub-assertion (the fixed ARI example) that is arithmetically inconsistent
with the permutation-model definition the rest of the criterion requires;
it is asserted as stated and fails; see README for the analysis.
Everything else passes.
"""

import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import wellconn as w
from conftest import enumerate_tables, pair_count_ari, wellconn_env
from wellconn.cli import main


def clustering_to_text(c: w.Clustering, g: w.Graph) -> str:
    buf = io.StringIO()
    w.write_clustering(c, g, buf)
    return buf.getvalue()


@contextmanager
def record(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS", flush=True)


def corpus_instance(seed: int, n_max: int = 200):
    """Seeded G(n, p) plus a random clustering of 1-20 clusters."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    p = rng.uniform(1.2 / n, 0.15)
    g, _ = w.generate(w.GadgetSpec(kind="random-gnp", n=n, p=p, seed=seed))
    k = rng.randint(1, 20)
    clustering = w.Clustering.from_assignment(
        [rng.randrange(k) for _ in range(n)]
    )
    return g, clustering


THRESHOLD = w.ThresholdSpec.parse("1log10")


def test_criterion_1_wcc_postcondition():
    with record(1, "wcc postcondition on 200 seeded instances"):
        started = time.monotonic()
        for seed in range(200):
            g, clustering = corpus_instance(seed)
            treated, _ = w.wcc_treatment(g, clustering, THRESHOLD)
            report = w.connectivity_audit(g, treated, THRESHOLD)
            assert report.counts["disconnected"] == 0, f"seed {seed}"
            assert report.counts["poor"] == 0, f"seed {seed}"
        elapsed = time.monotonic() - started
        print(f"\n  [criterion 1] 200 instances in {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_2_mincut_oracle_equivalence():
    with record(2, "min-cut oracle equivalence on 500 seeded graphs"):
        rng = random.Random(20260810)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 12)
            p = rng.uniform(0.2, 0.9)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            ]
            g = w.Graph.from_edges(n, edges)
            if len(w.connected_components(g)) != 1:
                continue
            assert w.global_min_cut(g).value == w.brute_force_min_cut(g).value
            checked += 1


def test_criterion_3_cm_identity_equals_wcc():
    with record(3, "cm(identity) byte-identical to wcc on 100 seeded instances"):
        for seed in range(100):
            g, clustering = corpus_instance(seed + 1000, n_max=120)
            wcc_out, _ = w.wcc_treatment(g, clustering, THRESHOLD)
            cm_out, _ = w.cm_treatment(
                g, clustering, THRESHOLD, w.IdentityClusterer()
            )
            assert clustering_to_text(cm_out, g) == clustering_to_text(wcc_out, g)


def test_criterion_4_idempotence_and_refinement():
    with record(4, "idempotence, refinement chain, coverage ordering"):
        for seed in range(60):
            g, clustering = corpus_instance(seed + 5000, n_max=150)
            cc_out = w.cc_treatment(g, clustering)
            wcc_out, _ = w.wcc_treatment(g, clustering, THRESHOLD)
            assert w.cc_treatment(g, cc_out) == cc_out
            assert w.wcc_treatment(g, wcc_out, THRESHOLD)[0] == wcc_out
            assert w.is_refinement(cc_out, clustering)
            assert w.is_refinement(wcc_out, cc_out)
            assert (
                w.node_coverage(wcc_out)
                <= w.node_coverage(cc_out) + 1e-12
                <= w.node_coverage(clustering) + 2e-12
            )


def test_criterion_5_two_clique_gadget():
    with record(5, "bridged-cliques(2,10,1) splits into the two cliques"):
        g, _ = w.generate(
            w.GadgetSpec(
                kind="bridged-cliques", num_cliques=2, clique_size=10, bridges=1
            )
        )
        one = w.Clustering.from_assignment(np.zeros(20, np.int64))
        assert not w.is_well_connected(1, 20, THRESHOLD)  # 1 <= log10(20)
        treated, _ = w.wcc_treatment(g, one, THRESHOLD)
        assert [sorted(c.tolist()) for c in treated.clusters] == [
            list(range(10)),
            list(range(10, 20)),
        ]
        for members in treated.clusters:
            sub, _ = w.induced_subgraph(g, members)
            assert w.global_min_cut(sub).value == 9


def test_criterion_6_table_one_arithmetic():
    with record(6, "description-length component arithmetic"):
        untreated = w.DLComponents(699, 96, 147, 51, unit="k")
        treated = w.DLComponents(316, 45, 257, 1585, unit="k")
        assert w.compose_dl(untreated) == 993
        assert abs(w.compose_dl(treated) - 2202) <= 1
        diff = w.dl_diff(untreated, treated)
        assert diff.edge_counts == 1534
        assert diff.preference == "untreated"
        assert diff.preference_without_pe == "treated"
        assert diff.flipped is True


def test_criterion_7_edge_count_prior_properties():
    with record(7, "edge-count prior closed form and monotonicity"):
        for edges in (0, 1, 10**6):
            assert w.edge_count_prior_cost(1, edges) == 0.0
        for edges in (1, 100, 10**5):
            prev = w.edge_count_prior_cost(1, edges)
            for blocks in range(2, 10_001):
                cur = w.edge_count_prior_cost(blocks, edges)
                assert cur > prev, (blocks, edges)
                prev = cur
        for blocks in (2, 3, 10, 31, 100):
            for edges in (1, 10, 100, 1000, 10**4, 10**5):
                top = blocks * (blocks + 1) // 2 + edges - 1
                exact = math.log(math.comb(top, edges))
                assert w.edge_count_prior_cost(blocks, edges) == pytest.approx(
                    exact, rel=1e-9
                )
        # a cc split strictly increases the prior
        found = 0
        rng = random.Random(9)
        while found < 10:
            g, clustering = corpus_instance(rng.randint(0, 10**6), n_max=80)
            treated = w.cc_treatment(g, clustering)
            if g.m == 0 or treated.num_clusters == clustering.num_clusters:
                continue
            assert w.pe_for_clustering(g, treated) > w.pe_for_clustering(
                g, clustering
            )
            found += 1


def test_criterion_8a_ari_brute_force_oracle():
    with record(8, "ari equals brute-force pair counting (100 instances)"):
        rng = random.Random(88)
        for _ in range(100):
            n = rng.randint(2, 50)
            truth = w.Clustering.from_assignment(
                [rng.randrange(1, 7) for _ in range(n)]
            )
            est = w.Clustering.from_assignment(
                [rng.randrange(1, 7) for _ in range(n)]
            )
            expected = pair_count_ari(truth, est)
            assert abs(w.ari(truth, est) - float(expected)) < 1e-12


def test_criterion_8b_ari_fixed_example_as_stated():
    """This criterion's fixed example expects ARI({ab|cd},{ac|bd}) = -1/3,
    but the permutation-model adjustment the other sub-criteria require
    gives -1/2 (contingency all ones: Index=0, Exp=2*2/6, Max=2, hence
    (0 - 2/3)/(2 - 2/3) = -1/2; brute-force pair counting and scikit-learn
    agree). -1/3 is the multinomial-expectation variant's value, a
    different adjustment. The expectation is asserted verbatim rather than
    silently adjusted, so this one test fails; see README for the analysis.
    """
    with record(8, "ari fixed example equals -1/3 as printed (known inconsistency)"):
        truth = w.Clustering.from_assignment([0, 0, 1, 1])
        est = w.Clustering.from_assignment([0, 1, 0, 1])
        assert w.ari(truth, est) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_criterion_8c_identical_clusterings_score_one():
    with record(8, "nmi/ari/agri/normalized-rmi equal 1 on identical inputs"):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 40)
            g, _ = w.generate(
                w.GadgetSpec(kind="random-gnp", n=n, p=0.3, seed=rng.randint(0, 9999))
            )
            c = w.Clustering.from_assignment([rng.randrange(1, 5) for _ in range(n)])
            assert w.nmi(c, c) == pytest.approx(1.0)
            assert w.ari(c, c) == 1.0
            assert w.agri(g, c, c) == 1.0
            assert w.rmi(c, c, True) == pytest.approx(1.0)


def test_criterion_8d_agri_equals_ari_on_complete_graphs():
    with record(8, "agri equals ari on complete graphs"):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 35)
            g = w.Graph.from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n)]
            )
            a = w.Clustering.from_assignment([rng.randrange(1, 6) for _ in range(n)])
            b = w.Clustering.from_assignment([rng.randrange(1, 6) for _ in range(n)])
            assert abs(w.agri(g, a, b) - w.ari(a, b)) < 1e-12


def test_criterion_8e_rmi_table_count_matches_enumeration():
    with record(8, "rmi table-count term matches exhaustive enumeration"):
        from wellconn.metrics import count_tables

        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = w.Clustering.from_assignment([rng.randrange(1, 4) for _ in range(n)])
            b = w.Clustering.from_assignment([rng.randrange(1, 4) for _ in range(n)])
            rows = tuple(len(c) for c in a.clusters)
            cols = tuple(len(c) for c in b.clusters)
            assert count_tables(rows, cols) == enumerate_tables(
                list(rows), list(cols)
            )


# ---------------------------------------------------------------------------
# criterion 9: cli determinism


def _payload_bytes(path) -> bytes:
    doc = json.loads(path.read_text())
    return json.dumps(doc["payload"], sort_keys=True).encode()


def _run_cli(argv) -> int:
    return main([str(a) for a in argv])


def test_criterion_9_cli_determinism(tmp_path):
    with record(9, "cli payloads byte-identical across reruns and workers"):
        g, gt = w.generate(
            w.GadgetSpec(
                kind="planted-partition-lite",
                sizes=(40, 30, 30, 20, 10),
                p_in=0.3,
                p_out=0.02,
                seed=99,
            )
        )
        edgelist = tmp_path / "net.tsv"
        clustering = tmp_path / "gt.tsv"
        w.write_edgelist(g, edgelist)
        w.write_clustering(gt, g, clustering)
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        w.save_components(w.DLComponents(699, 96, 147, 51, unit="k"), before)
        w.save_components(w.DLComponents(316, 45, 257, 1585, unit="k"), after)

        # treat and audit across worker counts and reruns
        treat_payloads = set()
        treat_outputs = set()
        audit_payloads = set()
        for procs in (1, 4, 16, 1):
            out = tmp_path / f"treated-{len(treat_payloads)}-{procs}.tsv"
            assert _run_cli(
                ["treat", "--edgelist", edgelist, "--existing-clustering",
                 clustering, "--mode", "wcc", "--num-processors", procs,
                 "--output-file", out]
            ) == 0
            treat_outputs.add(out.read_bytes())
            treat_payloads.add(_payload_bytes(out.with_name(out.name + ".run.json")))
            rep = tmp_path / f"audit-{procs}.json"
            assert _run_cli(
                ["audit", "--edgelist", edgelist, "--clustering", clustering,
                 "--num-processors", procs, "--output", rep]
            ) == 0
            audit_payloads.add(_payload_bytes(rep))
        assert len(treat_outputs) == 1
        assert len(treat_payloads) == 1
        assert len(audit_payloads) == 1

        # remaining subcommands across consecutive runs
        for name, argv in {
            "eval": ["eval", "--ground-truth", clustering, "--estimated",
                     clustering, "--edgelist", edgelist,
                     "--metrics", "nmi,ari,agri,rmi"],
            "dl": ["dl", "--edgelist", edgelist, "--clustering", clustering,
                   "--components-before", before, "--components-after", after],
            "stats": ["stats", "--clustering", clustering, "--edgelist", edgelist],
        }.items():
            payloads = set()
            for run_id in range(2):
                out = tmp_path / f"{name}-{run_id}.json"
                assert _run_cli(argv + ["--output", out]) == 0
                payloads.add(_payload_bytes(out))
            assert len(payloads) == 1, name

        generate_payloads = set()
        for run_id in range(2):
            out = tmp_path / f"gen-{run_id}.json"
            assert _run_cli(
                ["generate", "--kind", "planted-partition-lite", "--sizes",
                 "30x3", "--p-in", "0.3", "--p-out", "0.01", "--seed", "4",
                 "--edgelist-out", tmp_path / f"gn-{run_id}.tsv",
                 "--clustering-out", tmp_path / f"gc-{run_id}.tsv",
                 "--output", out]
            ) == 0
            generate_payloads.add(_payload_bytes(out))
        assert len(generate_payloads) == 1
        assert (tmp_path / "gn-0.tsv").read_bytes() == (tmp_path / "gn-1.tsv").read_bytes()


# ---------------------------------------------------------------------------
# criterion 10: performance smoke (1M nodes, ~5M edges)

PERF_SIZES = "20000x40,200x1000"
PERF_P_IN = 0.0006
PERF_P_OUT = 0.0000004

# Runs the command given as arguments and prints its peak RSS in KiB, as
# os.wait4 reports it. A forked child's peak RSS starts from its parent's
# resident set, so treat is started from this small process rather than from
# pytest, whose RUSAGE_CHILDREN would also count pytest and `generate`.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.fixture(scope="module")
def criterion_10_run(tmp_path_factory):
    """Generate criterion 10's input and treat it once, for every test of it.

    Returns the generate and treat processes, treat's wall time and the
    treated file; the tests assert on them.
    """
    tmp_path = tmp_path_factory.mktemp("criterion10")
    edgelist = tmp_path / "net.tsv"
    clustering = tmp_path / "gt.tsv"
    gen = subprocess.run(
        [sys.executable, "-m", "wellconn", "generate",
         "--kind", "planted-partition-lite", "--sizes", PERF_SIZES,
         "--p-in", str(PERF_P_IN), "--p-out", str(PERF_P_OUT),
         "--seed", "2026",
         "--edgelist-out", str(edgelist),
         "--clustering-out", str(clustering),
         "--output", str(tmp_path / "gen.json")],
        capture_output=True,
        text=True,
        env=wellconn_env(),
    )
    out = tmp_path / "treated.tsv"
    if gen.returncode != 0:
        return gen, None, 0.0, out
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_LAUNCHER,
         sys.executable, "-m", "wellconn", "treat",
         "--edgelist", str(edgelist), "--existing-clustering", str(clustering),
         "--mode", "wcc", "--threshold", "1log10",
         "--num-processors", "1",
         "--output-file", str(out)],
        capture_output=True,
        text=True,
        env=wellconn_env(),
    )
    return gen, proc, time.monotonic() - started, out


def test_criterion_10_performance_smoke(criterion_10_run):
    with record(10, "wcc on 1M nodes / ~5M edges within 10 min and 8 GB"):
        gen, proc, elapsed, out = criterion_10_run
        assert gen.returncode == 0, gen.stderr
        info = json.loads((out.parent / "gen.json").read_text())["payload"]
        assert info["nodes"] == 1_000_000
        assert 4_500_000 <= info["edges"] <= 5_500_000
        assert max(w.parse_sizes(PERF_SIZES)) <= 20_000

        assert proc.returncode == 0, proc.stderr
        peak_gb = int(proc.stdout.split()[-1]) / 1048576
        trace = json.loads((out.parent / (out.name + ".run.json")).read_text())[
            "payload"
        ]["trace"]
        print(
            f"\n  [criterion 10] treat wall={elapsed:.1f}s peak={peak_gb:.2f} GB "
            f"cuts={trace['cuts_performed']} clusters_out={trace['clusters_out']}"
        )
        assert elapsed < 600.0
        assert peak_gb < 8.0


# criterion 10's treated file, its cuts and its clusters out, as the exact
# solver alone first gave them: every change to the min-cut path keeps them
CRITERION_10_TREATED_SHA256 = (
    "8891bc305f730e51a4bddf327862635d1d887c4bc6853794e52f1526b7eb2d04"
)


def test_criterion_10_output_pinned(criterion_10_run):
    gen, proc, _, out = criterion_10_run
    assert gen.returncode == 0, gen.stderr
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out.parent / (out.name + ".run.json")).read_text())["payload"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CRITERION_10_TREATED_SHA256
    assert payload["output_sha256"] == CRITERION_10_TREATED_SHA256
    assert payload["trace"]["cuts_performed"] == 6226
    assert payload["clusters_out"] == 194269
