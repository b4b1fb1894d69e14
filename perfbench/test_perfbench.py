"""Tests of the benchmark itself: python3 -m pytest perfbench (from the repository root)."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_smoke_runs_every_workload_and_its_checks():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (name, t) for name in workloads.WORKLOADS for t in (0, 1)
    }
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 3
        if r["trace"]:
            # module self times plus import account for each traced command
            for command in run.COMMANDS:
                coverage = r["metrics"][f"{command}.trace.coverage"]["value"]
                assert 0.95 <= coverage <= 1.05, (r["workload"], command, coverage)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_outside_the_repository_root_it_fails(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "wcc-merged", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_times_are_taken_at_reference_speed():
    assert run.speed(run.REFERENCE_S, run.REFERENCE_S) == 1
    # a machine at half speed: the reference pass takes twice its time
    half = run.speed(2 * run.REFERENCE_S, 2 * run.REFERENCE_S)
    slow = run.Run(exit_code=0, wall_s=3.0, cpu_s=3.0, rss_mb=40.0, speed=half)
    assert slow.scaled_s == pytest.approx(1.5)
    assert 0 < run.reference_pass() < 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.make_inputs("cc-many-small", 3, tmp_path / "a", "smoke")
    b = workloads.make_inputs("cc-many-small", 3, tmp_path / "b", "smoke")
    c = workloads.make_inputs("cc-many-small", 4, tmp_path / "c", "smoke")
    for name in ("edges.tsv", "input.tsv", "truth.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a.edgelist.read_bytes() != c.edgelist.read_bytes()
    assert np.array_equal(a.truth_assignment, b.truth_assignment)


@pytest.mark.parametrize("scale", ["smoke", "full"])
def test_merged_answer_is_the_planted_communities(tmp_path, scale):
    """wcc must return the communities of wcc-merged, whatever the order of cuts.

    Each community's min cut (networkx) exceeds the bound of its whole input
    cluster, the largest bound any part of it meets. Two communities of one
    cluster share at most two edges, and any two together are large enough
    that two edges do not beat their bound.
    """
    inputs = workloads.make_inputs("wcc-merged", 0, tmp_path, scale)
    edges = checks.EdgeFile(inputs.edgelist, len(inputs.labels))
    truth, given = inputs.truth_assignment, inputs.input_assignment
    cluster_size = np.bincount(given)
    community_size = np.bincount(truth)
    for community in range(len(community_size)):
        members = np.flatnonzero(truth == community)
        keep = np.isin(edges.u, members) & np.isin(edges.v, members)
        graph = nx.Graph(list(zip(edges.u[keep].tolist(), edges.v[keep].tolist())))
        bound = math.log10(cluster_size[given[members[0]]])
        assert graph.number_of_nodes() == len(members)
        assert nx.stoer_wagner(graph)[0] > bound
    joins: dict[tuple[int, int], int] = {}
    inside = given[edges.u] == given[edges.v]
    for a, b in zip(truth[edges.u[inside]].tolist(), truth[edges.v[inside]].tolist()):
        if a != b:
            joins[min(a, b), max(a, b)] = joins.get((min(a, b), max(a, b)), 0) + 1
    assert joins and max(joins.values()) <= 2
    assert 2 * community_size.min() >= 100  # log10(100) = 2


def _treated(inputs, assignment, tmp_path):
    """Assignment of a clustering, as the checks read it back from a file."""
    path = tmp_path / "out.tsv"
    path.write_text("".join(f"{lab}\t{cid}\n" for lab, cid in zip(inputs.labels, assignment)))
    return checks.read_partition(path, len(inputs.labels))[0]


def test_checks_reject_wrong_outputs(tmp_path):
    inputs = workloads.make_inputs("wcc-merged", 0, tmp_path, "smoke")
    edges = checks.EdgeFile(inputs.edgelist, len(inputs.labels))
    truth, given = inputs.truth_assignment, inputs.input_assignment
    checks.check_treated("wcc", edges, given, _treated(inputs, truth, tmp_path), truth)
    with pytest.raises(checks.CheckFailed):  # not split at all
        checks.check_treated("wcc", edges, given, _treated(inputs, given, tmp_path), truth)
    with pytest.raises(checks.CheckFailed):  # not a refinement
        checks.check_treated("wcc", edges, given, np.zeros_like(given), None)
    with pytest.raises(checks.CheckFailed):  # cc must split only into components
        checks.check_treated("cc", edges, given, truth, None)
    scores = checks.expected_scores(edges, truth, truth)
    assert scores == pytest.approx({"nmi": 1.0, "ari": 1.0, "agri": 1.0})
    payload = {"scores": dict(scores, rmi=1.0, nmi=0.99),
               "metadata": {"universe_nodes": edges.n}}
    with pytest.raises(checks.CheckFailed):
        checks.check_eval(payload, edges, truth, truth)
    missing = tmp_path / "short.tsv"
    missing.write_text("".join(f"{lab}\t0\n" for lab in inputs.labels[1:]))
    with pytest.raises(checks.CheckFailed):
        checks.read_partition(missing, len(inputs.labels))
