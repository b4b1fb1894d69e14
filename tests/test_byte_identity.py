"""Byte-identity gate: every output of treat, audit and eval keeps its bytes.

Small planted partitions and a clique ring, made with `wellconn.gadgets`,
are treated with `wcc`, `cc` and `cm --clusterer components` at one and two
workers, for two seeds; each treated clustering is then audited, with its
per-cluster table, and scored against the planted one. The sha256 of each
treated file, of each per-cluster table and of the text of each document's
payload, as written, is pinned. A payload holds no worker count, so both
worker counts must give the same bytes; the `forks` fixture makes the
two-worker runs fork, though inputs this small would run in one process. The pins are what the exact solver
alone and json's indented encoder gave, so every change to a kernel, a
tie-break or the writer must keep them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import wellconn as w
from wellconn.cli import main

SEEDS = (1, 2)
MODES = {
    "wcc": ["--mode", "wcc"],
    "cc": ["--mode", "cc"],
    "cm": ["--mode", "cm", "--clusterer", "components"],
}

# sparse giants (mean degree about 9) beside a tail of small blocks that are
# mostly disconnected, each input cluster two planted blocks
SPARSE = dict(sizes=(200, 200) + (12,) * 20, p_in=0.045, p_out=3e-4)
# and dense blocks of 25-70 nodes, each input cluster a ring of four, each
# block joined to the next by one or two edges: a ring's min cuts tie, the
# scan order decides which arc is cut off first, and the piece left by one
# cut may pass the bound where the piece left by another does not
RINGS, RING, DENSE_P_IN = 6, 4, 0.3
# and one input cluster that is a ring of 25 4-cliques, one edge joining each
# to the next: it is cut, and each arc of three or more cliques is cut again
# wherever the scan order finds a tied cut first, while an arc of two passes
CLIQUE_RING = dict(num_cliques=25, clique_size=4, bridges=1)

PINNED = {
    "cc-1": {
        "treated": "738e7bca7a51b8d52dd5fcb78767b38e39ef2d45b6408521ebf8656d23d3ee3d",
        "treat": "03a56cf27936b86952c6154e0ec3985ad70dfd1ce24b523524de4d414f9b0b7c",
        "audit": "0f08bec3124067bf2204e8278880903baf3af2066e62ac75e7b94359742025f4",
        "table": "7749434d1597b186dc0fa4311a049fdd5e28b6d42e90b8a8a9c5bfabc4b85663",
        "eval": "7b34e3e9f70d3e0de0eba699f96ff69aa8a4dc3f430dc5883b996e4ddd10584b",
    },
    "cc-2": {
        "treated": "a73d5b3d3631ddd9c26edc0aac5e9fdf368591f79b9b36ecae08ddfa21cf83d1",
        "treat": "60e776a763b60b1beacd16b0dae8bc3d86a9f914a0db478e0c1701507b8527bc",
        "audit": "e5ad295057a0f7d8023e857fb03249b49ee99cf8fe3554076106dafda3ba90ac",
        "table": "2c13def2311ee98ba0eb6ac96614c8f65c0f5f73ef35c35939ee0f99f86a6676",
        "eval": "261f96bb35954bc5cae5911c2b51d726a902c2e2c27c7ffc17cc91024751f122",
    },
    "cm-1": {
        "treated": "4c741036993d7fa3e8f27350ea6a043dc04aa04dd52778096932748fc4a337c3",
        "treat": "7ad4153dc5e37a6ca038bb6fb5eaf7732b771081ce78014cc9d256dc56fab8eb",
        "audit": "42b443705873011206761405d30b6be9870601af0693cae680042a3faa0806b5",
        "table": "82bca5a3e2c27430b92c39afb7d8e8342ea7668ab0bf91a7c874f008c1fdbf07",
        "eval": "23a4dc3d4ffe48e68523dd77aaac7c8af66e503f04ddd37b6fc5888a8e1d7577",
    },
    "cm-2": {
        "treated": "82d24ba80ed16df7f22e1dd1873ef046041149c53196c1d8dd1399aa4a6ec4db",
        "treat": "c4cc90a6c1ab749de1d92018632f1431ac79a8078aa9f255f181a90309018a1a",
        "audit": "71bfa5b80f9805b419f74f8d66065ecf7582a55d0c48a76e71941e82df2ffdd9",
        "table": "fe76aafa76efc7532aa87ddfe5d6085ee83236d31bc425db21cc3a90776bc684",
        "eval": "38a8d00491dc0ae628f00b185d5262f0158e3f84732f5136fdacaa3264ea350a",
    },
    "wcc-1": {
        "treated": "4c741036993d7fa3e8f27350ea6a043dc04aa04dd52778096932748fc4a337c3",
        "treat": "dee4af86c4080c142b8f7b6e4cb9a4d08e731f2996f2a495e30884990c323d9c",
        "audit": "42b443705873011206761405d30b6be9870601af0693cae680042a3faa0806b5",
        "table": "82bca5a3e2c27430b92c39afb7d8e8342ea7668ab0bf91a7c874f008c1fdbf07",
        "eval": "23a4dc3d4ffe48e68523dd77aaac7c8af66e503f04ddd37b6fc5888a8e1d7577",
    },
    "wcc-2": {
        "treated": "82d24ba80ed16df7f22e1dd1873ef046041149c53196c1d8dd1399aa4a6ec4db",
        "treat": "712115c0481668aae149a67f575c7b93a7ef0e54433f8016f9c3d8ca9da938f8",
        "audit": "71bfa5b80f9805b419f74f8d66065ecf7582a55d0c48a76e71941e82df2ffdd9",
        "table": "fe76aafa76efc7532aa87ddfe5d6085ee83236d31bc425db21cc3a90776bc684",
        "eval": "38a8d00491dc0ae628f00b185d5262f0158e3f84732f5136fdacaa3264ea350a",
    },
}


def write_inputs(directory, seed: int):
    """The edgelist, the input clustering and the planted one."""
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(25, 71, RINGS * RING).tolist())
    sparse, sparse_truth = w.generate(
        w.GadgetSpec(kind="planted-partition-lite", seed=seed, **SPARSE)
    )
    dense, dense_truth = w.generate(w.GadgetSpec(
        kind="planted-partition-lite", sizes=sizes, p_in=DENSE_P_IN, p_out=0.0,
        seed=seed,
    ))
    ring, cliques = w.generate(w.GadgetSpec(kind="bridged-cliques", **CLIQUE_RING))
    starts = np.cumsum((0,) + sizes)
    joins = [
        (starts[a] + rng.integers(sizes[a]), starts[b] + rng.integers(sizes[b]))
        for a in range(len(sizes))
        for b in [a - a % RING + (a + 1) % RING]
        for _ in range(rng.integers(1, 3))
    ]
    n = sparse.n + dense.n + ring.n
    edges = np.concatenate([
        np.stack(sparse.edge_arrays(), axis=1),
        np.stack(dense.edge_arrays(), axis=1) + sparse.n,
        np.array(joins, np.int64).reshape(-1, 2) + sparse.n,
        np.stack(ring.edge_arrays(), axis=1) + sparse.n + dense.n,
    ])
    blocks = len(SPARSE["sizes"])
    planted = np.concatenate([
        sparse_truth.assignment,
        dense_truth.assignment + blocks,
        cliques.assignment + blocks + len(sizes),
    ])
    given = np.concatenate([
        sparse_truth.assignment // 2,
        dense_truth.assignment // RING + blocks,
        np.full(ring.n, blocks + len(sizes)),
    ])
    # shuffled, so that no cluster is a run of consecutive nodes
    perm = rng.permutation(n)
    labels = [f"v{i}" for i in range(n)]
    graph = w.Graph.from_edges(n, perm[edges], labels)
    paths = [directory / name for name in ("net.tsv", "input.tsv", "truth.tsv")]
    w.write_edgelist(graph, paths[0])
    for path, assignment in zip(paths[1:], (given, planted)):
        node_of = np.empty(n, np.int64)
        node_of[perm] = assignment
        w.write_clustering(w.Clustering.from_assignment(node_of), graph, path)
    return paths


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def payload_text(path) -> str:
    """The payload's text as written: the document's last member."""
    text = path.read_text()
    return text[text.index('\n  "payload": ') :]


def outputs(directory, seed: int, mode: str, workers: int) -> dict[str, str]:
    net, given, truth = write_inputs(directory, seed)
    treated = directory / f"{mode}-{workers}.tsv"
    table = directory / f"{mode}-{workers}.audit.tsv"
    runs = [
        ["treat", "--edgelist", net, "--existing-clustering", given,
         *MODES[mode], "--num-processors", workers, "--output-file", treated],
        ["audit", "--edgelist", net, "--clustering", treated,
         "--num-processors", workers, "--per-cluster-table", table,
         "--output", directory / "audit.json"],
        ["eval", "--ground-truth", truth, "--estimated", treated, "--edgelist", net,
         "--output", directory / "eval.json"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    return {
        "treated": sha(treated.read_text()),
        "treat": sha(payload_text(directory / f"{mode}-{workers}.tsv.run.json")),
        "audit": sha(payload_text(directory / "audit.json")),
        "table": sha(table.read_text()),
        "eval": sha(payload_text(directory / "eval.json")),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_outputs_pinned(tmp_path, seed, mode, forks):
    for workers in (1, 2):
        got = outputs(tmp_path, seed, mode, workers)
        assert got == PINNED[f"{mode}-{seed}"], f"{workers} worker(s)"
