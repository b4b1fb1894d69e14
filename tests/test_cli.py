"""Command-line behavior: files in, files out, exit codes, determinism."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wellconn as w
from wellconn import cli
from wellconn.cli import main
from conftest import wellconn_env


def run(argv):
    return main([str(a) for a in argv])


def payload_of(path) -> dict:
    return json.loads(path.read_text())["payload"]


def doc_of(path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture
def gadget_files(tmp_path):
    """Two K10s plus a bridge, plus the one-cluster and planted clusterings."""
    g, gt = w.generate(
        w.GadgetSpec(kind="bridged-cliques", num_cliques=2, clique_size=10, bridges=1)
    )
    edgelist = tmp_path / "net.tsv"
    w.write_edgelist(g, edgelist)
    planted = tmp_path / "planted.tsv"
    w.write_clustering(gt, g, planted)
    whole = tmp_path / "whole.tsv"
    w.write_clustering(
        w.Clustering.from_assignment(np.zeros(g.n, np.int64)), g, whole
    )
    return g, edgelist, planted, whole


class TestTreat:
    def test_wcc_splits_gadget(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        out = tmp_path / "out.tsv"
        code = run(
            ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "wcc", "--output-file", out]
        )
        assert code == 0
        assert out.read_text() == planted.read_text()
        sidecar = doc_of(tmp_path / "out.tsv.run.json")
        assert sidecar["manifest"]["subcommand"] == "treat"
        assert sidecar["payload"]["trace"]["cuts_performed"] == 1
        assert sidecar["payload"]["clusters_out"] == 2

    def test_record_blocks_keep_their_keys(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        out = tmp_path / "out.tsv"
        assert run(["treat", "--edgelist", edgelist, "--existing-clustering", whole,
                    "--mode", "wcc", "--output-file", out]) == 0
        payload = payload_of(tmp_path / "out.tsv.run.json")
        assert payload["ingest"] == {
            "lines_read": 91, "self_loops_dropped": 0, "duplicate_edges_dropped": 0,
            "nodes": 20, "edges": 91,
        }
        assert payload["trace"] == {
            "cuts_performed": 1, "components_splits": 0, "max_recursion_depth": 1,
            "clusters_in": 1, "clusters_out": 2,
        }

    def test_wcc_idempotent_byte_identical(self, tmp_path, gadget_files):
        g, edgelist, planted, _ = gadget_files
        out = tmp_path / "out.tsv"
        code = run(
            ["treat", "--edgelist", edgelist, "--existing-clustering", planted,
             "--mode", "wcc", "--output-file", out]
        )
        assert code == 0
        assert out.read_bytes() == planted.read_bytes()

    def test_cc_mode(self, tmp_path):
        g, gt = w.generate(
            w.GadgetSpec(kind="clique-ring", num_cliques=3, clique_size=4, bridges=0)
        )
        edgelist = tmp_path / "net.tsv"
        w.write_edgelist(g, edgelist)
        whole = tmp_path / "whole.tsv"
        w.write_clustering(
            w.Clustering.from_assignment(np.zeros(g.n, np.int64)), g, whole
        )
        out = tmp_path / "out.tsv"
        assert run(
            ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "cc", "--output-file", out]
        ) == 0
        res = w.load_clustering(out, g)
        assert res.clustering.num_clusters == 3

    def test_cm_identity_equals_wcc(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        out_wcc = tmp_path / "wcc.tsv"
        out_cm = tmp_path / "cm.tsv"
        run(["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "wcc", "--output-file", out_wcc])
        run(["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "cm", "--clusterer", "identity", "--output-file", out_cm])
        assert out_wcc.read_bytes() == out_cm.read_bytes()

    def test_cm_external_through_cli(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        script = tmp_path / "whole.py"
        script.write_text(
            "import sys\n"
            "nodes = set()\n"
            "for line in open(sys.argv[1]):\n"
            "    a, b = line.split()\n"
            "    nodes.update((a, b))\n"
            "with open(sys.argv[2], 'w') as out:\n"
            "    for v in sorted(nodes):\n"
            "        out.write(v + '\\tone\\n')\n"
        )
        out = tmp_path / "out.tsv"
        code = run(
            ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "cm",
             "--clusterer", f"external:{sys.executable} {script} {{input}} {{output}}",
             "--output-file", out]
        )
        assert code == 0
        assert out.read_text() == planted.read_text()

    def test_empty_edgelist_clustering_only_nodes(self, tmp_path):
        (tmp_path / "empty.tsv").write_text("")
        (tmp_path / "c.tsv").write_text("a\tx\nb\tx\n")
        out = tmp_path / "out.tsv"
        code = run(
            ["treat", "--edgelist", tmp_path / "empty.tsv",
             "--existing-clustering", tmp_path / "c.tsv",
             "--mode", "wcc", "--output-file", out]
        )
        assert code == 0
        # degree-0 nodes cannot stay together: the component step splits them
        assert out.read_text() == "a\t0\nb\t1\n"
        # no nodes at all: no clusters in, none out
        (tmp_path / "none.tsv").write_text("")
        assert run(
            ["treat", "--edgelist", tmp_path / "empty.tsv",
             "--existing-clustering", tmp_path / "none.tsv",
             "--mode", "wcc", "--output-file", out]
        ) == 0
        assert out.read_text() == ""

    def test_missing_file_exit_1(self, tmp_path):
        assert run(
            ["treat", "--edgelist", tmp_path / "nope.tsv",
             "--existing-clustering", tmp_path / "nope2.tsv",
             "--mode", "wcc", "--output-file", tmp_path / "out.tsv"]
        ) == 1

    def test_usage_error_exit_1(self, tmp_path, gadget_files, capsys):
        assert run(["treat", "--mode", "wcc"]) == 1
        assert run(["bogus-subcommand"]) == 1
        # no prefix matching: --output is not taken for --output-file
        g, edgelist, planted, whole = gadget_files
        capsys.readouterr()
        assert run(
            ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "wcc", "--output-file", tmp_path / "o.tsv",
             "--output", tmp_path / "o.json"]
        ) == 1
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "o.tsv").exists()
        assert not (tmp_path / "o.json").exists()

    def test_external_failure_exit_2(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        script = tmp_path / "fail.py"
        script.write_text("import sys\nsys.exit(9)\n")
        out = tmp_path / "out.tsv"
        code = run(
            ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "cm",
             "--clusterer", f"external:{sys.executable} {script} {{input}} {{output}}",
             "--output-file", out]
        )
        assert code == 2

    def test_external_command_missing_exit_2(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        code = run(
            ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "cm",
             "--clusterer", "external:/no/such/binary {input} {output}",
             "--output-file", tmp_path / "out.tsv"]
        )
        assert code == 2

    def test_bad_threshold_exit_1(self, tmp_path, gadget_files, capsys):
        g, edgelist, planted, whole = gadget_files
        out = tmp_path / "out.tsv"
        for bad in ("banana", "nanlog10"):
            assert run(
                ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
                 "--mode", "wcc", "--threshold", bad, "--output-file", out]
            ) == 1
            assert "Traceback" not in capsys.readouterr().err
            assert not out.exists()

    def test_bad_num_processors_exit_1(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        for mode in ("cc", "wcc"):
            assert run(
                ["treat", "--edgelist", edgelist, "--existing-clustering", whole,
                 "--mode", mode, "--num-processors", 0,
                 "--output-file", tmp_path / "out.tsv"]
            ) == 1
        assert run(
            ["audit", "--edgelist", edgelist, "--clustering", whole,
             "--num-processors", -1, "--output", tmp_path / "report.json"]
        ) == 1

    def test_log_file_written(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        logf = tmp_path / "run.log"
        run(["treat", "--edgelist", edgelist, "--existing-clustering", whole,
             "--mode", "wcc", "--output-file", tmp_path / "out.tsv",
             "--log-file", logf, "--log-level", "2"])
        text = logf.read_text()
        assert "treatment" in text

    def test_second_run_closes_the_first_log_file(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        argv = ["stats", "--clustering", planted, "--output", tmp_path / "stats.json",
                "--log-file", tmp_path / "run.log", "--log-level", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run(argv) == 0
            assert run(argv) == 0
            gc.collect()
        assert [str(warning.message) for warning in caught] == []

    def test_worker_that_dies_exits_1(self, tmp_path):
        # the external clusterer kills the worker process that started it; an
        # engine that waited for the lost work would hang, so the command runs
        # in a child process under a timeout. Both workers die; the error
        # names the share of the one holding the lowest cluster
        g, _ = w.generate(w.GadgetSpec(
            kind="bridged-cliques", num_cliques=4, clique_size=6, bridges=1
        ))
        w.write_edgelist(g, tmp_path / "net.tsv")
        pairs = w.Clustering.from_assignment(np.arange(g.n) // 12)
        w.write_clustering(pairs, g, tmp_path / "pairs.tsv")
        proc = subprocess.run(
            [sys.executable, "-m", "wellconn", "treat",
             "--edgelist", str(tmp_path / "net.tsv"),
             "--existing-clustering", str(tmp_path / "pairs.tsv"),
             "--mode", "cm", "--num-processors", "2",
             "--clusterer", "external:sh -c 'kill -9 $PPID; : {input} {output}'",
             "--output-file", str(tmp_path / "out.tsv")],
            capture_output=True, text=True, env=wellconn_env(), timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("wellconn: error:")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.endswith(
            "a worker process died (killed by SIGKILL) while running clusters 0\n"
        )
        assert not (tmp_path / "out.tsv.run.json").exists()


SUBCOMMANDS = ["treat", "audit", "eval", "dl", "stats", "generate"]


@pytest.mark.parametrize("argv", [["--help"], []] + [[c, "--help"] for c in SUBCOMMANDS])
def test_help_and_usage_are_the_full_parsers(argv, capsys):
    # main builds the arguments of the named subcommand alone; what it prints
    # is what the parser of every subcommand prints
    code = main(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert (code, printed) == (exc.value.code, capsys.readouterr())
    if argv == ["--help"]:
        assert "{" + ",".join(SUBCOMMANDS) + "}" in printed.out


def subparsers(parser) -> dict:
    """Each subcommand's parser, by name."""
    (action,) = [a for a in parser._actions if a.dest == "subcommand"]
    return action.choices


def test_main_builds_only_the_named_subcommands_arguments(monkeypatch):
    asked = []
    parser = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda filled: asked.append(filled) or parser(filled))
    assert main(["stats", "--help"]) == 0
    assert asked == [{"stats"}]
    # the others have their help option alone
    actions = {name: len(sub._actions) for name, sub in subparsers(parser({"stats"})).items()}
    assert list(actions) == SUBCOMMANDS == list(cli._SUBCOMMANDS)
    assert [name for name, count in actions.items() if count > 1] == ["stats"]
    assert all(len(sub._actions) > 1 for sub in subparsers(cli.build_parser()).values())


@pytest.mark.parametrize("case", [
    "sizes-not-a-number", "negative-seed", "edgelist-is-directory",
    "edgelist-not-utf8", "components-not-json", "components-term-not-a-number",
    "threshold-too-large", "size-count-too-large", "size-too-large",
    "num-processors-zero", "num-processors-negative", "mincut-cap-negative",
])
def test_bad_input_exit_1_without_traceback(tmp_path, capsys, case):
    (tmp_path / "c.tsv").write_text("a\tx\nb\tx\n")
    (tmp_path / "latin1.tsv").write_bytes("caf\xe9\tb\n".encode("latin-1"))
    (tmp_path / "before.json").write_text("not json\n")
    (tmp_path / "nan.json").write_text(
        '{"components": {"adjacency": "many", "degrees": 1, "partition": 1,'
        ' "edge_counts": 1}}\n'
    )
    w.save_components(w.DLComponents(1, 1, 1, 1), tmp_path / "after.json")
    gen = ["generate", "--edgelist-out", tmp_path / "n.tsv",
           "--clustering-out", tmp_path / "g.tsv"]
    # inputs that do not exist: a bad count must be named before any is read
    missing = ["audit", "--edgelist", tmp_path / "none.tsv",
               "--clustering", tmp_path / "none.tsv"]
    named = {
        "num-processors-zero": "--num-processors must be at least 1, got 0",
        "num-processors-negative": "--num-processors must be at least 1, got -1",
        "mincut-cap-negative": "--mincut-cap must be at least 0, got -1",
    }
    argv = {
        "sizes-not-a-number": gen + ["--kind", "planted-partition-lite", "--sizes", "abc"],
        "size-count-too-large": gen + ["--kind", "planted-partition-lite",
                                       "--sizes", "3x" + "9" * 30],
        "size-too-large": gen + ["--kind", "planted-partition-lite",
                                 "--sizes", "9" * 30 + "x1"],
        "threshold-too-large": ["audit", "--edgelist", tmp_path / "c.tsv",
                                "--clustering", tmp_path / "c.tsv",
                                "--threshold", "1" + "0" * 400],
        "negative-seed": gen + ["--kind", "random-gnp", "--seed", "-1"],
        "edgelist-is-directory": ["stats", "--clustering", tmp_path / "c.tsv",
                                  "--edgelist", tmp_path],
        "edgelist-not-utf8": ["stats", "--clustering", tmp_path / "c.tsv",
                              "--edgelist", tmp_path / "latin1.tsv"],
        "components-not-json": ["dl", "--components-before", tmp_path / "before.json",
                                "--components-after", tmp_path / "after.json"],
        "components-term-not-a-number": [
            "dl", "--components-before", tmp_path / "nan.json",
            "--components-after", tmp_path / "after.json"],
        "num-processors-zero": missing + ["--num-processors", "0"],
        "num-processors-negative": missing + ["--num-processors", "-1"],
        "mincut-cap-negative": missing + ["--mincut-cap", "-1"],
    }[case]
    capsys.readouterr()
    assert run(argv + ["--output", tmp_path / "out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wellconn: error:")
    assert "Traceback" not in err
    if case in named:
        assert err == f"wellconn: error: {named[case]}\n"
    assert not (tmp_path / "out.json").exists()



@pytest.mark.parametrize("flag", ["--edgelist", "--clustering"])
def test_non_utf8_input_names_its_line(tmp_path, capsys, flag):
    files = {"--clustering": tmp_path / "c.tsv", "--edgelist": tmp_path / "net.tsv"}
    files["--clustering"].write_text("a\tx\nb\tx\n")
    files["--edgelist"].write_text("a\tb\n")
    # Latin-1, with a byte on line 3 that cannot start a UTF-8 character
    files[flag].write_bytes("a\tb\nb\tc\ncaf\xe9\tb\n".encode("latin-1"))
    capsys.readouterr()
    argv = ["stats", "--clustering", files["--clustering"], "--edgelist", files["--edgelist"]]
    assert run(argv + ["--output", tmp_path / "out.json"]) == 1
    assert capsys.readouterr().err == (
        f"wellconn: error: {flag[2:]} line 3: not valid UTF-8 (byte 0xe9)\n"
    )
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("case", [
    "treat-output-dir-missing", "treat-output-is-directory", "treat-sidecar-is-directory",
    "treat-clustering-missing", "audit-clustering-missing", "audit-table-dir-missing",
    "audit-report-dir-missing", "eval-estimated-missing", "eval-report-dir-missing",
])
def test_bad_path_fails_before_any_parse(tmp_path, gadget_files, monkeypatch, capsys, case):
    # each message is the one the command gave when the path failed only at
    # its own open, after the work; now no input is parsed first
    g, edgelist, planted, whole = gadget_files
    missing, nodir = tmp_path / "none.tsv", tmp_path / "no-dir" / "out"
    (tmp_path / "out.tsv.run.json").mkdir()
    treat = ["treat", "--edgelist", edgelist, "--mode", "wcc"]
    audit = ["audit", "--edgelist", edgelist]
    evaluate = ["eval", "--ground-truth", planted, "--edgelist", edgelist]
    argv, culprit, errno_text = {
        "treat-output-dir-missing": (
            treat + ["--existing-clustering", whole, "--output-file", nodir], nodir,
            "[Errno 2] No such file or directory"),
        "treat-output-is-directory": (
            treat + ["--existing-clustering", whole, "--output-file", tmp_path], tmp_path,
            "[Errno 21] Is a directory"),
        "treat-sidecar-is-directory": (
            treat + ["--existing-clustering", whole, "--output-file", tmp_path / "out.tsv"],
            tmp_path / "out.tsv.run.json", "[Errno 21] Is a directory"),
        "treat-clustering-missing": (
            treat + ["--existing-clustering", missing, "--output-file", planted], missing,
            "[Errno 2] No such file or directory"),
        "audit-clustering-missing": (
            audit + ["--clustering", missing], missing, "[Errno 2] No such file or directory"),
        "audit-table-dir-missing": (
            audit + ["--clustering", whole, "--per-cluster-table", nodir], nodir,
            "[Errno 2] No such file or directory"),
        "audit-report-dir-missing": (
            audit + ["--clustering", whole, "--output", nodir], nodir,
            "[Errno 2] No such file or directory"),
        "eval-estimated-missing": (
            evaluate + ["--estimated", missing], missing, "[Errno 2] No such file or directory"),
        "eval-report-dir-missing": (
            evaluate + ["--estimated", whole, "--output", nodir], nodir,
            "[Errno 2] No such file or directory"),
    }[case]
    loads = []

    def refuse(*args, **kwargs):
        loads.append(args)
        raise AssertionError("an input was parsed")

    monkeypatch.setattr(cli, "load_edgelist", refuse)
    before = {p: p.read_bytes() for p in (edgelist, planted, whole)}
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"wellconn: error: {errno_text}: {str(culprit)!r}\n"
    assert loads == []
    # nothing was made or changed: an existing output is opened, not truncated
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["net.tsv", "planted.tsv", "whole.tsv", "out.tsv.run.json"]
    )


class TestAudit:
    def test_audit_wcc_output_all_well(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        report_path = tmp_path / "report.json"
        assert run(
            ["audit", "--edgelist", edgelist, "--clustering", planted,
             "--output", report_path]
        ) == 0
        payload = payload_of(report_path)
        assert payload["proportions"]["well"] == 1.0
        assert payload["counts"]["poor"] == 0

    def test_audit_disconnected_cluster(self, tmp_path):
        g, _ = w.generate(
            w.GadgetSpec(kind="clique-ring", num_cliques=2, clique_size=5, bridges=0)
        )
        edgelist = tmp_path / "net.tsv"
        w.write_edgelist(g, edgelist)
        whole = tmp_path / "whole.tsv"
        w.write_clustering(
            w.Clustering.from_assignment(np.zeros(g.n, np.int64)), g, whole
        )
        report_path = tmp_path / "report.json"
        run(["audit", "--edgelist", edgelist, "--clustering", whole,
             "--output", report_path])
        assert payload_of(report_path)["proportions"]["disconnected"] == 1.0

    def test_negative_mincut_cap_exits_1(self, tmp_path, gadget_files, capsys):
        g, edgelist, planted, whole = gadget_files
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["audit", "--edgelist", edgelist, "--clustering", planted,
                    "--mincut-cap", "-1", "--output", report_path]) == 1
        assert capsys.readouterr().err == (
            "wellconn: error: --mincut-cap must be at least 0, got -1\n"
        )
        assert not report_path.exists()

    def test_zero_log10_has_empty_poor(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        report_path = tmp_path / "report.json"
        run(["audit", "--edgelist", edgelist, "--clustering", whole,
             "--threshold", "0log10", "--output", report_path])
        payload = payload_of(report_path)
        assert payload["counts"]["poor"] == 0
        assert payload["counts"]["well"] == 1

    def test_per_cluster_table(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        table = tmp_path / "clusters.tsv"
        run(["audit", "--edgelist", edgelist, "--clustering", whole,
             "--output", tmp_path / "r.json", "--per-cluster-table", table])
        lines = table.read_text().splitlines()
        assert lines[0].startswith("cluster_id\t")
        assert len(lines) == 2
        assert "\tpoor\t" in lines[1]


class TestEval:
    def test_identical_files_all_ones(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        out = tmp_path / "scores.json"
        assert run(
            ["eval", "--ground-truth", planted, "--estimated", planted,
             "--edgelist", edgelist, "--metrics", "nmi,ari,agri,rmi",
             "--output", out]
        ) == 0
        scores = payload_of(out)["scores"]
        assert scores == {"nmi": 1.0, "ari": 1.0, "agri": 1.0, "rmi": 1.0}

    def test_crossing_example(self, tmp_path):
        (tmp_path / "t.tsv").write_text("a\t0\nb\t0\nc\t1\nd\t1\n")
        (tmp_path / "e.tsv").write_text("a\t0\nb\t1\nc\t0\nd\t1\n")
        out = tmp_path / "scores.json"
        assert run(
            ["eval", "--ground-truth", tmp_path / "t.tsv",
             "--estimated", tmp_path / "e.tsv", "--metrics", "ari",
             "--output", out]
        ) == 0
        # permutation-model ARI (the acceptance suite documents the
        # inconsistent -1/3 expectation for this same pair)
        assert payload_of(out)["scores"]["ari"] == pytest.approx(-0.5)

    def test_agri_requires_edgelist(self, tmp_path):
        (tmp_path / "t.tsv").write_text("a\t0\nb\t0\n")
        assert run(
            ["eval", "--ground-truth", tmp_path / "t.tsv",
             "--estimated", tmp_path / "t.tsv", "--metrics", "agri"]
        ) == 1

    def test_universe_mismatch_exit_1(self, tmp_path):
        (tmp_path / "t.tsv").write_text("a\t0\nb\t0\n")
        (tmp_path / "e.tsv").write_text("a\t0\nzz\t0\n")
        assert run(
            ["eval", "--ground-truth", tmp_path / "t.tsv",
             "--estimated", tmp_path / "e.tsv", "--metrics", "nmi",
             "--output", tmp_path / "s.json"]
        ) == 1

    def test_restrict_common(self, tmp_path):
        (tmp_path / "t.tsv").write_text("a\t0\nb\t0\nc\t1\n")
        (tmp_path / "e.tsv").write_text("a\t0\nb\t0\nd\t1\n")
        out = tmp_path / "s.json"
        assert run(
            ["eval", "--ground-truth", tmp_path / "t.tsv",
             "--estimated", tmp_path / "e.tsv", "--metrics", "nmi",
             "--restrict-common", "--output", out]
        ) == 0
        payload = payload_of(out)
        assert payload["metadata"]["restricted"] is True
        assert payload["metadata"]["universe_nodes"] == 2
        assert payload["scores"]["nmi"] == 1.0

    def test_metadata_records_conventions(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        out = tmp_path / "s.json"
        run(["eval", "--ground-truth", planted, "--estimated", whole,
             "--metrics", "nmi,rmi", "--output", out])
        meta = payload_of(out)["metadata"]
        assert meta["log_base"] == 2
        assert meta["nmi_normalization"] == "arithmetic-mean"
        assert meta["rmi_table_count_method"] in (
            "exact-enumeration", "independence-approximation"
        )

    @pytest.mark.parametrize("sizes, metrics, clamped", [
        # two clusters of 100 and 50 singletons: every independence estimate
        # of the table count is negative, so each is taken as 0
        ([100, 100] + [1] * 50, "nmi,rmi", ["joint", "truth", "estimated"]),
        ([100, 100] + [1] * 50, "rmi_unnormalized", ["joint"]),
        ([100, 100] + [1] * 50, "nmi,ari", []),
        # two clusters of 15: every estimate is positive
        ([15, 15], "nmi,rmi", []),
    ])
    def test_clamped_table_counts_named(self, tmp_path, sizes, metrics, clamped):
        truth = np.repeat(np.arange(len(sizes)), sizes)
        est = np.random.default_rng(3).permutation(truth)
        for name, ids in (("t", truth), ("e", est)):
            (tmp_path / f"{name}.tsv").write_text(
                "".join(f"n{v}\tc{c}\n" for v, c in enumerate(ids)))
        out = tmp_path / "s.json"
        assert run(["eval", "--ground-truth", tmp_path / "t.tsv",
                    "--estimated", tmp_path / "e.tsv", "--metrics", metrics,
                    "--output", out]) == 0
        meta, scores = payload_of(out)["metadata"], payload_of(out)["scores"]
        assert meta["universe_nodes"] == sum(sizes)
        assert meta["rmi_table_count_method"] == "independence-approximation"
        assert meta["rmi_table_count_clamped"] == clamped
        if len(clamped) == 3:
            assert scores["rmi"] == pytest.approx(scores["nmi"], abs=1e-12)

    def test_edgelist_error_comes_first(self, tmp_path, capsys):
        # eval parses its edgelist before either clustering file
        (tmp_path / "net.tsv").write_text("a\tb\nb c\n")
        (tmp_path / "t.tsv").write_text("a\t0\nb\n")
        (tmp_path / "e.tsv").write_text("a\t0\nb\t0\n")
        out = tmp_path / "s.json"
        assert run(["eval", "--ground-truth", tmp_path / "t.tsv",
                    "--estimated", tmp_path / "e.tsv",
                    "--edgelist", tmp_path / "net.tsv", "--output", out]) == 1
        assert capsys.readouterr().err == (
            "wellconn: error: edgelist line 2: expected two '\\t'-separated "
            "tokens, got 'b c'\n"
        )
        assert not out.exists()

    def test_unknown_metric_exit_1(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        assert run(
            ["eval", "--ground-truth", planted, "--estimated", planted,
             "--metrics", "accuracy"]
        ) == 1

    @pytest.mark.parametrize("metrics", ["", ","])
    def test_empty_metric_list_exit_1(self, tmp_path, gadget_files, capsys, metrics):
        g, edgelist, planted, whole = gadget_files
        out = tmp_path / "s.json"
        assert run(
            ["eval", "--ground-truth", planted, "--estimated", planted,
             "--metrics", metrics, "--output", out]
        ) == 1
        assert capsys.readouterr().err == (
            "wellconn: error: no metric given "
            "(choose from ['agri', 'ari', 'nmi', 'rmi', 'rmi_unnormalized'])\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("truth, est, net", [
        ("", "", None),
        # the files share labels, but the graph has no node at all
        ("a\t0\nb\t1\n", "a\t0\nb\t0\n", ""),
        # each graph node is named by one file only
        ("a\t0\nb\t1\n", "b\t0\nc\t0\n", "a\tc\nc\td\n"),
    ], ids=["empty-files", "empty-graph", "no-node-in-both"])
    def test_empty_universe_exit_1(self, tmp_path, capsys, truth, est, net):
        (tmp_path / "t.tsv").write_text(truth)
        (tmp_path / "e.tsv").write_text(est)
        argv = ["eval", "--ground-truth", tmp_path / "t.tsv",
                "--estimated", tmp_path / "e.tsv", "--metrics", "nmi"]
        if net is not None:
            (tmp_path / "net.tsv").write_text(net)
            argv += ["--edgelist", tmp_path / "net.tsv", "--restrict-common"]
        assert run(argv + ["--output", tmp_path / "s.json"]) == 1
        assert capsys.readouterr().err == (
            "wellconn: error: evaluation universe is empty\n"
        )


class TestDl:
    def test_single_cluster_pe_zero(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        out = tmp_path / "dl.json"
        assert run(
            ["dl", "--edgelist", edgelist, "--clustering", whole, "--output", out]
        ) == 0
        payload = payload_of(out)
        assert payload["edge_count_prior"]["value"] == 0.0
        assert payload["edge_count_prior"]["num_blocks"] == 1

    def test_triangle_singletons(self, tmp_path):
        (tmp_path / "tri.tsv").write_text("a\tb\nb\tc\nc\ta\n")
        (tmp_path / "singl.tsv").write_text("a\t0\nb\t1\nc\t2\n")
        out = tmp_path / "dl.json"
        run(["dl", "--edgelist", tmp_path / "tri.tsv",
             "--clustering", tmp_path / "singl.tsv", "--output", out])
        import math
        assert payload_of(out)["edge_count_prior"]["value"] == pytest.approx(
            math.log(56)
        )

    def test_table_one_diff(self, tmp_path):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        w.save_components(w.DLComponents(699, 96, 147, 51, unit="k"), before)
        w.save_components(w.DLComponents(316, 45, 257, 1585, unit="k"), after)
        out = tmp_path / "dl.json"
        assert run(
            ["dl", "--components-before", before, "--components-after", after,
             "--output", out]
        ) == 0
        payload = payload_of(out)
        assert payload["diff"]["flipped"] is True
        assert payload["diff"]["differences"]["edge_counts"] == pytest.approx(1534)
        assert payload["diff"]["differences"]["total"] > 0
        assert payload["totals"]["untreated"] == pytest.approx(993)

    def test_unit_mismatch_exit_1(self, tmp_path):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        w.save_components(w.DLComponents(1, 1, 1, 1, unit="k"), before)
        w.save_components(w.DLComponents(1, 1, 1, 1, unit="nats"), after)
        assert run(
            ["dl", "--components-before", before, "--components-after", after]
        ) == 1

    def test_no_inputs_exit_1(self):
        assert run(["dl"]) == 1

    def test_half_component_pair_exit_1(self, tmp_path):
        before = tmp_path / "b.json"
        w.save_components(w.DLComponents(1, 1, 1, 1), before)
        assert run(["dl", "--components-before", before]) == 1


class TestStats:
    def test_coverage_from_file_only(self, tmp_path):
        (tmp_path / "c.tsv").write_text(
            "".join(f"n{i}\tc{i}\n" for i in range(5))
        )
        out = tmp_path / "stats.json"
        assert run(["stats", "--clustering", tmp_path / "c.tsv", "--output", out]) == 0
        payload = payload_of(out)
        assert payload["node_coverage"] == 0.0
        assert payload["singletons"] == 5

    def test_seventy_percent_coverage(self, tmp_path):
        lines = []
        for i in range(4):
            lines.append(f"n{i}\tbig\n")
        for i in range(4, 7):
            lines.append(f"n{i}\tmid\n")
        for i in range(7, 10):
            lines.append(f"n{i}\ts{i}\n")
        (tmp_path / "c.tsv").write_text("".join(lines))
        out = tmp_path / "stats.json"
        run(["stats", "--clustering", tmp_path / "c.tsv", "--output", out])
        payload = payload_of(out)
        assert payload["node_coverage"] == 70.0
        assert payload["max_nonsingleton_size"] == 4

    def test_cluster_stats_fields_pinned(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        stats, audit = tmp_path / "stats.json", tmp_path / "audit.json"
        assert run(["stats", "--clustering", planted, "--output", stats]) == 0
        assert run(["audit", "--edgelist", edgelist, "--clustering", planted,
                    "--output", audit]) == 0
        fields = {
            "non_singleton_count": 2, "median_nonsingleton_size": 10.0,
            "max_nonsingleton_size": 10, "node_coverage": 100.0,
        }
        assert payload_of(stats) == {
            "nodes": 20, "clusters": 2, "singletons": 0, **fields,
        }
        assert payload_of(audit)["cluster_stats"] == fields

    def test_with_edgelist_missing_nodes(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        partial = tmp_path / "partial.tsv"
        partial.write_text("0\tx\n1\tx\n")
        out = tmp_path / "stats.json"
        run(["stats", "--clustering", partial, "--edgelist", edgelist,
             "--output", out])
        payload = payload_of(out)
        assert payload["nodes"] == 20
        assert payload["missing_nodes"] == 18
        assert payload["node_coverage"] == 10.0


class TestGenerate:
    def test_writes_files_and_reports(self, tmp_path):
        out = tmp_path / "gen.json"
        code = run(
            ["generate", "--kind", "bridged-cliques", "--num-cliques", 2,
             "--clique-size", 10, "--bridges", 1,
             "--edgelist-out", tmp_path / "net.tsv",
             "--clustering-out", tmp_path / "gt.tsv", "--output", out]
        )
        assert code == 0
        payload = payload_of(out)
        assert payload["nodes"] == 20
        assert payload["edges"] == 91
        g, _ = w.load_edgelist(tmp_path / "net.tsv")
        assert (g.n, g.m) == (20, 91)

    def test_deterministic_across_runs(self, tmp_path):
        args = ["generate", "--kind", "planted-partition-lite", "--sizes", "50x4",
                "--p-in", "0.3", "--p-out", "0.01", "--seed", "7"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run(args + ["--edgelist-out", tmp_path / "n1.tsv",
                    "--clustering-out", tmp_path / "c1.tsv", "--output", out1])
        run(args + ["--edgelist-out", tmp_path / "n2.tsv",
                    "--clustering-out", tmp_path / "c2.tsv", "--output", out2])
        assert (tmp_path / "n1.tsv").read_bytes() == (tmp_path / "n2.tsv").read_bytes()
        assert (tmp_path / "c1.tsv").read_bytes() == (tmp_path / "c2.tsv").read_bytes()
        assert payload_of(out1) == payload_of(out2)


class TestDeterminismAcrossWorkers:
    def test_treat_and_audit_worker_invariance(self, tmp_path):
        g, gt = w.generate(
            w.GadgetSpec(
                kind="planted-partition-lite",
                sizes=(40, 30, 30, 20),
                p_in=0.25,
                p_out=0.01,
                seed=13,
            )
        )
        edgelist = tmp_path / "net.tsv"
        w.write_edgelist(g, edgelist)
        clus = tmp_path / "gt.tsv"
        w.write_clustering(gt, g, clus)
        payloads = []
        outputs = []
        for procs in (1, 4):
            out = tmp_path / f"out{procs}.tsv"
            run(["treat", "--edgelist", edgelist, "--existing-clustering", clus,
                 "--mode", "wcc", "--num-processors", procs,
                 "--output-file", out])
            outputs.append(out.read_bytes())
            payloads.append(payload_of(tmp_path / f"out{procs}.tsv.run.json"))
        assert outputs[0] == outputs[1]
        assert payloads[0] == payloads[1]
        audit_payloads = []
        for procs in (1, 4):
            rep = tmp_path / f"audit{procs}.json"
            run(["audit", "--edgelist", edgelist, "--clustering", clus,
                 "--num-processors", procs, "--output", rep])
            audit_payloads.append(payload_of(rep))
        assert audit_payloads[0] == audit_payloads[1]


class TestManifest:
    def test_manifest_fields(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        rep = tmp_path / "r.json"
        run(["audit", "--edgelist", edgelist, "--clustering", whole,
             "--output", rep])
        doc = doc_of(rep)
        man = doc["manifest"]
        assert man["tool"] == "wellconn"
        assert man["version"] == w.__version__
        assert man["subcommand"] == "audit"
        assert set(man["inputs"]) == {"edgelist", "clustering"}
        for entry in man["inputs"].values():
            assert len(entry["sha256"]) == 64
        assert "duration_seconds" in man

    def test_input_digest_taken_before_an_in_place_treat(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        target = tmp_path / "in-place.tsv"
        target.write_bytes(whole.read_bytes())
        before = hashlib.sha256(target.read_bytes()).hexdigest()
        assert run(["treat", "--edgelist", edgelist, "--existing-clustering", target,
                    "--mode", "wcc", "--output-file", target]) == 0
        doc = doc_of(tmp_path / "in-place.tsv.run.json")
        after = hashlib.sha256(target.read_bytes()).hexdigest()
        assert after != before
        assert doc["manifest"]["inputs"]["existing_clustering"]["sha256"] == before
        assert doc["payload"]["output_sha256"] == after

    def test_input_digest_taken_before_a_table_over_its_input(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        target = tmp_path / "in-place.tsv"
        target.write_bytes(whole.read_bytes())
        before = hashlib.sha256(target.read_bytes()).hexdigest()
        rep = tmp_path / "r.json"
        assert run(["audit", "--edgelist", edgelist, "--clustering", target,
                    "--per-cluster-table", target, "--output", rep]) == 0
        assert target.read_text().startswith("cluster_id\t")
        assert doc_of(rep)["manifest"]["inputs"]["clustering"]["sha256"] == before

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_input_is_read_by_the_command_alone(self, gadget_files):
        g, edgelist, planted, whole = gadget_files
        read, write = os.pipe()
        os.write(write, edgelist.read_bytes())  # fits the pipe's buffer
        os.close(write)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wellconn", "stats", "--clustering", whole,
                 "--edgelist", f"/dev/fd/{read}"],
                pass_fds=(read,), env=wellconn_env(), capture_output=True, text=True,
                timeout=60,
            )
        finally:
            os.close(read)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["payload"]["graph_edges"] == g.m
        assert doc["manifest"]["inputs"]["edgelist"]["sha256"] is None

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["stats", "audit", "--version", "--help"])
    def test_full_stdout_exits_1(self, command, gadget_files):
        # block-buffered, as in a shell's `> /dev/full`: the document or
        # argparse's text fails only when stdout is flushed
        g, edgelist, planted, whole = gadget_files
        argv = {
            "stats": ["stats", "--clustering", whole],
            "audit": ["audit", "--edgelist", edgelist, "--clustering", whole],
        }.get(command, [command])
        env = wellconn_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "wellconn", *map(str, argv)],
                stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == "wellconn: error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_fails_inside_main(self, gadget_files, monkeypatch, capsys):
        g, edgelist, planted, whole = gadget_files
        full = open("/dev/full", "w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", full)
        assert run(["stats", "--clustering", whole]) == 1
        monkeypatch.undo()
        with pytest.raises(OSError):
            full.close()  # the document is still in its buffer
        assert capsys.readouterr().err == (
            "wellconn: error: [Errno 28] No space left on device\n"
        )

    def test_every_input_given_is_recorded(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        w.save_components(w.DLComponents(1, 1, 1, 1), before)
        w.save_components(w.DLComponents(1, 1, 1, 2), after)
        rep = tmp_path / "r.json"
        # the edgelist alone computes nothing, and is still an input
        assert run(["dl", "--edgelist", edgelist, "--components-before", before,
                    "--components-after", after, "--output", rep]) == 0
        inputs = doc_of(rep)["manifest"]["inputs"]
        assert set(inputs) == {"edgelist", "components_before", "components_after"}
        assert inputs["edgelist"] == {
            "path": str(edgelist),
            "sha256": hashlib.sha256(edgelist.read_bytes()).hexdigest(),
        }

    def test_rerun_payload_digest_identical(self, tmp_path, gadget_files):
        g, edgelist, planted, whole = gadget_files
        reps = []
        for name in ("r1.json", "r2.json"):
            rep = tmp_path / name
            run(["audit", "--edgelist", edgelist, "--clustering", whole,
                 "--output", rep])
            reps.append(json.dumps(payload_of(rep), sort_keys=True))
        assert reps[0] == reps[1]


# The sha256 of every document each subcommand writes on one gadget, with
# `duration_seconds` and the temporary directory blanked, and of the files
# beside them. Recorded before one runner wrote every document: manifests,
# payloads, treated files and the per-cluster table must keep these bytes.
PINNED_DOCUMENTS = {
    "audit": "1b36fbf63ba8bd155d2b0482e192607e1492535fdb71d66b5c687f9f23549fa9",
    "audit.tsv": "b6dfb27ae1d012737e33e4b6fa5f7a0523ddfad476242080a430ad4ecb808032",
    "dl": "100a9c1aa47e74e81ec3341cd96fb0d4a64678506c457bdf1015b61c3492b3a9",
    "eval": "73c30dcdb506a4cc4a11120a37107c81d8d43e3eb6ac63d0387c392aa58cd6f4",
    "generate": "ce58915092243837ef1e111c750833a3dbecf0682b0d3d99a116a359ab92c730",
    "stats": "19c1cae6a9713e9bec5974cf57c770eaf2a95015bad19c304fa4be94c96c9445",
    "stats-stdout": "76e10d36edd461a1e5f462bd4dc4efe86c3d9f3c4f73d64d31f089006a0b1de3",
    "treat-cm": "8642c73b7f4ddcdb76dcfa6f672282c8760d78db2985536684b48cf3b66c02a1",
    "treat-cm.tsv": "a991d5bba6be3f5fe2e4551e5e3d60c9f8654f3f75db274fa494dd163ebba339",
    "treat-wcc": "ae84622e89e9822d0c17a78c40d2c02fe813eb57b9cc585aac8f8ccd2b97994e",
    "treat-wcc.tsv": "a991d5bba6be3f5fe2e4551e5e3d60c9f8654f3f75db274fa494dd163ebba339",
}


def test_every_document_pinned(tmp_path, capsys):
    def digest(text: str) -> str:
        text = re.sub(r'"duration_seconds": [0-9.e+-]+', '"duration_seconds": 0', text)
        return hashlib.sha256(text.replace(str(tmp_path), "TMP").encode()).hexdigest()

    t = tmp_path
    net, truth, pairs = t / "net.tsv", t / "truth.tsv", t / "pairs.tsv"
    # six planted blocks of 12, merged in pairs: one pair is disconnected,
    # one poorly connected and one well connected
    assert run(["generate", "--kind", "planted-partition-lite", "--sizes", "12x6",
                "--p-in", 0.5, "--p-out", 0.01, "--seed", 2, "--edgelist-out", net,
                "--clustering-out", truth, "--output", t / "generate.json"]) == 0
    pairs.write_text("".join(
        f"{node}\t{int(cid) // 2}\n"
        for node, cid in (line.split("\t") for line in truth.read_text().splitlines())
    ))
    w.save_components(w.DLComponents(100.25, 40.5, 12.125, 7.0), t / "before.json")
    w.save_components(w.DLComponents(98.0, 41.0, 15.5, 3.25), t / "after.json")
    runs = {
        "treat-wcc": ["treat", "--edgelist", net, "--existing-clustering", pairs,
                      "--mode", "wcc", "--output-file", t / "treat-wcc.tsv"],
        "treat-cm": ["treat", "--edgelist", net, "--existing-clustering", pairs,
                     "--mode", "cm", "--clusterer", "components",
                     "--num-processors", 2, "--output-file", t / "treat-cm.tsv"],
        "audit": ["audit", "--edgelist", net, "--clustering", pairs,
                  "--per-cluster-table", t / "audit.tsv", "--output", t / "audit.json"],
        "eval": ["eval", "--ground-truth", truth, "--estimated", t / "treat-wcc.tsv",
                 "--edgelist", net, "--output", t / "eval.json"],
        "dl": ["dl", "--edgelist", net, "--clustering", pairs,
               "--components-before", t / "before.json",
               "--components-after", t / "after.json", "--output", t / "dl.json"],
        "stats": ["stats", "--clustering", pairs, "--edgelist", net,
                  "--output", t / "stats.json"],
    }
    for argv in runs.values():
        assert run(argv) == 0
    capsys.readouterr()
    assert run(["stats", "--clustering", pairs]) == 0
    got = {"stats-stdout": digest(capsys.readouterr().out)}
    for name in ("generate", "audit", "eval", "dl", "stats"):
        got[name] = digest((t / f"{name}.json").read_text())
    for name in ("treat-wcc", "treat-cm"):
        got[name] = digest((t / f"{name}.tsv.run.json").read_text())
        got[f"{name}.tsv"] = digest((t / f"{name}.tsv").read_text())
    got["audit.tsv"] = digest((t / "audit.tsv").read_text())
    assert got == PINNED_DOCUMENTS


# Membership files that name labels outside the graph (x, y, z), a graph
# node that only the estimate names (f), and a repeated identical line.
# The expected payloads and table below were recorded before the universe
# rule had one implementation, and pin it on every eval and stats branch.
PIN_NET = "a\tb\nb\tc\nc\ta\nc\td\nd\te\ne\tf\nf\td\n"
PIN_TRUTH = "a\tT0\nb\tT0\nc\tT0\na\tT0\nd\tT1\ne\tT1\nx\tT2\ny\tT2\n"
PIN_EST = "b\tE0\na\tE0\nc\tE1\nd\tE1\ne\tE1\nf\tE1\nz\tE2\ny\tE2\n"
PIN_SAME = "y\tS0\nx\tS1\ne\tS1\nd\tS0\nc\tS2\nb\tS2\na\tS2\n"
SAME_SCORES = {
    "ari": 0.475,
    "nmi": 0.6329129160661657,
    "rmi": 0.36028053105738084,
    "rmi_unnormalized": 0.3218201089235765,
}


def eval_payload(scores, universe, dropped=None):
    """An eval payload; `dropped` = (truth, estimated) marks a restricted run."""
    truth, est = dropped or (0, 0)
    return {
        "metadata": {
            "dropped_estimated": est,
            "dropped_truth": truth,
            "log_base": 2,
            "nmi_normalization": "arithmetic-mean",
            "restricted": dropped is not None,
            "rmi_normalized": True,
            "rmi_table_count_clamped": [],
            "rmi_table_count_method": "exact-enumeration",
            "universe_nodes": universe,
        },
        "scores": scores,
    }


class TestUniversePins:
    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, text in (("net", PIN_NET), ("truth", PIN_TRUTH),
                           ("est", PIN_EST), ("same", PIN_SAME)):
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text(text)
        return paths

    @pytest.mark.parametrize("estimated, extra, expected", [
        ("est", ["--edgelist", "net"], eval_payload({
            "agri": -0.5217391304347826,
            "ari": 0.16494845360824742,
            "nmi": 0.6486621050971706,
            "rmi": 0.33261833294536275,
        }, 9)),
        ("est", ["--edgelist", "net", "--restrict-common"], eval_payload({
            "agri": -0.36363636363636365,
            "ari": 0.16666666666666666,
            "nmi": 0.43253806776631265,
            "rmi": 0.15747277199211226,
        }, 5, dropped=(2, 3))),
        ("same", ["--metrics", "nmi,ari,rmi,rmi_unnormalized"],
         eval_payload(SAME_SCORES, 7)),
        ("same", ["--metrics", "nmi,ari,rmi,rmi_unnormalized", "--restrict-common"],
         eval_payload(SAME_SCORES, 7)),
        ("est", ["--metrics", "nmi,ari,rmi,rmi_unnormalized", "--restrict-common"],
         eval_payload({
             "ari": 0.3181818181818182,
             "nmi": 0.6853314789615865,
             "rmi": 0.4671320180863541,
             "rmi_unnormalized": 0.4025062498798073,
         }, 6, dropped=(1, 2))),
    ], ids=["edgelist", "edgelist-restrict", "same-sets", "same-sets-restrict",
            "different-sets-restrict"])
    def test_eval_payload(self, tmp_path, files, estimated, extra, expected):
        out = tmp_path / "s.json"
        argv = ["eval", "--ground-truth", files["truth"], "--estimated", files[estimated]]
        argv += [files.get(tok, tok) for tok in extra]
        assert run(argv + ["--output", out]) == 0
        assert payload_of(out) == expected

    def test_eval_different_sets_exit_1(self, tmp_path, files, capsys):
        out = tmp_path / "s.json"
        assert run(["eval", "--ground-truth", files["truth"],
                    "--estimated", files["est"], "--metrics", "nmi",
                    "--output", out]) == 1
        assert capsys.readouterr().err == (
            "wellconn: error: clustering files cover different node sets "
            "(7 vs 8 labels); pass --restrict-common to use the intersection\n"
        )
        assert not out.exists()

    def test_stats_payload(self, tmp_path, files):
        out = tmp_path / "s.json"
        summary = {
            "max_nonsingleton_size": 3,
            "median_nonsingleton_size": 2.0,
            "non_singleton_count": 3,
        }
        assert run(["stats", "--clustering", files["truth"], "--output", out]) == 0
        assert payload_of(out) == {
            **summary, "clusters": 3, "node_coverage": 100.0, "nodes": 7,
            "singletons": 0,
        }
        assert run(["stats", "--clustering", files["truth"],
                    "--edgelist", files["net"], "--output", out]) == 0
        assert payload_of(out) == {
            **summary, "clusters": 4, "node_coverage": 87.5, "nodes": 8,
            "singletons": 1, "graph_edges": 7, "graph_nodes": 8,
            "missing_nodes": 1, "unknown_labels": 2,
        }

    def test_per_cluster_table_bytes(self, tmp_path, files):
        table = tmp_path / "table.tsv"
        out = tmp_path / "r.json"
        assert run(["audit", "--edgelist", files["net"], "--clustering", files["truth"],
                    "--per-cluster-table", table, "--output", out]) == 0
        assert table.read_bytes() == (
            b"cluster_id\tsize\tconnected\tmin_cut\tcategory\tthreshold_bound\tat_boundary\n"
            b"0\t3\tTrue\t2\twell\t0.47712125471966244\tFalse\n"
            b"1\t2\tTrue\t1\twell\t0.3010299956639812\tFalse\n"
            b"2\t1\tTrue\t\tsingleton\t0.0\tFalse\n"
            b"3\t2\tFalse\t\tdisconnected\t0.3010299956639812\tFalse\n"
        )
        graph = payload_of(out)["graph"]
        assert graph == {
            "digest": "f10314e39bc5264b4c12e039fb5d3975777ca0a675bc274cec433937aab4d98f",
            "edges": 7,
            "nodes": 8,
        }


def random_document(rng, depth: int = 0):
    """Nested JSON values: scalars, strings that hold JSON's own punctuation,
    empty containers, and lists of flat records."""
    def scalar():
        kind = rng.integers(6)
        if kind == 0:
            return int(rng.integers(-10**6, 10**6))
        if kind == 1:
            return float(rng.random() * 10.0 ** rng.integers(-5, 20))
        if kind == 2:
            return [None, True, False, float("nan"), -0.0][int(rng.integers(5))]
        parts = ["a", '"', "\\", "\n", "},\n{", "{", "]", ",", ": ", "é", "\x00"]
        return "".join(rng.choice(parts, size=int(rng.integers(0, 5))))

    def key():
        value = scalar()
        return value if isinstance(value, str) else str(value)

    kind = rng.integers(5) if depth < 4 else 0
    if kind <= 1:
        return scalar()
    if kind == 2:
        return [random_document(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    if kind == 3:
        return {key(): random_document(rng, depth + 1) for _ in range(rng.integers(0, 4))}
    keys = [key() for _ in range(rng.integers(0, 4))]
    return [
        {k: scalar() if rng.random() < 0.9 else [{}, []][int(rng.integers(2))] for k in keys}
        for _ in range(rng.integers(0, 6))
    ]


def test_documents_are_encoded_as_by_the_indented_encoder(tmp_path, monkeypatch):
    from wellconn import cli

    monkeypatch.setattr(cli, "_RECORDS_PER_BLOCK", 2)  # records span blocks
    rng = np.random.default_rng(5)
    reference = json.JSONEncoder(indent=2, sort_keys=True)
    for i in range(2000):
        manifest = {"run": i}
        payload = {str(j): random_document(rng) for j in range(rng.integers(0, 4))}
        cli._write_document(tmp_path / "doc.json", manifest, payload)
        expected = reference.encode({"manifest": manifest, "payload": payload}) + "\n"
        assert (tmp_path / "doc.json").read_text() == expected
