#!/usr/bin/env python3
"""Benchmark of wellconn's treat, audit and eval commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark makes the workload's inputs from
the seed, runs `treat`, `audit` (of the treated clustering) and `eval` (of
the treated clustering against the planted one) through the CLI in rounds
for S seconds, checks every output apart from the program, and prints one
JSON object as its last line. With `--trace 0` it reports the end-to-end
metrics: median wall time at reference speed and median peak RSS per
command, from `os.wait4` on that command's process alone. With `--trace 1`
it reports per-layer metrics from a traced in-process run of each command
with one worker (see traced.py).
`--smoke` runs every workload on tiny inputs, both ways, in seconds.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from launcher import reference_pass

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
COMMANDS = ("treat", "audit", "eval")
SETUPS = 9  # setup_s is the median of this many set-ups in one run
LARGE_CUT = 1000  # min_cut_csr calls on at least this many nodes count as large
# The machine's speed drifts by up to 1.9x for a minute or more at a time
# (README). So every time is taken at reference speed: its wall time times
# REFERENCE_S over the time of reference_pass() measured just before and just
# after it, on as many CPUs as the timed work uses. REFERENCE_S is about that
# pass's time on the README's machine when nothing slows it.
REFERENCE_S = 0.015

END_TO_END = [("setup_s", "s")] + [(f"{c}_s", "s") for c in COMMANDS] + [
    (f"{c}_rss_mb", "MB") for c in COMMANDS
]


def _per_layer() -> list[tuple[str, str]]:
    kernels = [
        "kernels.min_cut_csr_s", "kernels.min_cut_csr_calls", "kernels.min_cut_csr_edges",
        "kernels.min_cut_csr_large_s", "kernels.min_cut_csr_small_s",
        "kernels.induced_csr_s", "kernels.induced_csr_calls", "kernels.induced_csr_edges",
        "kernels.connected_labels_s", "kernels.connected_labels_calls",
    ]
    common = [
        "cli.import_s", "cli.self_s", "cli.sha256_s", "cli.write_document_s",
        "graph.load_edgelist_s", "clustering.from_assignment_s",
        "clustering.from_assignment_calls", "trace.wall_s", "trace.overhead",
        "trace.coverage",
    ]
    loads = ["clustering.load_clustering_s", "clustering.read_membership_s"]
    by_command = {
        "treat": common + loads + kernels + [
            "kernels.low_degree_peel_s", "kernels.low_degree_peel_calls",
            "kernels.peeled_vertices", "treatments.self_s", "treatments.cuts_performed",
            "treatments.components_splits", "treatments.pool_cpu_s",
            "treatments.pool_utilization", "graph.split_by_label_s",
            "clustering.write_clustering_s",
        ],
        "audit": common + loads + kernels + [
            "audit.self_s", "audit.pool_cpu_s", "audit.pool_utilization",
        ],
        "eval": common + [
            "clustering.read_membership_s", "metrics.nmi_s", "metrics.ari_s",
            "metrics.agri_s", "metrics.rmi_s",
        ],
    }
    names = ["gadgets.generate_s"] + [f"{c}.{m}" for c in COMMANDS for m in by_command[c]]
    return [(name, _unit(name)) for name in names]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("utilization", "overhead", "coverage")):
        return "ratio"
    return "count"


PER_LAYER = _per_layer()


@dataclass
class Run:
    """One finished command, measured by os.wait4 on its process alone."""

    exit_code: int
    wall_s: float
    cpu_s: float  # the process and the workers it reaped
    rss_mb: float  # peak RSS of the process and the workers it reaped
    speed: float  # the machine's speed around the run, as from speed()

    @property
    def scaled_s(self) -> float:
        """Wall time at reference speed."""
        return self.wall_s * self.speed


def speed(before: float, after: float) -> float:
    """The machine's speed relative to the reference, from passes around a run."""
    return 2 * REFERENCE_S / (before + after)


class Launcher:
    """The small process that starts every command and reaps it (launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def _send(self, request: dict) -> None:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def _receive(self) -> dict:
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        return json.loads(reply)

    def reference(self, workers: int) -> float:
        """The reference pass, on as many CPUs at once as a command's workers."""
        if workers == 1:
            return reference_pass()
        self._send({"reference": True})
        mine = reference_pass()  # while the launcher makes its own
        return (mine + self._receive()["pass_s"]) / 2

    def run(self, argv: list[str], log: Path, workers: int) -> Run:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        before = self.reference(workers)
        self._send({"argv": argv, "stderr": str(log), "env": env, "cwd": str(ROOT)})
        reply = self._receive()
        return Run(**reply, speed=speed(before, self.reference(workers)))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def payload_digest(path: Path) -> str:
    payload = json.loads(path.read_text(encoding="utf-8"))["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Pipeline:
    """The three commands of one workload, run on its files in one directory."""

    def __init__(self, workload, inputs, directory: Path, launcher: Launcher):
        self.launcher = launcher
        self.workload = workload
        self.inputs = inputs
        self.dir = directory
        self.log = directory / "stderr.log"

    def treated(self, tag: str) -> Path:
        return self.dir / f"treated-{tag}.tsv"

    def report(self, command: str, tag: str) -> Path:
        if command == "treat":
            return self.dir / f"treated-{tag}.tsv.run.json"
        return self.dir / f"{command}-{tag}.json"

    def argv(self, command: str, workers: int, tag: str, source: str) -> list[str]:
        """CLI arguments; `source` tags the treated clustering audit and eval read."""
        edges = str(self.inputs.edgelist)
        if command == "treat":
            return ["treat", "--edgelist", edges,
                    "--existing-clustering", str(self.inputs.clustering),
                    "--mode", self.workload.mode, "--threshold", "1log10",
                    "--num-processors", str(workers), "--output-file", str(self.treated(tag))]
        if command == "audit":
            return ["audit", "--edgelist", edges, "--clustering", str(self.treated(source)),
                    "--threshold", "1log10", "--num-processors", str(workers),
                    "--output", str(self.report("audit", tag))]
        return ["eval", "--ground-truth", str(self.inputs.truth),
                "--estimated", str(self.treated(source)), "--edgelist", edges,
                "--metrics", "nmi,ari,agri,rmi", "--output", str(self.report("eval", tag))]

    def workers(self, command: str) -> int:
        return {"treat": self.workload.treat_workers,
                "audit": self.workload.audit_workers}.get(command, 1)

    def run_cli(self, command: str, workers: int, tag: str, source: str) -> Run:
        argv = [sys.executable, "-m", "wellconn", *self.argv(command, workers, tag, source)]
        return self.launcher.run(argv, self.log, workers)

    def run_traced(self, command: str, trace_file: Path) -> Run:
        argv = [sys.executable, str(HERE / "traced.py"), str(trace_file), "--",
                *self.argv(command, 1, "traced", "traced")]
        return self.launcher.run(argv, self.log, 1)

    def digests(self, tag: str, commands=COMMANDS) -> dict[str, str]:
        out = {c: payload_digest(self.report(c, tag)) for c in commands}
        if "treat" in commands:
            out["treated"] = sha256(self.treated(tag))
        return out


class Round:
    """Attempts of one round; a command whose input failed is not run."""

    def __init__(self):
        self.runs: dict[str, Run] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, commands, start) -> "Round":
        for command in commands:
            self.attempted += 1
            if self.failed:
                self.failed += 1
                continue
            run = start(command)
            self.runs[command] = run
            if run.exit_code != 0:
                self.failed += 1
        return self


class Verifier:
    """Checks the outputs of the first round in full, later ones by digest."""

    def __init__(self, pipeline: Pipeline):
        import checks

        self.checks = checks
        self.pipe = pipeline
        inputs = pipeline.inputs
        self.edges = checks.EdgeFile(inputs.edgelist, len(inputs.labels))
        self.reference: dict[str, str] | None = None
        self.failures: list[str] = []
        self.cuts_checked = 0

    def verify(self, tag: str, commands=COMMANDS) -> None:
        try:
            digests = self.pipe.digests(tag, commands)
            if self.reference is None:
                self.reference = digests
                self._full(tag)
            for key, value in digests.items():
                if value != self.reference[key]:
                    raise self.checks.CheckFailed(f"{key} output differs between runs")
        except (self.checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failures.append(str(exc))
            print(f"perfbench: CHECK FAILED ({tag} run): {exc}", file=sys.stderr, flush=True)

    def _full(self, tag: str) -> None:
        c, pipe, inputs = self.checks, self.pipe, self.pipe.inputs
        mode = pipe.workload.mode
        n = len(inputs.labels)
        out, order = c.read_partition(pipe.treated(tag), n)
        treat = json.loads(pipe.report("treat", tag).read_text())["payload"]
        c.check_treat_payload(treat, self.edges, out, mode)
        if treat["output_sha256"] != sha256(pipe.treated(tag)):
            raise c.CheckFailed("treat payload names another output digest")
        planted = inputs.truth_assignment if pipe.workload.name == "wcc-merged" else None
        c.check_treated(mode, self.edges, inputs.input_assignment, out, planted)
        audit = json.loads(pipe.report("audit", tag).read_text())["payload"]
        self.cuts_checked = c.check_audit(audit, mode, self.edges, out, order)
        evaluation = json.loads(pipe.report("eval", tag).read_text())["payload"]
        c.check_eval(evaluation, self.edges, inputs.truth_assignment, out)


def timed_rounds(seconds: float, body) -> list:
    """Run `body` at least once, and again while the next call should fit."""
    started = time.perf_counter()
    results = []
    while True:
        begun = time.perf_counter()
        results.append(body())
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            return results


def setup(name: str, seed: int, directory: Path, scale: str):
    import workloads

    times, gen_times, inputs = [], [], None
    for _ in range(SETUPS):
        before = reference_pass()
        started = time.perf_counter()
        inputs = workloads.make_inputs(name, seed, directory, scale)
        wall = time.perf_counter() - started
        times.append(wall * speed(before, reference_pass()))
        gen_times.append(inputs.generate_s)
    return inputs, statistics.median(times), statistics.median(gen_times)


def layer_metrics(command: str, doc: dict) -> dict[str, float]:
    """Per-layer figures of one traced command (names without the prefix)."""
    spans = doc["spans"]
    children = [0.0] * len(spans)
    for sid, parent, _name, start, end, _counts in spans:
        if parent >= 0:
            children[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    for sid, _parent, name, start, end, counts in spans:
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - children[sid]
        calls[name] = calls.get(name, 0) + 1
        if name == "kernels.min_cut_csr":
            key = "large" if counts["n"] >= LARGE_CUT else "small"
            total[f"min_cut_{key}"] = total.get(f"min_cut_{key}", 0.0) + duration
        for key, value in (counts or {}).items():
            counted[f"{name}.{key}"] = counted.get(f"{name}.{key}", 0) + value
    m = {
        "cli.import_s": doc["import_s"],
        "cli.self_s": own["cli.main"],
        "trace.wall_s": doc["wall_s"],
        "trace.coverage": (doc["import_s"] + sum(own.values())) / doc["wall_s"],
        "kernels.min_cut_csr_large_s": total.get("min_cut_large", 0.0),
        "kernels.min_cut_csr_small_s": total.get("min_cut_small", 0.0),
        "kernels.min_cut_csr_edges": counted.get("kernels.min_cut_csr.m", 0),
        "kernels.induced_csr_edges": counted.get("kernels.induced_csr.m", 0),
        "kernels.peeled_vertices": counted.get("kernels.low_degree_peel.peeled", 0),
        "treatments.self_s": own.get("treatments", 0.0),
        "audit.self_s": own.get("audit", 0.0),
    }
    for name in calls:
        if name not in ("treatments", "audit", "cli.main"):
            m[f"{name}_s"] = total[name]
            m[f"{name}_calls"] = calls[name]
    return m


def measure(pipe: Pipeline, seconds: float) -> tuple[list[Round], Verifier]:
    verifier = Verifier(pipe)

    def body() -> Round:
        rnd = Round().run(COMMANDS, lambda c: pipe.run_cli(c, pipe.workers(c), "cli", "cli"))
        if not rnd.failed:
            verifier.verify("cli")
        return rnd

    return timed_rounds(seconds, body), verifier


def trace(pipe: Pipeline, seconds: float, traces: Path,
          generate_s: float) -> tuple[list[Round], list[dict], Verifier]:
    verifier = Verifier(pipe)
    parallel = [c for c in COMMANDS if pipe.workers(c) > 1]
    figures: list[dict] = []

    def body() -> Round:
        rnd = Round().run(COMMANDS, lambda c: pipe.run_cli(c, pipe.workers(c), "cli", "cli"))
        if rnd.failed:
            return rnd
        verifier.verify("cli")
        untraced = dict(rnd.runs)
        # the same commands with one worker, as the traced run has
        single = Round().run(parallel, lambda c: pipe.run_cli(c, 1, "single", "cli"))
        traced = Round().run(
            COMMANDS, lambda c: pipe.run_traced(c, traces.with_name(f"{traces.name}-{c}.json"))
        )
        for part in (single, traced):
            rnd.attempted += part.attempted
            rnd.failed += part.failed
        if rnd.failed:
            return rnd
        verifier.verify("single", parallel)
        verifier.verify("traced")
        untraced.update(single.runs)
        treat = json.loads(pipe.report("treat", "cli").read_text())["payload"]["trace"]
        m = {"gadgets.generate_s": generate_s}
        for c in COMMANDS:
            doc = json.loads(traces.with_name(f"{traces.name}-{c}.json").read_text())
            for key, value in layer_metrics(c, doc).items():
                m[f"{c}.{key}"] = value
            m[f"{c}.trace.overhead"] = traced.runs[c].scaled_s / untraced[c].scaled_s
        for c, module in (("treat", "treatments"), ("audit", "audit")):
            run = rnd.runs[c]
            m[f"{c}.{module}.pool_cpu_s"] = run.cpu_s
            m[f"{c}.{module}.pool_utilization"] = run.cpu_s / (run.wall_s * pipe.workers(c))
        m["treat.treatments.cuts_performed"] = treat["cuts_performed"]
        m["treat.treatments.components_splits"] = treat["components_splits"]
        figures.append(m)
        return rnd

    return timed_rounds(seconds, body), figures, verifier


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, traced: bool,
                 scale: str) -> dict:
    import workloads
    from wellconn import _kernels

    workload = workloads.WORKLOADS[name]
    directory = WORK / f"{name}-seed{seed}-{os.getpid()}"
    print(f"perfbench: workload {name} seed {seed} scale {scale} trace {int(traced)} "
          f"numba_enabled {_kernels.NUMBA_ENABLED} cpus {os.cpu_count()}", flush=True)
    try:
        inputs, setup_s, generate_s = setup(name, seed, directory, scale)
        pipe = Pipeline(workload, inputs, directory, launcher)
        if traced:
            traces = WORK / "traces" / f"{name}-seed{seed}"
            traces.parent.mkdir(parents=True, exist_ok=True)
            rounds, figures, verifier = trace(pipe, seconds, traces, generate_s)
        else:
            rounds, verifier = measure(pipe, seconds)
        ok = [r for r in rounds if not r.failed]
        metrics: dict[str, dict] = {}
        if traced:
            for key, unit in PER_LAYER:
                values = [f.get(key, 0) for f in figures]
                metrics[key] = {"value": statistics.median(values) if values else 0, "unit": unit}
        else:
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            for c in COMMANDS:
                if ok:
                    runs = [r.runs[c] for r in ok]
                    scaled = statistics.median(r.scaled_s for r in runs)
                    rss = statistics.median(r.rss_mb for r in runs)
                    metrics[f"{c}_s"] = {"value": scaled, "unit": "s"}
                    metrics[f"{c}_rss_mb"] = {"value": rss, "unit": "MB"}
                    print(f"perfbench: {c}: at reference speed median {scaled:.3f} s; wall "
                          f"min {min(r.wall_s for r in runs):.3f} s, median "
                          f"{statistics.median(r.wall_s for r in runs):.3f} s; cpu median "
                          f"{statistics.median(r.cpu_s for r in runs):.3f} s; speed median "
                          f"{statistics.median(r.speed for r in runs):.3f}; peak rss "
                          f"{rss:.1f} MB; workers {pipe.workers(c)}", flush=True)
        print(f"perfbench: {len(rounds)} rounds, setup {setup_s:.3f} s, "
              f"{verifier.cuts_checked} min cuts redone by networkx", flush=True)
        return {
            "correct": not verifier.failures,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def smoke(launcher: Launcher, seed: int) -> int:
    """Every workload, untraced and traced, on tiny inputs; 0 when all pass."""
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            result = run_workload(launcher, name, seed, 0.0, traced, "smoke")
            names = {k for k, _ in (PER_LAYER if traced else END_TO_END)}
            good = (result["correct"] and result["failed"] == 0
                    and set(result["metrics"]) == names)
            bad += not good
            print(json.dumps({"workload": name, "trace": int(traced), **result}), flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check them")
    args = parser.parse_args(argv)
    if not (SRC / "wellconn" / "__init__.py").is_file():
        print(f"perfbench: no wellconn sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with Launcher() as launcher:  # before numpy is loaded, see launcher.py
        sys.path.insert(0, str(SRC))
        if args.smoke:
            return smoke(launcher, args.seed)
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        result = run_workload(launcher, args.workload, args.seed, args.seconds,
                              bool(args.trace), "full")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
