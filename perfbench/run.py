#!/usr/bin/env python3
"""mpisentinel benchmark: ``ingest`` then ``evaluate`` on a seeded corpus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run generates the workload's corpus
from the seed, checks that every module parses and builds a program graph,
runs ``mpisentinel ingest`` several times (the set-up time is the median
wall time), then runs ``mpisentinel evaluate`` as a child process again and
again for about S seconds and reports medians.  Every child runs alone,
with ``--jobs 1`` and one BLAS thread.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced evaluate runs (the traced child wraps mpisentinel's
public functions from this directory; see tracer.py) and prints per-layer
metrics instead.  Reports of every evaluate run, traced or not, must be
byte-identical.

Earlier stdout lines give the environment, the input size and every
metric by name and unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is
the number of samples scored over all evaluate runs, ``failed`` the number
of them counted as compile error, timeout or runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from gen_corpus import CORRECT, generate  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
HARD_LIMIT_S = 170.0        # every run ends well inside 180 s

END_TO_END_UNITS = {
    "evaluate_s": "s",
    "evaluate_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "accuracy": "share",
}

PER_LAYER_UNITS = {
    "tabular.fitness_calls": "count",
    "tabular.fitness_per_s": "1/s",
    "tabular.train_tree_calls": "count",
    "tabular.train_tree_self_s": "s",
    "tabular.run_ga_self_s": "s",
    "tabular.predict_tree_self_s": "s",
    "embed.calls": "count",
    "embed.self_s": "s",
    "embed.us_per_module": "us",
    "embed.normalize_self_s": "s",
    "ircore.parse_calls": "count",
    "ircore.parse_self_s": "s",
    "ircore.parse_mb_per_s": "MB/s",
    "gnn.train_s": "s",
    "gnn.graph_steps": "count",
    "gnn.graph_steps_per_s": "1/s",
    "gnn.logits_batch_self_s": "s",
    "gnn.predict_graphs_per_s": "1/s",
    "autodiff.backward_self_s": "s",
    "autodiff.adam_step_self_s": "s",
    "graph.build_calls": "count",
    "graph.build_self_s": "s",
    "graph.us_per_module": "us",
    "graph.nodes": "count",
    "graph.edges": "count",
    "corpus.samples": "count",
    "corpus.ingest_self_s": "s",
    "corpus.read_manifest_s": "s",
    "evaluate.run_scenario_s": "s",
    "evaluate.self_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Runner:
    """Runs mpisentinel children one at a time, pinned and measured."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        env = dict(os.environ)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.env = env

    def run(self, argv: list[str], ok_codes=(0,)) -> ChildRun:
        """Run one child to completion; wall time, CPU time and peak RSS
        come from wait4 on that child alone."""
        self.count += 1
        log = self.work / f"child{self.count:03d}"
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("time limit reached before a child could start")
        with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in ok_codes:
            tail = Path(f"{log}.err").read_text()[-2000:]
            raise BenchError(f"{argv[1:4]}... exited {proc.returncode}: {tail}")
        return ChildRun(wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0)


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "mpisentinel.cli", "--jobs", "1", *args]


def traced_argv(spans: Path, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), "--spans", str(spans),
            "--", "--jobs", "1", *args]


# ---------------------------------------------------------------------------
# Environment and input

def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "commit": commit}


def check_modules(corpus: Path) -> dict:
    """Every module must parse, define functions and build a non-empty
    program graph; returns the input size."""
    from mpisentinel import graph, ircore

    files = sorted(corpus.glob("*.ll"))
    sizes = {"bytes": 0, "functions": 0, "instructions": 0, "nodes": 0, "edges": 0}
    for path in files:
        text = path.read_text()
        try:
            module = ircore.parse_ir(text, path.name)
            g = graph.build_graph(module)
        except Exception as exc:  # any failure here is a generator or parser bug
            raise BenchError(f"{path.name}: {type(exc).__name__}: {exc}") from exc
        if not module.defined_functions() or not g.nodes:
            raise BenchError(f"{path.name}: no functions or an empty graph")
        sizes["bytes"] += len(text)
        sizes["functions"] += len(module.defined_functions())
        sizes["instructions"] += sum(1 for _ in module.instructions())
        sizes["nodes"] += len(g.nodes)
        sizes["edges"] += len(g.edges)
    n = len(files)
    return {"modules": n, "ir_bytes": sizes["bytes"],
            **{f"mean_{k}": sizes[k] / n for k in
               ("functions", "instructions", "nodes", "edges")}}


def check_manifest(path: Path, truth: dict[str, str], corpus: Path) -> list[str]:
    doc = json.loads(path.read_text())
    problems = []
    seen = set()
    for s in doc["samples"]:
        rel = Path(s["source"]).name
        seen.add(rel)
        if truth.get(rel) != s["label"]:
            problems.append(f"{rel}: label {s['label']!r}, expected {truth.get(rel)!r}")
        if s["status"] != "ok" or s["quarantined"]:
            problems.append(f"{rel}: status {s['status']}, quarantined {s['quarantined']}")
        elif not (Path(s["ir"]).is_absolute() and Path(s["ir"]).parent == corpus):
            problems.append(f"{rel}: IR path {s['ir']!r} is not under {corpus}")
    if seen != set(truth):
        problems.append(f"manifest has {len(seen)} samples, corpus {len(truth)}")
    return problems


def check_report(report: dict, truth: dict[str, str]) -> list[str]:
    """Folds partition the corpus and the aggregate is scored against the
    generator's labels."""
    problems = []
    ids = {f"mbi:{rel}@O0" for rel in truth}
    validated: list[str] = []
    for fold in report["folds"]:
        train, val = set(fold["train_ids"]), set(fold["validation_ids"])
        if train & val or train | val != ids:
            problems.append(f"fold {fold['fold']} does not split the corpus")
        validated += fold["validation_ids"]
    if sorted(validated) != sorted(ids):
        problems.append("validation folds do not partition the corpus")
    counts = report["aggregate"]["counts"]
    n_correct = sum(1 for lab in truth.values() if lab == CORRECT)
    if counts["tn"] + counts["fp"] != n_correct:
        problems.append("aggregate Correct count differs from the generator's")
    if counts["tp"] + counts["fn"] != len(truth) - n_correct:
        problems.append("aggregate Incorrect count differs from the generator's")
    total = counts["tp"] + counts["tn"] + counts["fp"] + counts["fn"]
    accuracy = report["aggregate"]["metrics"]["accuracy"]
    if total and accuracy != (counts["tp"] + counts["tn"]) / total:
        problems.append("aggregate accuracy does not match its counts")
    return problems


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced evaluate (and one traced ingest)

def layer_metrics(evaluate_doc: dict, ingest_doc: dict) -> dict[str, float]:
    spans = evaluate_doc["spans"]
    s = summarize(spans)
    zero = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "work": []}

    def get(name):
        return s.get(name, zero)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def work(name, k):
        w = get(name)["work"]
        return w[k] if len(w) > k else 0

    fitness, parse = get("tabular.fitness"), get("ircore.parse_ir")
    emb, build = get("embed.embed"), get("graph.build_graph")
    train, predict = get("gnn.train"), get("gnn.predict_gnn")
    steps = sum(span[4][0] for span in spans
                if span[0] == "gnn.logits_batch" and span[3] >= 0
                and spans[span[3]][0] == "gnn.train")
    ingest = summarize(ingest_doc["spans"])
    first = spans[0] if spans else None
    return {
        "tabular.fitness_calls": fitness["calls"],
        "tabular.fitness_per_s": rate(fitness["calls"], fitness["inclusive_s"]),
        "tabular.train_tree_calls": get("tabular.train_tree")["calls"],
        "tabular.train_tree_self_s": get("tabular.train_tree")["self_s"],
        "tabular.run_ga_self_s": get("tabular.run_ga")["self_s"],
        "tabular.predict_tree_self_s": get("tabular.predict_tree")["self_s"],
        "embed.calls": emb["calls"],
        "embed.self_s": emb["self_s"],
        "embed.us_per_module": 1e6 * rate(emb["inclusive_s"], emb["calls"]),
        "embed.normalize_self_s": get("embed.normalize")["self_s"],
        "ircore.parse_calls": parse["calls"],
        "ircore.parse_self_s": parse["self_s"],
        "ircore.parse_mb_per_s": rate(work("ircore.parse_ir", 0) / 1e6,
                                      parse["inclusive_s"]),
        "gnn.train_s": train["inclusive_s"],
        "gnn.graph_steps": steps,
        "gnn.graph_steps_per_s": rate(steps, train["inclusive_s"]),
        "gnn.logits_batch_self_s": get("gnn.logits_batch")["self_s"],
        "gnn.predict_graphs_per_s": rate(predict["calls"], predict["inclusive_s"]),
        "autodiff.backward_self_s": get("autodiff.backward")["self_s"],
        "autodiff.adam_step_self_s": get("autodiff.adam_step")["self_s"],
        "graph.build_calls": build["calls"],
        "graph.build_self_s": build["self_s"],
        "graph.us_per_module": 1e6 * rate(build["inclusive_s"], build["calls"]),
        "graph.nodes": work("graph.build_graph", 0),
        "graph.edges": work("graph.build_graph", 1),
        "corpus.samples": (ingest.get("corpus.ingest_mbi", zero)["work"] or [0])[0],
        "corpus.ingest_self_s": sum(v["self_s"] for k, v in ingest.items()
                                    if k.startswith("corpus.")),
        "corpus.read_manifest_s": get("corpus.read_manifest")["inclusive_s"],
        "evaluate.run_scenario_s": get("evaluate.run_scenario")["inclusive_s"],
        "evaluate.self_s": get("evaluate.run_scenario")["self_s"],
        "cli.startup_s": first[1] - evaluate_doc["started"] if first else 0.0,
        "cli.self_s": get("cli.main")["self_s"],
    }


def layer_shares(evaluate_doc: dict) -> dict[str, float]:
    """Share of the traced evaluate's cli.main time spent as self time in
    each layer (module)."""
    s = summarize(evaluate_doc["spans"])
    total = s["cli.main"]["inclusive_s"]
    shares: dict[str, float] = {}
    for name, entry in s.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + entry["self_s"] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    started = time.perf_counter()
    if not (SRC / "mpisentinel" / "cli.py").is_file():
        raise BenchError(f"no mpisentinel sources under {SRC}")
    workload = (SMOKE if smoke else WORKLOADS)[workload_name]
    work = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _measure(workload, seed, seconds, trace, work: Path, started: float) -> dict:
    sys.path.insert(0, str(SRC))
    runner = Runner(work, started + HARD_LIMIT_S)
    corpus = work / "corpus"
    truth = generate(corpus, workload.corpus, seed)
    size = check_modules(corpus)
    problems: list[str] = []

    # set-up: ingest with absolute directories, several times
    setup = []
    for k in range(SETUP_REPEATS):
        manifest = work / f"manifest{k}.json"
        setup.append(runner.run(cli_argv(
            "ingest", "--suite", "mbi", "--dir", str(corpus), "--opt", "O0",
            "--compiler-cmd", "none", "--out", str(manifest))).wall_s)
    manifest = work / "manifest0.json"
    problems += check_manifest(manifest, truth, corpus)
    if any((work / f"manifest{k}.json").read_bytes() != manifest.read_bytes()
           for k in range(1, SETUP_REPEATS)):
        problems.append("repeated ingests wrote different manifests")
    evaluate_args = ("evaluate", "--manifest", str(manifest), "--scenario",
                     "intra", "--suite", "MBI", "--seed", "0",
                     *workload.evaluate_args)

    ingest_doc = None
    if trace:
        spans = work / "ingest.spans.json"
        runner.run(traced_argv(spans, "ingest", "--suite", "mbi", "--dir",
                               str(corpus), "--opt", "O0", "--compiler-cmd",
                               "none", "--out", str(work / "traced_manifest.json")))
        ingest_doc = json.loads(spans.read_text())
        if (work / "traced_manifest.json").read_bytes() != manifest.read_bytes():
            problems.append("traced ingest wrote a different manifest")

    # measured window: evaluate again and again for about `seconds`; exit
    # code 1 means per-sample failures, which the report counts
    plain: list[ChildRun] = []
    traced: list[ChildRun] = []
    layers: list[dict] = []
    shares = None
    reports: list[bytes] = []
    window = time.perf_counter()
    while True:
        report = work / f"report{len(reports)}.json"
        plain.append(runner.run(cli_argv(*evaluate_args, "--report", str(report)),
                                (0, 1)))
        reports.append(report.read_bytes())
        if trace:
            spans = work / f"evaluate{len(traced)}.spans.json"
            report = work / f"report{len(reports)}.json"
            traced.append(runner.run(traced_argv(
                spans, *evaluate_args, "--report", str(report)), (0, 1)))
            reports.append(report.read_bytes())
            doc = json.loads(spans.read_text())
            layers.append(layer_metrics(doc, ingest_doc))
            shares = shares or layer_shares(doc)
        rep_s = statistics.median(r.wall_s for r in plain) + \
            (statistics.median(r.wall_s for r in traced) if trace else 0.0)
        if time.perf_counter() - window + rep_s > seconds:
            break

    if any(r != reports[0] for r in reports[1:]):
        problems.append("evaluate reports differ between runs"
                        + (" (traced vs untraced)" if trace else ""))
    report = json.loads(reports[0])
    problems += check_report(report, truth)
    counts = report["aggregate"]["counts"]
    attempted = report["provenance"]["samples_in_scope"] * len(reports)
    failed = (counts["ce"] + counts["to"] + counts["re"]) * len(reports)
    if failed:
        problems.append(f"{failed} samples failed (CE+TO+RE)")

    if trace:
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "evaluate_s": statistics.median(r.wall_s for r in plain),
            "evaluate_cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": statistics.median(setup),
            "accuracy": report["aggregate"]["metrics"]["accuracy"],
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "env": environment(), "input": size,
        "runs": {"ingest_s": setup, "evaluate_s": [r.wall_s for r in plain],
                 "traced_evaluate_s": [r.wall_s for r in traced]},
        "failed_share": failed / attempted,
        "layer_shares": shares,
        "problems": problems,
        "result": {
            "correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus and settings, for the self-test")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.smoke)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    result = out.pop("result")
    print(json.dumps(out, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {out['failed_share']:.6g} share")
    for problem in out["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
