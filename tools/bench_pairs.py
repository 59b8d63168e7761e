#!/usr/bin/env python3
"""Paired benchmark of two commits: parent against change.

    python3 tools/bench_pairs.py --parent REV --change REV \\
        --first-seed 100 --out BENCH_<n>.json

Run from the repository root.  Both commits' committed files are
extracted with ``git archive`` into a temporary directory, so the working
tree and ``.git`` are left as they are.  For every workload that
BENCHMARK.json declares, pair i of PAIRS runs ``perfbench/run.py
--workload W --seed <first-seed + i> --seconds S`` once in each checkout,
one run at a time, with S the declared ``run_seconds``; the parent runs
first in even pairs and second in odd ones, and each pair's declared
end-to-end metrics are printed as it ends.  The output file holds the
environment, every run's end-to-end metrics, each side's median and
quartiles, the change's wins per pair (ties count for neither side), the
median delta, the change's median in the newest committed
``BENCH_<n>.json`` other than the output file (``previous_median``, null
where that file lacks the metric or there is none) and a verdict per
metric.  ``previous_median`` was measured on another day, when the
machine may have run faster or slower, so it is context only: no verdict
reads it, and only the paired runs of one invocation compare code.
``env`` is the first parent run's environment, plus whether
``PYTHONDONTWRITEBYTECODE`` is set: every run inherits it, and with it set
each ``evaluate`` child compiles mpisentinel from source, which adds to
both sides' ``evaluate_s``.
The verdicts:

- ``regression``: the change's median is worse than the parent's by more
  than ``bound`` x |parent median|;
- ``unresolved``: the parent's interquartile range is wider than that
  margin, and not every change run beats every parent run;
- ``gain``: the change wins at least 9 of 10 pairs, and its median is
  better by more than the parent's interquartile range;
- ``within-bound``: none of these.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> Path:
    """The committed files of rev under dest."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def previous_record(rev: str, out: str) -> tuple[str | None, dict]:
    """(name, contents) of the BENCH_<n>.json with the largest n committed
    at rev, other than out; (None, {}) when there is none."""
    numbered = {}
    for name in git("ls-tree", "--name-only", rev).splitlines():
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if match and name != Path(out).name:
            numbered[int(match.group(1))] = name
    if not numbered:
        return None, {}
    name = numbered[max(numbered)]
    return name, json.loads(git("show", f"{rev}:{name}"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its first and last stdout lines are JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout.name} {workload} seed {seed}: "
                         f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    head, result = json.loads(lines[0]), json.loads(lines[-1])
    return {"seed": seed, "env": head["env"], "problems": head["problems"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, change_wins: int, pairs: int,
            sign: float, bound: float) -> str:
    """regression, unresolved, gain or within-bound; see the module doc."""
    margin = bound * abs(parent["median"])
    worse_by = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    # sign * value is lower-is-better whichever way the metric points
    every_run_beats = (max(sign * v for v in change["runs"])
                       < min(sign * v for v in parent["runs"]))
    if worse_by > margin:
        return "regression"
    if iqr > margin and not every_run_beats:
        return "unresolved"
    if 10 * change_wins >= 9 * pairs and -worse_by > iqr:
        return "gain"
    return "within-bound"


def summarize(pairs: list[dict], declared: dict,
              previous: dict | None = None) -> dict:
    """Per metric: each side's spread, wins of the change, the delta, the
    previous record's change median and the verdict.  previous holds the
    previous record's metrics for the same workload."""
    previous = previous or {}
    out = {}
    for name, spec in declared.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        p, c = spread(parent), spread(change)
        wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c,
            "change_wins": wins,
            "parent_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "delta": c["median"] - p["median"],
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "parent_iqr": p["q3"] - p["q1"],
            "previous_median": previous.get(name, {}).get("change", {}).get("median"),
            "verdict": verdict(p, c, wins, len(pairs), sign, spec["bound"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    revs = {side: git("rev-parse", rev)
            for side, rev in (("parent", args.parent), ("change", args.change))}
    previous_name, previous = previous_record(revs["change"], args.out)
    doc = {"parent": revs["parent"], "change": revs["change"],
           "previous": previous_name,
           "settings": {"pairs": PAIRS, "seconds": seconds,
                        "seeds": [args.first_seed + i for i in range(PAIRS)],
                        "order": "parent first in even pairs, change first in odd"},
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: extract(rev, Path(tmp) / side) for side, rev in revs.items()}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: run_once(dirs[side], workload, seed, seconds)
                        for side in sides}
                pairs.append(pair)
                print(workload, seed, {name: {s: pair[s]["metrics"][name]
                                              for s in sides}
                                       for name in declared}, flush=True)
            # Python reads the variable as set when it is a non-empty string
            doc["env"] = {**pairs[0]["parent"]["env"], "PYTHONDONTWRITEBYTECODE":
                          bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}
            doc["workloads"][workload] = {
                "failed": {s: sum(p[s]["failed"] for p in pairs) for s in revs},
                "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in revs},
                "problems": {s: [x for p in pairs for x in p[s]["problems"]]
                             for s in revs},
                "metrics": summarize(
                    pairs, declared,
                    previous.get("workloads", {}).get(workload, {}).get("metrics", {})),
            }
            Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
