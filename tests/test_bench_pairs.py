"""Verdicts, previous-record lookup and the recorded environment of
tools/bench_pairs.py on made-up paired runs and records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = {
    "evaluate_s": {"name": "evaluate_s", "unit": "s", "better": "lower",
                   "bound": 0.25},
    "accuracy": {"name": "accuracy", "unit": "share", "better": "higher",
                 "bound": 0.25},
}


def pairs_of(parent_runs: dict, change_runs: dict) -> list[dict]:
    n = len(next(iter(parent_runs.values())))
    return [{side: {"metrics": {name: runs[name][i] for name in runs}}
             for side, runs in (("parent", parent_runs), ("change", change_runs))}
            for i in range(n)]


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
ACCURACY = [0.8] * 10


@pytest.mark.parametrize("change_s,change_acc,expected_s,expected_acc", [
    (STEADY, ACCURACY, "within-bound", "within-bound"),
    ([v * 1.3 for v in STEADY], ACCURACY, "regression", "within-bound"),
    ([v * 0.8 for v in STEADY], [0.5] * 10, "gain", "regression"),
    # nine of ten pairs won by a wide median gap is still a gain
    ([v * 0.8 for v in STEADY[:9]] + [1.05], [0.9] * 10, "gain", "gain"),
    # eight of ten pairs is not
    ([v * 0.8 for v in STEADY[:8]] + [1.05, 1.05], ACCURACY,
     "within-bound", "within-bound"),
], ids=["same", "slower", "faster-less-accurate", "nine-wins", "eight-wins"])
def test_verdicts(change_s, change_acc, expected_s, expected_acc):
    out = bench_pairs.summarize(
        pairs_of({"evaluate_s": STEADY, "accuracy": ACCURACY},
                 {"evaluate_s": change_s, "accuracy": change_acc}), DECLARED)
    assert out["evaluate_s"]["verdict"] == expected_s
    assert out["accuracy"]["verdict"] == expected_acc


def test_wide_parent_spread_is_unresolved_unless_every_run_beats():
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    parent = {"evaluate_s": wide, "accuracy": ACCURACY}
    out = bench_pairs.summarize(
        pairs_of(parent, {"evaluate_s": list(reversed(wide)),
                          "accuracy": ACCURACY}), DECLARED)
    assert out["evaluate_s"]["verdict"] == "unresolved"
    out = bench_pairs.summarize(
        pairs_of(parent, {"evaluate_s": [0.1 + i / 100 for i in range(10)],
                          "accuracy": ACCURACY}), DECLARED)
    assert out["evaluate_s"]["verdict"] == "gain"


def _record(medians: dict) -> dict:
    return {"workloads": {"dt-ga": {"metrics": {
        name: {"change": {"median": value}} for name, value in medians.items()}}}}


def test_previous_median_from_newest_committed_record(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    for name, medians in (("BENCH_8.json", {"evaluate_s": 3.0}),
                          ("BENCH_9.json", {"evaluate_s": 2.0}),
                          ("BENCH_10.json", {"evaluate_s": 1.0})):
        (tmp_path / name).write_text(json.dumps(_record(medians)))
    git("add", ".")
    git("commit", "-q", "-m", "records")
    # not committed, so not a previous record
    (tmp_path / "BENCH_11.json").write_text(json.dumps(_record({"evaluate_s": 0.5})))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)

    # numeric order: BENCH_10 is newer than BENCH_9; the output file is skipped
    name, doc = bench_pairs.previous_record("HEAD", "BENCH_11.json")
    assert name == "BENCH_10.json"
    name, doc = bench_pairs.previous_record("HEAD", "BENCH_10.json")
    assert name == "BENCH_9.json"
    previous = doc["workloads"]["dt-ga"]["metrics"]
    out = bench_pairs.summarize(
        pairs_of({"evaluate_s": STEADY, "accuracy": ACCURACY},
                 {"evaluate_s": STEADY, "accuracy": ACCURACY}), DECLARED, previous)
    assert out["evaluate_s"]["previous_median"] == 2.0
    assert out["accuracy"]["previous_median"] is None  # not in that record


def test_no_previous_record(tmp_path, monkeypatch):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit",
                    "-q", "--allow-empty", "-m", "empty"], cwd=tmp_path, check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.previous_record("HEAD", "BENCH_1.json") == (None, {})


@pytest.mark.parametrize("value,expected", [
    (None, False), ("", False), ("1", True), ("0", True)])
def test_env_records_whether_bytecode_is_written(tmp_path, monkeypatch, capsys,
                                                 value, expected):
    """main over a two-commit repository, with each perfbench run stubbed:
    the output's env is the first parent run's plus whether
    PYTHONDONTWRITEBYTECODE is set to a non-empty string."""
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "dt-ga"}],
        "end_to_end": list(DECLARED.values())}))
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    git("commit", "-q", "--allow-empty", "-m", "change")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    run_env = {"python": "3.11.7", "blas": "openblas"}

    def run_once(checkout, workload, seed, seconds):
        return {"seed": seed, "env": run_env, "problems": [], "failed": 0,
                "attempted": 1, "metrics": {"evaluate_s": 1.0, "accuracy": 0.8}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["env"] == {**run_env, "PYTHONDONTWRITEBYTECODE": expected}
    assert doc["workloads"]["dt-ga"]["attempted"] == {"parent": 10, "change": 10}
