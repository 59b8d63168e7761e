"""Self-test of the benchmark: a tiny run of every workload, traced and
untraced, prints every metric BENCHMARK.json declares, by name and unit,
and passes its own correctness checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen_corpus import generate  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]
               if len(line.split()) == 3}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    assert printed.get("failed_share") == "share"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "dt-ga", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corpus_is_a_function_of_the_seed(tmp_path):
    spec = SMOKE["dt-ga"].corpus
    generate(tmp_path / "a", spec, 7)
    generate(tmp_path / "b", spec, 7)
    generate(tmp_path / "c", spec, 8)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
               for f in files)
