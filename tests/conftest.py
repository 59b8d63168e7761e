import json
from pathlib import Path

import pytest

from mpisentinel import corpus as corpus_mod

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def add_loop_text() -> str:
    return (FIXTURES / "add_loop.ll").read_text()


@pytest.fixture(scope="session")
def add_loop_golden() -> dict:
    return json.loads((FIXTURES / "add_loop.golden.json").read_text())


@pytest.fixture(scope="session")
def two_fn_call_text() -> str:
    return (FIXTURES / "two_fn_call.ll").read_text()


def phi_call_loop(k: int) -> str:
    """One loop whose phi %a feeds a call that passes it k times and whose
    result %s feeds the phi back: with the default operand weight w = 0.2
    the flow-aware cycle has spectral radius w * sqrt(k), below 1 for
    k = 20 (0.89) and above 1 for k = 30 (1.10)."""
    return f"""
declare i32 @g({", ".join(["i32"] * k)})

define i32 @f() {{
entry:
  br label %loop
loop:
  %a = phi i32 [ 0, %entry ], [ %s, %loop ]
  %s = call i32 @g({", ".join(["i32 %a"] * k)})
  br i1 true, label %loop, label %out
out:
  ret i32 %s
}}
"""


def tape_nodes(root):
    """Every autodiff tensor reachable from root through its parents."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def corpus_ll_files() -> list[Path]:
    return sorted(FIXTURES.rglob("*.ll"))


@pytest.fixture(scope="session")
def all_fixture_modules():
    from mpisentinel import ircore
    return [(p, ircore.parse_ir(p.read_text(), p.stem)) for p in corpus_ll_files()]


def build_fixture_manifest() -> corpus_mod.Manifest:
    """Manifest over the bundled synthetic corpus (pre-compiled IR)."""
    samples = corpus_mod.ingest_mbi(FIXTURES / "corpus_mbi")
    samples += corpus_mod.ingest_corrbench(FIXTURES / "corpus_corrbench")
    corpus_mod.attach_ir(samples, "none")
    return corpus_mod.Manifest(samples, provenance={"suite": "synthetic", "seed": 0})


@pytest.fixture(scope="session")
def fixture_manifest() -> corpus_mod.Manifest:
    return build_fixture_manifest()
