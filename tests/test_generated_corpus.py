"""The front end on a benchmark-shaped corpus: modules written by the
benchmark's own generator (imported read-only from perfbench/) parse and
embed exactly as the memo-free references in tests/oracles.py do."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from mpisentinel import embed as em
from mpisentinel.ircore import parse_ir

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from gen_corpus import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def large_modules(tmp_path_factory):
    """Four modules of the dt-large-modules shape (10-26 helpers each)."""
    spec = dataclasses.replace(WORKLOADS["dt-large-modules"].corpus, modules=4)
    out = tmp_path_factory.mktemp("large")
    generate(out, spec, 7)
    return [(p.stem, p.read_text()) for p in sorted(out.glob("*.ll"))]


def test_modules_equal_the_memo_free_parse(large_modules):
    for name, text in large_modules:
        module = parse_ir(text, name)
        assert module == oracles.reference_parse_ir(text, name), name
        assert oracles.render(module) == oracles.render(oracles.reference_parse_ir(text, name))


def test_embeddings_equal_the_per_instruction_walk(large_modules):
    vocab = em.SeedVocab(7)
    for name, text in large_modules:
        module = parse_ir(text, name)
        got = em.embed(module, vocab).values
        want = oracles.reference_embed(module, vocab)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), name
