"""Benchmark-shaped corpora, written by the benchmark's own generator
(imported read-only from perfbench/): modules parse, embed and build
program graphs exactly as the references in tests/oracles.py do, in
whatever order one process meets them, and the GNN trains on their
program graphs as it did with a node per relation, bit for bit, and as it
did with self loops as relations, within the declared tolerance, and
keeps a smaller tape than the chain of primitive operations."""

import dataclasses
import gc
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import tape_nodes
from mpisentinel import autodiff as ad
from mpisentinel import embed as em
from mpisentinel import gnn
from mpisentinel.graph import build_graph
from mpisentinel.ircore import OperandKind, parse_instruction, parse_ir

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from gen_corpus import CORRECT, generate  # noqa: E402
from suffix_locals import suffix_module  # noqa: E402
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


@pytest.fixture(scope="module")
def three_shapes(tmp_path_factory):
    """(workload/stem, IR text) of five seed-11 modules of each workload's
    shape, workload by workload."""
    modules = []
    for name, workload in sorted(WORKLOADS.items()):
        out = tmp_path_factory.mktemp(name)
        generate(out, dataclasses.replace(workload.corpus, modules=5), 11)
        modules += [(f"{name}/{p.stem}", p.read_text()) for p in sorted(out.glob("*.ll"))]
    return modules


@pytest.fixture(scope="module")
def suffixed_shapes(three_shapes):
    """The three_shapes modules with their locals and labels suffixed per
    module and per function, as tools/suffix_locals.py copies a corpus."""
    return [(f"{name}+suffixed", suffix_module(text, k))
            for k, (name, text) in enumerate(three_shapes)]


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_workload_shapes_in_one_process_equal_the_references(three_shapes, suffixed_shapes,
                                                             order):
    """The line memo outlives each parse_ir call and the module order
    decides what it holds; no order shows in a module, its embedding or its
    program graph, and each graph keeps the graph invariants.  The inputs
    include the suffixed copies, which repeat few lines across modules."""
    vocab = em.SeedVocab(11)
    modules = three_shapes + suffixed_shapes
    for name, text in modules if order == "forward" else modules[::-1]:
        module = parse_ir(text, name)
        want = oracles.reference_parse_ir(text, name)
        assert module == want, name
        assert oracles.render(module) == oracles.render(want), name
        got = em.embed(module, vocab).values
        assert got.tobytes() == oracles.reference_embed(want, vocab).tobytes(), name
        graph = build_graph(module)
        assert graph == oracles.reference_build_graph(want), name
        assert oracles.validate_graph(graph) == [], name


def test_suffixed_copies_rename_and_repeat_only_lines_without_locals(three_shapes,
                                                                     suffixed_shapes):
    """A suffixed copy embeds and builds its program graph as the original
    does, and a line that recurs in another function names no local value
    and no label."""
    vocab = em.SeedVocab(11)
    functions: dict[str, set] = {}
    for (name, text), (_, copy) in zip(three_shapes, suffixed_shapes):
        module, renamed = parse_ir(text, name), parse_ir(copy, name)
        assert em.embed(renamed, vocab).values.tobytes() == \
            em.embed(module, vocab).values.tobytes(), name
        assert build_graph(renamed) == build_graph(module), name
        fn = None
        for line in copy.split("\n"):
            line = line.strip()
            if line.startswith("define"):
                fn = line
            elif line == "}":
                fn = None
            elif fn and line and not line.endswith(":"):
                functions.setdefault(line, set()).add((name, fn))
    repeated = [line for line, where in functions.items() if len(where) > 1]
    assert repeated
    for line in repeated:
        instr = parse_instruction(line)
        assert instr.result_id is None, line
        assert all(op.kind not in (OperandKind.LOCAL, OperandKind.LABEL)
                   for op in instr.operands), line


def gnn_samples(tmp_path, modules=None):
    """(program graph, binary label) per module of the seed-7 gnn-train
    corpus, or of a corpus of that shape with `modules` modules."""
    spec = WORKLOADS["gnn-train"].corpus
    if modules is not None:
        spec = dataclasses.replace(spec, modules=modules)
    truth = generate(tmp_path, spec, 7)
    return [(build_graph(parse_ir((tmp_path / c).with_suffix(".ll").read_text(), c)),
             "ok" if label == CORRECT else "bad") for c, label in sorted(truth.items())]


def test_gnn_trains_as_with_self_loop_relations(tmp_path, monkeypatch):
    samples = gnn_samples(tmp_path, modules=10)

    def trained():
        cfg = gnn.GnnConfig(layer_sizes=(12, 8, 6), node_embed_dim=8, fc_hidden=4,
                            lr=1e-2, epochs=2, batch_size=4, rng_seed=3)
        model = gnn.init_model(cfg, gnn.build_vocab([g for g, _ in samples]),
                               ["bad", "ok"])
        return gnn.train(model, samples)

    model, log = trained()
    monkeypatch.setattr(gnn, "hetero_layer", oracles.layer_on_node_rows(
        oracles.hetero_layer_self_relations))
    ref, ref_log = trained()
    oracles.assert_same_training(model, log, ref, ref_log, [g for g, _ in samples])


def test_gnn_learns_at_paper_widths_in_ten_epochs(tmp_path, monkeypatch):
    """The learning gate: 32 graphs of the gnn-train shape, the paper's
    widths, lr 4e-4 and 10 epochs in batches of 8 (40 Adam steps).  The loss
    log stays within the declared tolerance of training through the chain
    of primitive operations, the loss falls, and the model fits the
    training graphs (30 of 32 when this gate was set)."""
    samples = gnn_samples(tmp_path, modules=32)

    def trained():
        cfg = gnn.GnnConfig(lr=4e-4, epochs=10, batch_size=8)
        model = gnn.init_model(cfg, gnn.build_vocab([g for g, _ in samples]),
                               ["bad", "ok"])
        return gnn.train(model, samples)

    model, log = trained()
    accuracy = np.mean([gnn.predict_gnn(model, g) == lab for g, lab in samples])
    monkeypatch.setattr(gnn, "hetero_layer",
                        oracles.layer_on_node_rows(oracles.hetero_layer_chain))
    ref, ref_log = trained()
    assert [e for e, _ in log] == list(range(1, 11))
    oracles.assert_same_training(model, log, ref, ref_log, [g for g, _ in samples])
    assert log[-1][1] < 0.8 * log[0][1]
    assert accuracy >= 0.8


def test_gnn_trains_as_with_a_node_per_relation(tmp_path, monkeypatch):
    """Summing each node type's messages and own term in one node makes the
    same additions as a node per relation and one sum node: after 2 epochs
    on 32 graphs of the gnn-train shape at the paper's widths, the loss log,
    the trained parameters and the logits are the same bytes."""
    samples = gnn_samples(tmp_path, modules=32)
    graphs = [g for g, _ in samples]

    def trained():
        cfg = gnn.GnnConfig(lr=4e-4, epochs=2, batch_size=8)
        model = gnn.init_model(cfg, gnn.build_vocab(graphs), ["bad", "ok"])
        model, log = gnn.train(model, samples)
        return model, log, gnn.logits_batch(model, graphs).data

    model, log, logits = trained()
    monkeypatch.setattr(gnn, "hetero_layer", oracles.hetero_layer_per_relation)
    ref, ref_log, ref_logits = trained()
    assert log == ref_log
    assert [(name, t.data.tobytes()) for name, t in model.parameter_items()] == \
        [(name, t.data.tobytes()) for name, t in ref.parameter_items()]
    assert logits.tobytes() == ref_logits.tobytes()


def test_model_size_at_paper_widths(tmp_path):
    """One value matrix per node type and layer for the self term: 59
    tensors where self-loop relations made 77."""
    vocab = gnn.build_vocab([g for g, _ in gnn_samples(tmp_path)])
    params = gnn.init_model(gnn.GnnConfig(), vocab, ["bad", "ok"]).parameters()
    assert len(vocab) == 42
    assert (len(params), sum(p.data.size for p in params)) == (59, 336_210)


def test_tape_keeps_what_backward_reads(tmp_path, monkeypatch):
    """One 8-graph batch at the paper's widths: the fused layer's tape holds
    at most a third of the bytes of the chain of primitive operations, gives its
    gradients within the declared tolerance, and backward() frees every
    interior tensor even while the loss is still referenced."""
    samples = gnn_samples(tmp_path, modules=8)
    graphs = [g for g, _ in samples]
    model = gnn.init_model(gnn.GnnConfig(), gnn.build_vocab(graphs), ["bad", "ok"])
    targets = [int(lab == "ok") for _, lab in samples]

    def forward_traced():
        """The loss and the bytes its tape holds after the forward pass."""
        for p in model.parameters():
            p.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = ad.cross_entropy_logits(gnn.logits_batch(model, graphs), targets)
            return loss, tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    loss, fused_bytes = forward_traced()
    interior = [weakref.ref(t) for t in tape_nodes(loss)
                if t._parents and t is not loss]
    was_enabled = gc.isenabled()
    gc.disable()  # the tape must go by reference counting alone
    try:
        loss.backward()
        assert [r for r in interior if r() is not None] == []
    finally:
        if was_enabled:
            gc.enable()
    grads = [p.grad.copy() for p in model.parameters()]
    del loss
    monkeypatch.setattr(gnn, "hetero_layer",
                        oracles.layer_on_node_rows(oracles.hetero_layer_chain))
    loss, chain_bytes = forward_traced()
    loss.backward()
    assert fused_bytes <= chain_bytes / 3, (fused_bytes, chain_bytes)
    oracles.assert_within_tolerance(grads, [p.grad for p in model.parameters()],
                                    "gradients")
