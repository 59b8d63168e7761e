"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  The bundled synthetic corpus stands in for the full benchmark
suites, which need a configured compiler and the original code bases.
"""

import json

import numpy as np

import oracles
from conftest import FIXTURES, build_fixture_manifest, corpus_ll_files
from mpisentinel import autodiff as ad
from mpisentinel import cli
from mpisentinel import embed as em
from mpisentinel import evaluate as ev
from mpisentinel import gnn, tabular
from mpisentinel.corpus import CorpusSample
from mpisentinel.graph import build_graph
from mpisentinel.ircore import OperandKind, parse_ir

TOL = 0.0005


def _report(criterion: int, message: str):
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_metric_oracle_fixtures():
    intra = ev.metrics(ev.ConfusionCounts(tp=1043, tn=664, fp=81, fn=73))
    assert abs(intra.recall - 0.935) <= TOL
    assert abs(intra.precision - 0.928) <= TOL
    assert abs(intra.f1 - 0.931) <= TOL
    assert abs(intra.accuracy - 0.917) <= TOL
    tool = ev.metrics(ev.ConfusionCounts(tp=859, tn=738, fp=4, fn=102,
                                         ce=0, to=157, re=1))
    assert abs(tool.conclusiveness - 0.915) <= TOL
    assert abs(tool.specificity - 0.995) <= TOL
    assert abs(tool.overall_accuracy - 0.858) <= TOL
    _report(1, "published confusion fixtures reproduce all metric values "
               f"within {TOL}")


def test_criterion_2_synthetic_corpus_backends():
    manifest = build_fixture_manifest()
    seeds = range(5)

    dt_binary, dt_error, dt_ga = [], [], []
    for seed in seeds:
        base = dict(backend="ir2vec-dt", normalization="vector", folds=10,
                    seed=seed,
                    ga=tabular.GaConfig(population=50, generations=10))
        for mode, ga_on, sink in (("binary", False, dt_binary),
                                  ("error-type", False, dt_error),
                                  ("binary", True, dt_ga)):
            opts = ev.ScenarioOptions(label_mode=mode, ga_enabled=ga_on, **base)
            report = ev.run_scenario(
                manifest, ev.Scenario(kind="intra", suite="MBI", options=opts))
            sink.append(report["aggregate"]["metrics"]["accuracy"])
    assert sum(a == 1.0 for a in dt_binary) >= 4, dt_binary
    assert sum(a == 1.0 for a in dt_error) >= 4, dt_error
    assert sum(a == 1.0 for a in dt_ga) >= 4, dt_ga

    gnn_accs = []
    for seed in seeds:
        opts = ev.ScenarioOptions(
            backend="gnn", label_mode="binary", normalization="vector",
            folds=10, seed=seed,
            gnn=gnn.GnnConfig(epochs=10, lr=3e-2, batch_size=16,
                              node_embed_dim=8, layer_sizes=(128, 64, 32)))
        report = ev.run_scenario(
            manifest, ev.Scenario(kind="intra", suite="MBI", options=opts))
        gnn_accs.append(report["aggregate"]["metrics"]["accuracy"])
    assert sum(a >= 0.9 for a in gnn_accs) >= 4, gnn_accs
    _report(2, f"intra 10-fold on the bundled corpus: DT binary {dt_binary}, "
               f"DT error-type {dt_error}, DT+GA {dt_ga}, "
               f"GNN (10 epochs) {np.round(gnn_accs, 3).tolist()}")


def test_criterion_3_gnn_gradient_check(two_fn_call_text):
    graph = build_graph(parse_ir(two_fn_call_text))
    assert len(graph.nodes) <= 20
    cfg = gnn.GnnConfig(num_classes=2, layer_sizes=(6, 5, 4),
                        node_embed_dim=3, fc_hidden=3, rng_seed=11)
    model = gnn.init_model(cfg, gnn.build_vocab([graph]), ["a", "b"])

    def loss_fn():
        z = gnn.logits_batch(model, [graph])
        return float(ad.cross_entropy_logits(z, [0]).data)

    for p in model.parameters():
        p.zero_grad()
    ad.cross_entropy_logits(gnn.logits_batch(model, [graph]), [0]).backward()
    fd = oracles.finite_difference_gradients(model, loss_fn, eps=1e-5)
    worst = max(oracles.max_relative_error(t.grad, fd[name])
                for name, t in model.parameter_items())
    assert worst < 1e-3, worst
    _report(3, f"autodiff vs central differences over every parameter block: "
               f"max relative error {worst:.2e}")


def test_criterion_4_embedding_determinism_and_oracle():
    worst = 0.0
    for path in corpus_ll_files():
        module = parse_ir(path.read_text(), path.stem)
        first = em.embed(module, em.SeedVocab(42, 256)).values
        second = em.embed(module, em.SeedVocab(42, 256)).values
        assert np.array_equal(first, second), path
        want = np.concatenate([
            oracles.symbolic_sum(module, em.SeedVocab(42, 256)),
            oracles.flow_aware_sum(module, em.SeedVocab(42, 256),
                                   tol=1e-14, max_iter=1000)])
        diff = float(np.max(np.abs(first - want))) if first.size else 0.0
        worst = max(worst, diff)
        assert diff < 1e-9, (path, diff)
    _report(4, f"{len(corpus_ll_files())} fixtures bit-identical across runs; "
               f"max |impl - oracle| = {worst:.2e}")


def test_criterion_5_graph_invariants_exhaustive():
    checked = 0
    for path in corpus_ll_files():
        module = parse_ir(path.read_text(), path.stem)
        g = build_graph(module)
        assert oracles.validate_graph(g) == [], path
        instrs = [i for f in module.defined_functions()
                  for b in f.blocks for i in b.instructions]
        control_nodes = [i for i, n in enumerate(g.nodes) if n.node_type == "control"]
        assert len(control_nodes) == len(instrs), path
        in_data = [0] * len(g.nodes)
        for e in g.edges:
            if e.edge_type == "data":
                in_data[e.dst] += 1
        for nid, instr in zip(control_nodes, instrs):
            expected = sum(1 for op in instr.operands
                           if op.kind != OperandKind.LABEL)
            assert in_data[nid] == expected, (path, nid)
            checked += 1
    _report(5, f"validate_graph empty, node-count and data in-degree laws hold "
               f"for {checked} instructions across {len(corpus_ll_files())} fixtures")


def test_criterion_6_protocol_invariants():
    rng = np.random.default_rng(2024)
    labels_pool = ["Correct", "CallOrdering", "MessageRace", "ResourceLeak",
                   "InvalidParameter", "ParameterMatching"]
    for trial in range(100):
        n_labels = int(rng.integers(2, len(labels_pool) + 1))
        dist = {lab: int(rng.integers(1, 40))
                for lab in labels_pool[:n_labels]}
        samples = [CorpusSample(f"s:{lab}-{i}", "MBI", "", lab, ir_path="x")
                   for lab, n in dist.items() for i in range(n)]
        k = int(rng.integers(2, 11))
        if len(samples) < k:
            continue
        plan = ev.make_folds(samples, k, int(rng.integers(0, 2 ** 31)))
        flat = [sid for fold in plan.folds for sid in fold]
        assert len(flat) == len(set(flat)) == len(samples)
        for lab in dist:
            per = [sum(1 for sid in f if sid.split(":")[1].rsplit("-", 1)[0] == lab)
                   for f in plan.folds]
            assert max(per) - min(per) <= 1, (trial, lab)
        excluded = {lab for lab in list(dist)[:2] if lab != "Correct"}
        if excluded:
            for train, val in ev.ablation_fold_plan(
                    samples, excluded, k, int(rng.integers(0, 2 ** 31))):
                assert not set(train) & set(val)
                assert not any(sid.split(":")[1].rsplit("-", 1)[0] in excluded
                               for sid in train)

    # leakage recomputation: GA subsets and index scalers reproduce from the
    # training folds alone
    manifest = build_fixture_manifest()
    options = ev.ScenarioOptions(
        backend="ir2vec-dt", label_mode="binary", normalization="index",
        ga_enabled=True, folds=5, seed=0,
        ga=tabular.GaConfig(population=20, generations=3))
    report = ev.run_scenario(manifest, ev.Scenario(kind="intra", suite="MBI",
                                                   options=options))
    by_id = {s.id: s for s in manifest.samples}
    vocab = em.SeedVocab(options.seed, options.embed_dim)
    cache = {}
    for fold in report["folds"]:
        assert not set(fold["train_ids"]) & set(fold["validation_ids"])
        for sid in fold["train_ids"]:
            if sid not in cache:
                module = parse_ir(open(by_id[sid].ir_path).read(), sid)
                cache[sid] = em.embed(module, vocab, options.weights).values
        x = np.vstack([cache[sid] for sid in fold["train_ids"]])
        scaler = em.fit_index_scaler(x)
        assert np.array_equal(scaler.mins, np.array(fold["index_scaler"]["mins"]))
        assert np.array_equal(scaler.maxs, np.array(fold["index_scaler"]["maxs"]))
        data = tabular.LabeledVectors(
            em.normalize(x, scaler),
            [ev.to_binary(by_id[sid].label) for sid in fold["train_ids"]],
            ev.BINARY_SPACE)
        subset = tabular.ga_select(data, tabular.GaConfig(
            population=20, generations=3, rng_seed=fold["seed"]))
        assert list(subset.indices) == fold["ga_subset"]
    _report(6, "100 random manifests: folds disjoint/covering/stratified "
               "within 1; ablation training folds clean; fold artifacts "
               "recompute from training data alone")


def test_criterion_7_ga_planted_feature():
    # ten features, where only coordinate 7 determines the label
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(60, 10))
    labels = ["L%d" % (i % 3) for i in range(60)]
    lookup = {"L0": 0.1, "L1": 0.5, "L2": 0.9}
    for i, lab in enumerate(labels):
        x[i, 7] = lookup[lab]
    data = tabular.LabeledVectors(x, labels, ["L0", "L1", "L2"])
    # brute-force check of the construction: no 5-coordinate subset without
    # coordinate 7 reaches fitness 1.0, every one with it does
    cfg0 = tabular.GaConfig(population=50, generations=10, rng_seed=0)
    assert tabular.fitness((3, 5, 7, 8, 9), data, cfg0) == 1.0
    assert tabular.fitness((0, 1, 2, 3, 4), data, cfg0) < 1.0
    for seed in range(5):
        run = tabular.run_ga(data, tabular.GaConfig(
            population=50, generations=10, rng_seed=seed))
        assert 7 in run.best.indices, (seed, run.best)
        assert run.best.fitness == 1.0, (seed, run.best)
        bests = [g.best_fitness for g in run.log]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:])), seed
    _report(7, "ga_select finds planted coordinate 7 with fitness 1.0 for "
               "5/5 seeds; best-ever fitness monotone")


def test_criterion_8_normalization_properties():
    rng = np.random.default_rng(88)
    rows = rng.uniform(0.0, 100.0, size=(1000, 32))
    out = em.normalize(rows, "vector")
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.allclose(out.max(axis=1), 1.0, atol=0)
    assert np.array_equal(np.argmax(out, axis=1), np.argmax(rows, axis=1))
    train = rng.normal(size=(500, 32))
    val = rng.normal(size=(1000, 32)) * 4
    scaler = em.fit_index_scaler(train)
    transformed = em.normalize(val, scaler)
    assert np.all(transformed >= 0.0) and np.all(transformed <= 1.0)
    _report(8, "vector normalization bounds/argmax and index clamping hold "
               "over 1000 random rows")


def test_criterion_9_end_to_end_determinism(tmp_path):
    manifest_path = tmp_path / "manifest.json"
    assert cli.main(["ingest", "--suite", "mbi",
                     "--dir", str(FIXTURES / "corpus_mbi"),
                     "--compiler-cmd", "none",
                     "--out", str(manifest_path)]) == 0
    args = ["evaluate", "--manifest", str(manifest_path),
            "--scenario", "intra", "--suite", "MBI",
            "--backend", "ir2vec-dt", "--labels", "binary",
            "--normalization", "vector", "--ga", "off",
            "--folds", "10", "--seed", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--report", str(a)]) == 0
    assert cli.main(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["aggregate"]["metrics"]["accuracy"] == 1.0
    _report(9, "two cmd_evaluate invocations produce byte-identical reports")
