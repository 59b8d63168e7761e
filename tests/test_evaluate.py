import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpisentinel import corpus as cm
from mpisentinel import embed as em
from mpisentinel import evaluate as ev
from mpisentinel import gnn as gnn_mod
from mpisentinel import tabular
from mpisentinel.ircore import parse_ir
from conftest import FIXTURES as FIXTURES_DIR, phi_call_loop

MBI_DIST = {"Correct": 745, "CallOrdering": 400, "ParameterMatching": 180,
            "InvalidParameter": 170, "MessageRace": 120,
            "GlobalConcurrency": 90, "LocalConcurrency": 60,
            "EpochLifecycle": 50, "RequestLifecycle": 32, "ResourceLeak": 14}


def synthetic_samples(dist, suite="MBI"):
    out = []
    for lab, n in dist.items():
        for i in range(n):
            out.append(cm.CorpusSample(f"{suite}:{lab}-{i}", suite, "", lab,
                                       ir_path="x.ll"))
    return out


class TestMakeFolds:
    def test_singleton_folds(self):
        samples = synthetic_samples({"Correct": 5, "MessageRace": 5})
        plan = ev.make_folds(samples, 10, 0)
        assert sorted(len(f) for f in plan.folds) == [1] * 10

    def test_balanced_two_label(self):
        samples = synthetic_samples({"Correct": 50, "MessageRace": 50})
        plan = ev.make_folds(samples, 10, 3)
        for fold in plan.folds:
            correct = sum(1 for sid in fold if "Correct" in sid)
            assert correct == 5 and len(fold) == 10

    def test_mbi_sized_manifest_fold_sizes(self):
        samples = synthetic_samples(MBI_DIST)
        assert len(samples) == 1861
        plan = ev.make_folds(samples, 10, 0)
        sizes = sorted(len(f) for f in plan.folds)
        assert set(sizes) <= {186, 187}

    def test_too_few_samples(self):
        with pytest.raises(ev.TooFewSamples):
            ev.make_folds(synthetic_samples({"Correct": 3}), 10, 0)

    def test_deterministic(self):
        samples = synthetic_samples({"Correct": 13, "MessageRace": 8})
        a = ev.make_folds(samples, 5, 9)
        b = ev.make_folds(samples, 5, 9)
        assert a.folds == b.folds


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=6),
       st.integers(2, 10), st.integers(0, 2 ** 32 - 1))
def test_fold_properties_random_manifests(label_sizes, k, seed):
    dist = {f"L{i}": n for i, n in enumerate(label_sizes)}
    samples = synthetic_samples(dist)
    if len(samples) < k:
        return
    plan = ev.make_folds(samples, k, seed)
    all_ids = [sid for fold in plan.folds for sid in fold]
    assert len(all_ids) == len(set(all_ids)) == len(samples)  # disjoint, covering
    for lab, n in dist.items():
        per = [sum(1 for sid in f if sid.split(":")[1].rsplit("-", 1)[0] == lab)
               for f in plan.folds]
        assert max(per) - min(per) <= 1


class TestToBinary:
    @pytest.mark.parametrize("label,expected", [
        ("Correct", "Correct"), ("CallOrdering", "Incorrect"),
        ("ArgError", "Incorrect"), ("MessageRace", "Incorrect"),
    ])
    def test_mapping(self, label, expected):
        assert ev.to_binary(label) == expected


class TestConfusion:
    def test_all_correct(self):
        c = ev.confusion(["Incorrect"] * 3 + ["Correct"] * 2,
                         ["Incorrect"] * 3 + ["Correct"] * 2)
        assert (c.tp, c.tn, c.fp, c.fn) == (3, 2, 0, 0)

    def test_all_inverted(self):
        c = ev.confusion(["Correct"] * 3 + ["Incorrect"] * 2,
                         ["Incorrect"] * 3 + ["Correct"] * 2)
        assert (c.tp, c.tn, c.fp, c.fn) == (0, 0, 2, 3)

    def test_published_intra_fixture_counts(self):
        # 1043/664/81/73 split reconstructed as prediction lists
        preds = (["Incorrect"] * 1043 + ["Correct"] * 664 +
                 ["Incorrect"] * 81 + ["Correct"] * 73)
        truth = (["Incorrect"] * 1043 + ["Correct"] * 664 +
                 ["Correct"] * 81 + ["Incorrect"] * 73)
        c = ev.confusion(preds, truth)
        assert (c.tp, c.tn, c.fp, c.fn) == (1043, 664, 81, 73)
        assert c.total == 1861

    def test_length_mismatch(self):
        with pytest.raises(ev.LengthMismatch):
            ev.confusion(["Correct"], [])

    def test_error_counts_pass_through(self):
        c = ev.confusion([], [], (1, 2, 3))
        assert (c.ce, c.to, c.re) == (1, 2, 3) and c.errors == 6


class TestMetrics:
    def test_published_intra_row(self):
        m = ev.metrics(ev.ConfusionCounts(tp=1043, tn=664, fp=81, fn=73))
        assert abs(m.recall - 0.935) <= 0.0005
        assert abs(m.precision - 0.928) <= 0.0005
        assert abs(m.f1 - 0.931) <= 0.0005
        assert abs(m.accuracy - 0.917) <= 0.0005

    def test_published_tool_row_with_timeouts(self):
        counts = ev.ConfusionCounts(tp=859, tn=738, fp=4, fn=102, ce=0, to=157, re=1)
        m = ev.metrics(counts)
        assert abs(m.conclusiveness - 0.915) <= 0.0005
        assert abs(m.specificity - 0.995) <= 0.0005
        assert abs(m.overall_accuracy - 0.858) <= 0.0005
        assert m.coverage == 1.0

    def test_paper_literal_specificity_flag(self):
        counts = ev.ConfusionCounts(tp=859, tn=738, fp=4, fn=102, to=157, re=1)
        literal = ev.metrics(counts, specificity_formula="paper-literal")
        assert abs(literal.specificity - (1 - 738 / 742)) < 1e-12

    def test_all_zero_counts_undefined(self):
        m = ev.metrics(ev.ConfusionCounts())
        assert m.recall is None and m.precision is None and m.f1 is None
        assert m.accuracy is None and m.coverage is None
        assert m.conclusiveness is None and m.specificity is None
        assert m.overall_accuracy is None

    def test_recomputable_from_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, tn, fp, fn, ce, to, re = rng.integers(0, 300, 7)
            counts = ev.ConfusionCounts(int(tp), int(tn), int(fp), int(fn),
                                        int(ce), int(to), int(re))
            m = ev.metrics(counts)
            if m.recall is not None:
                assert abs(m.recall - tp / (tp + fn)) < 1e-9
            if m.accuracy is not None:
                assert abs(m.accuracy - (tp + tn) / counts.total) < 1e-9
            if m.overall_accuracy is not None:
                assert abs(m.overall_accuracy
                           - (tp + tn) / (counts.total + counts.errors)) < 1e-9
            if m.conclusiveness is not None:
                assert abs(m.conclusiveness
                           - (1 - counts.errors / (counts.total + counts.errors))) < 1e-9


def desk_options(**kw):
    base = dict(
        backend="ir2vec-dt", label_mode="error-type", normalization="vector",
        ga_enabled=False, folds=10, seed=0,
        ga=tabular.GaConfig(population=20, generations=3, rng_seed=0),
    )
    base.update(kw)
    return ev.ScenarioOptions(**base)


class TestRunScenario:
    def test_intra_dt_separable_corpus_perfect(self, fixture_manifest):
        scenario = ev.Scenario(kind="intra", suite="MBI", options=desk_options())
        report = ev.run_scenario(fixture_manifest, scenario)
        assert report["aggregate"]["metrics"]["accuracy"] == 1.0
        assert report["failures"]["runtime_errors"] == []
        assert all(v == 1.0 for v in report["per_label_accuracy"].values())

    def test_report_determinism(self, fixture_manifest):
        scenario = ev.Scenario(kind="intra", suite="MBI",
                               options=desk_options(folds=5))
        a = ev.report_to_json(ev.run_scenario(fixture_manifest, scenario))
        b = ev.report_to_json(ev.run_scenario(fixture_manifest, scenario))
        assert a == b

    def test_cross_same_suite_is_full_train_consistency(self, fixture_manifest):
        options = desk_options(label_mode="binary")
        report = ev.run_scenario(fixture_manifest, ev.Scenario(
            kind="cross", train_suite="MBI", validate_suite="MBI",
            options=options))
        assert len(report["folds"]) == 1
        fold = report["folds"][0]
        assert sorted(fold["train_ids"]) == sorted(fold["validation_ids"])
        assert report["aggregate"]["metrics"]["accuracy"] == 1.0

    def test_cross_suites_share_binary_structure(self, fixture_manifest):
        report = ev.run_scenario(fixture_manifest, ev.Scenario(
            kind="cross", train_suite="MBI", validate_suite="CorrBench",
            options=desk_options(label_mode="binary")))
        assert report["aggregate"]["metrics"]["accuracy"] >= 0.9

    def test_cross_rejects_error_type_labels(self):
        with pytest.raises(ev.InvalidScenario):
            ev.Scenario(kind="cross", train_suite="MBI", validate_suite="CorrBench",
                        options=desk_options(label_mode="error-type"))

    def test_mix_pools_both_suites(self, fixture_manifest):
        report = ev.run_scenario(fixture_manifest, ev.Scenario(
            kind="mix", options=desk_options(label_mode="binary", folds=5)))
        assert report["provenance"]["evaluable"] == 100
        assert report["aggregate"]["metrics"]["accuracy"] == 1.0

    def test_suite_missing(self, fixture_manifest):
        with pytest.raises(ev.SuiteMissing):
            ev.run_scenario(fixture_manifest, ev.Scenario(
                kind="intra", suite="Other", options=desk_options()))

    def test_per_label_absent_from_validation_is_null(self, tmp_path,
                                                      fixture_manifest):
        # drop one label from the manifest scope: its row must be absent/None,
        # never reported as 0
        manifest = cm.Manifest(
            [s for s in fixture_manifest.samples if s.suite == "MBI"],
            provenance={})
        report = ev.run_scenario(manifest, ev.Scenario(
            kind="intra", suite="MBI", options=desk_options(folds=5)))
        assert "ResourceLeak" in report["per_label_accuracy"]
        ce_only = [lab for lab, acc in report["per_label_accuracy"].items()
                   if acc is None]
        assert ce_only == []  # every label present here is evaluated

    def test_compile_errors_feed_aggregate_counts(self, fixture_manifest):
        samples = [s for s in fixture_manifest.samples if s.suite == "MBI"]
        broken = cm.CorpusSample("mbi:broken.c@O0", "MBI", "broken.c",
                                 "MessageRace", compile_status="compile-error",
                                 compile_message="exploded")
        manifest = cm.Manifest(samples + [broken], provenance={})
        report = ev.run_scenario(manifest, ev.Scenario(
            kind="intra", suite="MBI", options=desk_options(folds=5)))
        assert report["aggregate"]["counts"]["ce"] == 1
        assert report["aggregate"]["metrics"]["coverage"] < 1.0
        assert report["failures"]["compile_errors"] == 1
        assert report["failures"]["compile_error_reasons"] == {
            "mbi:broken.c@O0": "exploded"}

    def test_timeouts_feed_aggregate_counts(self, fixture_manifest):
        samples = [s for s in fixture_manifest.samples if s.suite == "MBI"]
        hung = cm.CorpusSample("mbi:hung.c@O0", "MBI", "hung.c", "MessageRace",
                               compile_status="timeout",
                               compile_message="compiler timed out after 1 seconds")
        options = desk_options(folds=5)
        base = ev.run_scenario(cm.Manifest(samples, provenance={}), ev.Scenario(
            kind="intra", suite="MBI", options=options))
        report = ev.run_scenario(cm.Manifest(samples + [hung], provenance={}),
                                 ev.Scenario(kind="intra", suite="MBI",
                                             options=options))
        assert report["aggregate"]["counts"] == dict(base["aggregate"]["counts"], to=1)
        assert report["failures"] == dict(base["failures"], timeouts=["mbi:hung.c@O0"])
        assert "timeouts" not in base["failures"]
        assert report["folds"] == base["folds"]
        assert report["aggregate"]["metrics"]["conclusiveness"] < 1.0
        assert report["aggregate"]["metrics"]["coverage"] == 1.0

    def test_index_normalization_and_ga_record_fold_artifacts(self, fixture_manifest):
        options = desk_options(normalization="index", ga_enabled=True, folds=5,
                               label_mode="binary")
        report = ev.run_scenario(fixture_manifest, ev.Scenario(
            kind="intra", suite="MBI", options=options))
        for fold in report["folds"]:
            assert "ga_subset" in fold and len(fold["ga_subset"]) == 5
            assert "index_scaler" in fold
        assert report["aggregate"]["metrics"]["accuracy"] == 1.0


    @pytest.mark.parametrize("normalization,ga", [("vector", False), ("index", True)])
    def test_each_fold_labels_its_validation_rows_in_one_walk(
            self, fixture_manifest, monkeypatch, normalization, ga):
        predict_tree = tabular.predict_tree
        blocks = []

        def one_walk_per_fold(tree, rows):
            labels = predict_tree(tree, rows)
            assert labels == [predict_tree(tree, row) for row in rows]
            blocks.append(len(rows))
            return labels

        monkeypatch.setattr(tabular, "predict_tree", one_walk_per_fold)
        report = ev.run_scenario(fixture_manifest, ev.Scenario(
            kind="intra", suite="MBI", options=desk_options(
                folds=5, normalization=normalization, ga_enabled=ga)))
        assert blocks == [len(f["validation_ids"]) for f in report["folds"]]

class TestNoLeakage:
    def test_fold_artifacts_recomputable_from_training_fold_only(
            self, fixture_manifest):
        options = desk_options(normalization="index", ga_enabled=True, folds=5,
                               label_mode="binary")
        scenario = ev.Scenario(kind="intra", suite="MBI", options=options)
        report = ev.run_scenario(fixture_manifest, scenario)
        by_id = {s.id: s for s in fixture_manifest.samples}
        vocab = em.SeedVocab(options.seed, options.embed_dim)
        raw = {}
        for fold in report["folds"]:
            assert not set(fold["train_ids"]) & set(fold["validation_ids"])
            for sid in fold["train_ids"]:
                if sid not in raw:
                    module = parse_ir(open(by_id[sid].ir_path).read(), sid)
                    raw[sid] = em.embed(module, vocab, options.weights).values
            x = np.vstack([raw[sid] for sid in fold["train_ids"]])
            scaler = em.fit_index_scaler(x)
            assert np.array_equal(scaler.mins, np.array(fold["index_scaler"]["mins"]))
            assert np.array_equal(scaler.maxs, np.array(fold["index_scaler"]["maxs"]))
            normalized = em.normalize(x, scaler)
            labels = [ev.to_binary(by_id[sid].label) for sid in fold["train_ids"]]
            data = tabular.LabeledVectors(normalized, labels, ev.BINARY_SPACE)
            ga_cfg = tabular.GaConfig(population=options.ga.population,
                                      generations=options.ga.generations,
                                      rng_seed=fold["seed"])
            subset = tabular.ga_select(data, ga_cfg)
            assert list(subset.indices) == fold["ga_subset"]


SHAPE_PLAIN = """\
declare i32 @MPI_Init(ptr, ptr)
define i32 @prog_{name}() {{
entry:
  %b{k} = alloca i32
  %r{k} = call i32 @MPI_Init(ptr %b{k}, ptr %b{k})
  ret i32 0
}}
"""
SHAPE_MARKED = """\
declare i32 @MPI_Init(ptr, ptr)
declare i32 @MPI_Irecv(ptr, i32)
define i32 @prog_{name}() {{
entry:
  %b{k} = alloca i32
  %r{k} = call i32 @MPI_Init(ptr %b{k}, ptr %b{k})
  %v{k} = load i32, ptr %b{k}
  %m{k} = xor i32 %v{k}, 255
  %w{k} = call i32 @MPI_Irecv(ptr %b{k}, i32 %m{k})
  ret i32 0
}}
"""
HEADER = ("////////// header //////////\n"
          "// Error: {desc}\n"
          "////////////////////////////\n"
          "int main(void) {{ return 0; }}\n")


def build_shape_corpus(tmp_path):
    """Correct and ErrC share one IR shape; ErrA and ErrB share another."""
    spec = [("Correct", "OK", SHAPE_PLAIN, 7),
            ("LocalConcurrency", "Local concurrency", SHAPE_MARKED, 7),
            ("MessageRace", "Message race", SHAPE_MARKED, 5),
            ("CallOrdering", "Call ordering", SHAPE_PLAIN, 5)]
    for label, desc, shape, count in spec:
        for k in range(count):
            stem = f"{label.lower()}_{k}"
            (tmp_path / f"{stem}.c").write_text(HEADER.format(desc=desc))
            (tmp_path / f"{stem}.ll").write_text(
                shape.format(name=stem, k=k))
    samples = cm.ingest_mbi(tmp_path)
    cm.attach_ir(samples, "none")
    return cm.Manifest(samples, provenance={})


class TestAblation:
    @pytest.fixture()
    def shape_manifest(self, tmp_path):
        return build_shape_corpus(tmp_path)

    def test_embedding_identity_of_shared_shapes(self, shape_manifest):
        vocab = em.SeedVocab(0, 256)
        by_label = {}
        for s in ev._compiled(shape_manifest.samples)[0]:
            module = parse_ir(open(s.ir_path).read(), s.id)
            by_label.setdefault(s.label, []).append(em.embed(module, vocab).values)
        assert np.array_equal(by_label["MessageRace"][0],
                              by_label["LocalConcurrency"][0])
        assert np.array_equal(by_label["CallOrdering"][0],
                              by_label["Correct"][0])
        assert not np.array_equal(by_label["MessageRace"][0],
                                  by_label["Correct"][0])

    def test_excluded_label_sharing_error_shape_is_detected(self, shape_manifest):
        report = ev.ablation(shape_manifest, {"MessageRace"},
                             desk_options(label_mode="binary", folds=4))
        assert report["accuracy"]["MessageRace"] == 1.0

    def test_excluded_label_sharing_correct_shape_is_missed(self, shape_manifest):
        report = ev.ablation(shape_manifest, {"CallOrdering"},
                             desk_options(label_mode="binary", folds=4))
        assert report["accuracy"]["CallOrdering"] == 0.0

    def test_pair_exclusion(self, shape_manifest):
        report = ev.ablation(shape_manifest, {"MessageRace", "CallOrdering"},
                             desk_options(label_mode="binary", folds=4))
        assert report["accuracy"]["MessageRace"] == 1.0
        assert report["accuracy"]["CallOrdering"] == 0.0

    def test_training_folds_have_zero_excluded(self, shape_manifest):
        report = ev.ablation(shape_manifest, {"MessageRace"},
                             desk_options(label_mode="binary", folds=4))
        assert all(f["excluded_in_train"] == 0 for f in report["folds"])

    def test_label_absent(self, shape_manifest):
        with pytest.raises(ev.LabelAbsent):
            ev.ablation(shape_manifest, {"EpochLifecycle"},
                        desk_options(label_mode="binary", folds=4))

    def test_correct_cannot_be_excluded(self, shape_manifest):
        with pytest.raises(ev.InvalidScenario):
            ev.ablation(shape_manifest, {"Correct"},
                        desk_options(label_mode="binary", folds=4))

    def test_fold_plan_never_leaks(self):
        samples = synthetic_samples({"Correct": 20, "MessageRace": 9,
                                     "CallOrdering": 11})
        plans = ev.ablation_fold_plan(samples, {"MessageRace"}, 5, 1)
        for train, val in plans:
            assert not any("MessageRace" in sid for sid in train)
            assert not set(train) & set(val)


class TestCsvFlattening:
    def test_rows_and_aggregate(self, fixture_manifest):
        scenario = ev.Scenario(kind="intra", suite="MBI",
                               options=desk_options(folds=5))
        report = ev.run_scenario(fixture_manifest, scenario)
        csv_text = ev.report_to_csv(report)
        lines = csv_text.splitlines()
        assert lines[0].startswith("row,tp,tn,fp,fn,ce,to,re,recall")
        assert len(lines) == 1 + 5 + 1
        assert lines[-1].startswith("aggregate,")


def broken_mbi_manifest(tmp_path, failure: str, stem: str) -> cm.Manifest:
    """The fixture MBI corpus with one sample's IR malformed, diverging,
    not UTF-8, or deleted after ingest."""
    import shutil
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(FIXTURES_DIR / "corpus_mbi", corpus_dir)
    if failure == "malformed":
        (corpus_dir / f"{stem}.ll").write_text("define void @f() {\n ret void\n")
    elif failure == "diverging":
        (corpus_dir / f"{stem}.ll").write_text(phi_call_loop(30))
    elif failure == "not-utf8":
        (corpus_dir / f"{stem}.ll").write_bytes(b"\xff\xfe bad")
    samples = cm.ingest_mbi(corpus_dir)
    cm.attach_ir(samples, "none")
    if failure == "deleted":
        (corpus_dir / f"{stem}.ll").unlink()
    return cm.Manifest(samples, provenance={})


def tiny_gnn_options(**kw):
    return desk_options(backend="gnn", gnn=gnn_mod.GnnConfig(
        layer_sizes=(8, 6, 4), node_embed_dim=4, fc_hidden=4, epochs=1,
        batch_size=16), **kw)


class TestRuntimeErrorPropagation:
    @pytest.mark.parametrize("failure", ["malformed", "deleted"])
    @pytest.mark.parametrize("backend", ["ir2vec-dt", "gnn"])
    def test_broken_ir_marks_sample_re_without_aborting(self, tmp_path, backend,
                                                        failure):
        manifest = broken_mbi_manifest(tmp_path, failure, "correct_0")
        options = (desk_options(folds=5) if backend == "ir2vec-dt"
                   else tiny_gnn_options(folds=3))
        report = ev.run_scenario(manifest, ev.Scenario(
            kind="intra", suite="MBI", options=options))
        assert report["aggregate"]["counts"]["re"] == 1
        assert len(report["failures"]["runtime_errors"]) == 1
        assert "correct_0" in report["failures"]["runtime_errors"][0]
        assert report["aggregate"]["metrics"]["conclusiveness"] < 1.0

    @pytest.mark.parametrize("failure,reason", [
        ("malformed", r"^line \d+: "),
        ("diverging", r"flow-aware embedding of @f diverges"),
        ("not-utf8", r"'utf-8' codec can't decode byte 0xff"),
        ("none", None)])
    def test_runtime_error_reasons_name_the_cause(self, tmp_path, failure, reason):
        manifest = broken_mbi_manifest(tmp_path, failure, "correct_0")
        report = ev.run_scenario(manifest, ev.Scenario(
            kind="intra", suite="MBI", options=desk_options(folds=5)))
        failures = report["failures"]
        if reason is None:  # reports without runtime errors keep their shape
            assert set(failures) == {"compile_errors", "runtime_errors"}
            return
        (sid,) = failures["runtime_errors"]
        assert list(failures["runtime_error_reasons"]) == [sid]
        assert re.search(reason, failures["runtime_error_reasons"][sid])

    @pytest.mark.parametrize("failure", ["malformed", "deleted"])
    def test_ablation_leaves_out_broken_excluded_sample(self, tmp_path, failure):
        manifest = broken_mbi_manifest(tmp_path, failure, "messagerace_0")
        total = sum(s.label == "MessageRace"
                    for s in ev._compiled(manifest.samples)[0])
        report = ev.ablation(manifest, {"MessageRace"},
                             desk_options(label_mode="binary", folds=4))
        assert report["sample_counts"] == {"MessageRace": total - 1}
        (sid,) = report["failures"]["runtime_errors"]
        assert "messagerace_0" in sid
        assert list(report["failures"]["runtime_error_reasons"]) == [sid]

    @pytest.mark.parametrize("stem", ["correct_0", "none"])
    def test_ablation_names_samples_that_fail_to_load(self, tmp_path, stem):
        """A training-side sample that fails is named too; a report without
        failures has no failures section."""
        manifest = broken_mbi_manifest(tmp_path, "malformed", stem)
        report = ev.ablation(manifest, {"MessageRace"},
                             desk_options(label_mode="binary", folds=4))
        if stem == "none":
            assert "failures" not in report
            return
        (sid,) = report["failures"]["runtime_errors"]
        assert stem in sid
        assert re.search(r"^line \d+: ", report["failures"]["runtime_error_reasons"][sid])


class TestOnePreparationLoop:
    """Samples pass one at a time from IR file to model input."""

    @pytest.mark.parametrize("backend,stage", [
        ("ir2vec-dt", "embed"), ("gnn", "build_graph")])
    def test_no_earlier_module_alive_while_preparing(
            self, monkeypatch, fixture_manifest, backend, stage):
        import weakref
        from mpisentinel import graph as gm
        from mpisentinel import ircore
        refs, alive_at = [], {}
        real_parse = ircore.parse_ir

        def parse(text, name=""):
            module = real_parse(text, name)
            refs.append(weakref.ref(module))
            return module

        owner = em if stage == "embed" else gm
        real_stage = getattr(owner, stage)

        def prepare(module, *args, **kwargs):
            assert refs[-1]() is module
            alive_at[module.name] = [k for k, r in enumerate(refs[:-1])
                                     if r() is not None]
            return real_stage(module, *args, **kwargs)

        monkeypatch.setattr(ircore, "parse_ir", parse)
        monkeypatch.setattr(owner, stage, prepare)
        samples = [s for s in fixture_manifest.samples if s.suite == "MBI"]
        backend_obj = ev._make_backend(ev.ScenarioOptions(backend=backend), samples)
        assert backend_obj.failed == {}
        assert list(alive_at) == [s.id for s in samples] and len(refs) == len(samples)
        assert {sid: k for sid, k in alive_at.items() if k} == {}
        assert list(backend_obj.inputs) == list(alive_at)

    @pytest.mark.parametrize("entry", ["run_scenario", "ablation"])
    @pytest.mark.parametrize("field,value,error", [
        ("backend", "svm", ev.InvalidScenario),
        ("folds", 1, ev.InvalidScenario),
        ("seed", -1, ev.InvalidScenario),
        ("ga", tabular.GaConfig(population=0), tabular.InvalidConfig),
        ("gnn", gnn_mod.GnnConfig(lr=float("nan")), gnn_mod.InvalidGnnConfig),
    ], ids=["unknown-backend", "folds-1", "seed-neg", "bad-ga", "bad-gnn"])
    def test_bad_option_rejected_before_reading(self, monkeypatch, fixture_manifest,
                                                entry, field, value, error):
        """Every field is checked whichever backend and GA setting the run
        uses (GA off and the dt backend here), before any IR is parsed."""
        from mpisentinel import ircore
        parsed = []
        monkeypatch.setattr(ircore, "parse_ir",
                            lambda text, name="": parsed.append(name))
        options = ev.ScenarioOptions(**{field: value})
        with pytest.raises(error):
            if entry == "run_scenario":
                ev.run_scenario(fixture_manifest,
                                ev.Scenario(kind="intra", suite="MBI", options=options))
            else:
                ev.ablation(fixture_manifest, {"MessageRace"}, options)
        assert parsed == []


class TestGnnScenario:
    def test_cross_suite_gnn_handles_unseen_tokens(self, fixture_manifest):
        opts = ev.ScenarioOptions(
            backend="gnn", label_mode="binary", normalization="vector",
            seed=0,
            gnn=gnn_mod.GnnConfig(layer_sizes=(16, 12, 8), node_embed_dim=8,
                                  fc_hidden=8, lr=1e-2, epochs=3,
                                  batch_size=8))
        report = ev.run_scenario(fixture_manifest, ev.Scenario(
            kind="cross", train_suite="MBI", validate_suite="CorrBench",
            options=opts))
        counts = report["aggregate"]["counts"]
        assert counts["tp"] + counts["tn"] + counts["fp"] + counts["fn"] == 30
        assert report["failures"]["runtime_errors"] == []


class TestMetricRecomputation:
    def test_emitted_reports_recompute_from_counts(self, fixture_manifest):
        scenario = ev.Scenario(kind="intra", suite="MBI",
                               options=desk_options(folds=5))
        report = ev.run_scenario(fixture_manifest, scenario)
        docs = [f for f in report["folds"]] + [report["aggregate"]]
        for doc in docs:
            c = doc["counts"]
            again = ev.metrics(ev.ConfusionCounts(
                c["tp"], c["tn"], c["fp"], c["fn"], c["ce"], c["to"], c["re"]))
            for field_name in ("recall", "precision", "f1", "accuracy",
                               "coverage", "conclusiveness", "specificity",
                               "overall_accuracy"):
                fresh = getattr(again, field_name)
                stored = doc["metrics"][field_name]
                if fresh is None:
                    assert stored is None
                else:
                    assert abs(fresh - stored) < 1e-9
