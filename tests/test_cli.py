import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import FIXTURES, phi_call_loop
import mpisentinel
from mpisentinel import cli
from mpisentinel import embed as em
from mpisentinel import evaluate as ev
from mpisentinel import gnn, ircore
from mpisentinel import tabular
from mpisentinel.graph import build_graph
from mpisentinel.ircore import parse_ir


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "manifest.json"
    code = cli.main(["ingest", "--suite", "mbi",
                     "--dir", str(FIXTURES / "corpus_mbi"),
                     "--compiler-cmd", "none", "--out", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_fixture_corpus_all_ok(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, _ = run_cli(
            "ingest", "--suite", "corrbench",
            "--dir", str(FIXTURES / "corpus_corrbench"),
            "--compiler-cmd", "none", "--out", str(out), capsys=capsys)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["samples"] == 30
        assert summary["quarantined"] == 0
        assert summary["compile_errors"] == 0
        doc = json.loads(out.read_text())
        assert all(s["status"] == "ok" for s in doc["samples"])

    def test_empty_directory_warns_exit_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(
            "ingest", "--suite", "mbi", "--dir", str(empty),
            "--compiler-cmd", "none", "--out", str(out), capsys=capsys)
        assert code == 0
        assert json.loads(stdout)["samples"] == 0
        assert json.loads(stderr.splitlines()[-1])["warning"] == "EmptyCorpus"

    def test_unreadable_directory_exit_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            "ingest", "--suite", "mbi", "--dir", str(tmp_path / "missing"),
            "--compiler-cmd", "none", "--out", str(tmp_path / "m.json"),
            capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == "UnreadableDirectory"


SLEEPY_CC = """\
import pathlib, sys, time
src, out = sys.argv[1:3]
if "slow" in src:
    time.sleep(60)
pathlib.Path(out).write_text("define void @f() { ret void }\\n")
"""


class TestCompileFailures:
    def test_timeout_counts_one_sample_and_ingest_goes_on(self, tmp_path, capsys):
        cc = tmp_path / "cc.py"
        cc.write_text(SLEEPY_CC)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("slow", "quick"):
            (corpus / f"{name}.c").write_text("// Error: OK\nint main(void){}\n")
        out = tmp_path / "m.json"
        code, stdout, _ = run_cli(
            "ingest", "--suite", "mbi", "--dir", str(corpus), "--timeout", "0.9",
            "--compiler-cmd", f"{sys.executable} {cc} {{source}} {{output}}",
            "--out", str(out), capsys=capsys)
        assert code == 0
        summary = json.loads(stdout)
        assert (summary["compile_errors"], summary["timeouts"]) == (0, 1)
        status = {s["id"]: s["status"] for s in json.loads(out.read_text())["samples"]}
        assert status == {"mbi:quick.c@O0": "ok", "mbi:slow.c@O0": "timeout"}

    def test_missing_compiler_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.c").write_text("// Error: OK\nint main(void){}\n")
        code, _, stderr = run_cli(
            "ingest", "--suite", "mbi", "--dir", str(corpus),
            "--compiler-cmd", str(tmp_path / "no-such-cc") + " {source}",
            "--out", str(tmp_path / "m.json"), capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == "CompilerNotFound"


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestCompiledIrDirectory:
    def test_compiler_writes_beside_the_manifest(self, tmp_path, capsys):
        """A compiler's products go to <manifest stem>-ir/, mirroring the
        source tree; the directory read is left as it was, and a later
        ingest without a compiler finds no IR there."""
        cc = tmp_path / "cc.py"
        cc.write_text(WRITE_CC)
        corpus = tmp_path / "corpus"
        for rel in ("a/ArgError-x-0.c", "b/ArgError-x-0.c", "correct/ok-0.c"):
            (corpus / rel).parent.mkdir(parents=True, exist_ok=True)
            (corpus / rel).write_text('#include "mpitest.h"\nint main(void){}\n')
        before = tree_bytes(corpus)
        out = tmp_path / "m.json"
        code, stdout, _ = run_cli(
            "ingest", "--suite", "corrbench", "--dir", str(corpus),
            "--compiler-cmd", f"{sys.executable} {cc} {{source}} {{output}}",
            "--out", str(out), capsys=capsys)
        assert code == 0 and json.loads(stdout)["compile_errors"] == 0
        assert tree_bytes(corpus) == before
        irs = {s["id"]: Path(s["ir"]) for s in json.loads(out.read_text())["samples"]}
        assert irs == {
            f"corrbench:{rel}.c@O0": tmp_path / "m-ir" / f"{rel}.O0.ll"
            for rel in ("a/ArgError-x-0", "b/ArgError-x-0", "correct/ok-0")}
        assert all(p.is_file() for p in irs.values())
        code, stdout, _ = run_cli(
            "ingest", "--suite", "corrbench", "--dir", str(corpus),
            "--compiler-cmd", "none", "--out", str(tmp_path / "again.json"),
            capsys=capsys)
        assert code == 0 and json.loads(stdout)["compile_errors"] == 3
        assert not (tmp_path / "again-ir").exists()


class TestEvaluate:
    def test_cross_with_error_type_rejected(self, manifest_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            "evaluate", "--manifest", str(manifest_path),
            "--scenario", "cross", "--backend", "ir2vec-dt",
            "--labels", "error-type", "--train-suite", "MBI",
            "--validate-suite", "CorrBench",
            "--report", str(tmp_path / "r.json"), capsys=capsys)
        assert code == 2
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "InvalidScenario"
        assert "binary" in err["message"]

    def test_intra_dt_perfect_on_fixture_corpus(self, manifest_path, tmp_path,
                                                capsys):
        report_path = tmp_path / "r.json"
        code, stdout, _ = run_cli(
            "evaluate", "--manifest", str(manifest_path),
            "--scenario", "intra", "--suite", "MBI",
            "--backend", "ir2vec-dt", "--labels", "error-type",
            "--ga", "off", "--folds", "10", "--seed", "0",
            "--report", str(report_path), capsys=capsys)
        assert code == 0
        assert json.loads(stdout)["accuracy"] == 1.0
        report = json.loads(report_path.read_text())
        assert report["aggregate"]["metrics"]["accuracy"] == 1.0

    def test_timeout_named_in_failures_and_exit_1(self, manifest_path, tmp_path,
                                                  capsys):
        doc = json.loads(manifest_path.read_text())
        hung = dict(doc["samples"][0], id="mbi:hung.c@O0", status="timeout")
        hung.pop("ir")
        doc["samples"].append(hung)
        timed_out = tmp_path / "m.json"
        timed_out.write_text(json.dumps(doc))
        reports = {}
        for name, path in (("base", manifest_path), ("hung", timed_out)):
            reports[name] = tmp_path / f"{name}.json"
            code, _, _ = run_cli(
                "evaluate", "--manifest", str(path), "--scenario", "intra",
                "--suite", "MBI", "--labels", "binary", "--folds", "5",
                "--report", str(reports[name]), capsys=capsys)
            assert code == (1 if name == "hung" else 0)
        base, report = (json.loads(reports[n].read_text()) for n in ("base", "hung"))
        assert "timeouts" not in base["failures"]
        assert report["failures"] == dict(base["failures"], timeouts=["mbi:hung.c@O0"])

    def test_compile_error_counted_and_exit_1(self, manifest_path, tmp_path,
                                              capsys):
        doc = json.loads(manifest_path.read_text())
        broken = dict(doc["samples"][0], id="mbi:broken.c@O0",
                      status="compile-error", message="broken.c:1: error")
        broken.pop("ir")
        doc["samples"].append(broken)
        with_ce = tmp_path / "m.json"
        with_ce.write_text(json.dumps(doc))
        report_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            "evaluate", "--manifest", str(with_ce), "--scenario", "intra",
            "--suite", "MBI", "--labels", "binary", "--folds", "5",
            "--report", str(report_path), capsys=capsys)
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["failures"]["compile_errors"] == 1
        assert report["failures"]["compile_error_reasons"] == {
            "mbi:broken.c@O0": "broken.c:1: error"}
        assert report["aggregate"]["counts"]["ce"] == 1

    def test_byte_identical_reports(self, manifest_path, tmp_path, capsys):
        args = ["evaluate", "--manifest", str(manifest_path),
                "--scenario", "intra", "--suite", "MBI",
                "--backend", "ir2vec-dt", "--labels", "binary",
                "--folds", "5", "--seed", "7"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(args + ["--report", str(a)]) == 0
        assert cli.main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reports_identical_across_jobs(self, manifest_path, tmp_path):
        args = ["evaluate", "--manifest", str(manifest_path),
                "--scenario", "intra", "--suite", "MBI",
                "--labels", "error-type", "--normalization", "index",
                "--ga", "on", "--ga-population", "10", "--ga-generations", "2",
                "--folds", "5"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(["--jobs", "1"] + args + ["--report", str(a)]) == 0
        assert cli.main(["--jobs", "2"] + args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("settings,kind", [
        (["--ga", "on", "--ga-population", "0"], "InvalidConfig"),
        (["--ga", "on", "--ga-generations", "-1"], "InvalidConfig"),
        (["--backend", "gnn", "--gnn-batch-size", "0"], "InvalidGnnConfig"),
        (["--backend", "gnn", "--gnn-epochs", "-1"], "InvalidGnnConfig"),
        (["--backend", "gnn", "--gnn-lr", "nan"], "InvalidGnnConfig"),
        (["--backend", "gnn", "--gnn-lr", "inf"], "InvalidGnnConfig"),
        (["--backend", "gnn", "--gnn-lr", "0"], "InvalidGnnConfig"),
        (["--backend", "gnn", "--gnn-lr", "-0.01"], "InvalidGnnConfig"),
        (["--seed", "-1"], "InvalidScenario"),
        (["--backend", "ir2vec-dt", "--gnn-lr", "nan"], "InvalidGnnConfig"),
        (["--ga", "off", "--ga-population", "0"], "InvalidConfig"),
    ], ids=["ga-population-0", "ga-generations-neg", "gnn-batch-size-0",
            "gnn-epochs-neg", "gnn-lr-nan", "gnn-lr-inf", "gnn-lr-0",
            "gnn-lr-neg", "seed-neg", "dt-gnn-lr-nan", "ga-off-population-0"])
    def test_bad_ga_gnn_settings_exit_2(self, manifest_path, tmp_path, capsys,
                                        monkeypatch, settings, kind):
        """Checked whichever backend and GA setting the run uses, before any
        IR file is parsed."""
        parsed = []
        monkeypatch.setattr(ircore, "parse_ir",
                            lambda text, name="": parsed.append(name))
        code, _, stderr = run_cli(
            "evaluate", "--manifest", str(manifest_path),
            "--scenario", "intra", "--suite", "MBI", "--folds", "5", *settings,
            "--report", str(tmp_path / "r.json"), capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == kind
        assert parsed == []
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("backend", ["ir2vec-dt", "gnn"])
    def test_fold_without_loadable_samples_exit_2(self, tmp_path, capsys,
                                                  monkeypatch, backend):
        # ir paths are stored relative to the directory ingest ran in
        monkeypatch.chdir(FIXTURES)
        manifest = tmp_path / "m.json"
        assert cli.main(["ingest", "--suite", "mbi", "--dir", "corpus_mbi",
                         "--compiler-cmd", "none", "--out", str(manifest)]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code, _, stderr = run_cli(
            "evaluate", "--manifest", str(manifest), "--scenario", "intra",
            "--suite", "MBI", "--backend", backend, "--folds", "5",
            "--report", str(tmp_path / "r.json"), capsys=capsys)
        assert code == 2
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "TooFewSamples"
        assert err["message"].startswith("fold 0: all 56 training samples")

    def test_bad_manifest_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, stderr = run_cli(
            "evaluate", "--manifest", str(bad), "--scenario", "intra",
            "--suite", "MBI", "--report", str(tmp_path / "r.json"),
            capsys=capsys)
        assert code == 2


def _manifest_with(**fields) -> str:
    """Two valid MBI samples; the second one's fields are overridden."""
    base = {"suite": "MBI", "opt": "O0", "status": "ok", "quarantined": False,
            "label": "Correct", "binary": "Correct", "source": "a.c"}
    return json.dumps({"manifest_version": 1, "samples": [
        dict(base, id="mbi:b.c@O0", ir="b.ll"),
        {**base, "id": "mbi:a.c@O0", "ir": "a.ll", **fields}]})


BAD_MANIFESTS = {
    "not-json": ("{\"manifest_version\": 1,", "JSONDecodeError"),
    "top-level-list": ("[]", "SchemaViolation"),
    "sample-not-object": ('{"manifest_version": 1, "samples": [7]}',
                          "SchemaViolation"),
    "id-list": (_manifest_with(id=[]), "SchemaViolation"),
    "id-number": (_manifest_with(id=5), "SchemaViolation"),
    "label-list": (_manifest_with(label=["x"]), "SchemaViolation"),
    "ir-number": (_manifest_with(ir=7), "SchemaViolation"),
    "quarantined-string": (_manifest_with(quarantined="no"), "SchemaViolation"),
}


class TestBadManifest:
    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    @pytest.mark.parametrize("command", [
        ("evaluate", "--scenario", "intra", "--suite", "MBI"),
        ("ablate", "--exclude", "MessageRace"),
    ], ids=["evaluate", "ablate"])
    def test_exit_2_with_typed_error(self, tmp_path, capsys, command, case):
        text, error = BAD_MANIFESTS[case]
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, stdout, stderr = run_cli(
            command[0], "--manifest", str(bad), *command[1:],
            "--report", str(tmp_path / "r.json"), capsys=capsys)
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr.splitlines()[-1])["error"] == error
        assert not (tmp_path / "r.json").exists()


class TestAblate:
    def test_single_exclusion(self, manifest_path, tmp_path, capsys):
        report_path = tmp_path / "ab.json"
        code, stdout, _ = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "MessageRace", "--folds", "5",
            "--report", str(report_path), capsys=capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert list(report["accuracy"]) == ["MessageRace"]

    def test_pair_exclusion(self, manifest_path, tmp_path, capsys):
        report_path = tmp_path / "ab2.json"
        code, stdout, _ = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "MessageRace", "--exclude", "ResourceLeak",
            "--folds", "5", "--report", str(report_path), capsys=capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert sorted(report["accuracy"]) == ["MessageRace", "ResourceLeak"]

    def test_sample_that_fails_to_load_exit_1(self, manifest_path, tmp_path, capsys):
        doc = json.loads(manifest_path.read_text())
        sample = next(s for s in doc["samples"] if s["id"].startswith("mbi:correct_0."))
        cut = tmp_path / "correct_0.ll"
        text = Path(sample["ir"]).read_text()
        cut.write_text(text[:text.rindex("}")])  # cut before its closing brace
        sample["ir"] = str(cut)
        broken = tmp_path / "m.json"
        broken.write_text(json.dumps(doc))
        report_path = tmp_path / "ab.json"
        code, _, _ = run_cli(
            "ablate", "--manifest", str(broken), "--exclude", "MessageRace",
            "--folds", "5", "--report", str(report_path), capsys=capsys)
        assert code == 1
        failures = json.loads(report_path.read_text())["failures"]
        assert failures["runtime_errors"] == [sample["id"]]
        reason = failures["runtime_error_reasons"][sample["id"]]
        assert "unterminated function body" in reason

    def test_absent_label_exit_2(self, manifest_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "ArgError", "--folds", "5",
            "--report", str(tmp_path / "x.json"), capsys=capsys)
        assert code == 2
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "LabelAbsent"
        assert "ArgError" in err["message"]

    def test_bad_ga_setting_exit_2(self, manifest_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "MessageRace", "--folds", "5",
            "--ga", "on", "--ga-population", "0",
            "--report", str(tmp_path / "x.json"), capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == "InvalidConfig"

    def test_negative_seed_exit_2(self, manifest_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "MessageRace", "--folds", "5", "--seed", "-1",
            "--report", str(tmp_path / "x.json"), capsys=capsys)
        assert code == 2
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "InvalidScenario"
        assert "seed" in err["message"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("status,key", [
        ("compile-error", "compile_error_reasons"), ("timeout", "timeouts")])
    def test_sample_that_did_not_compile_named_and_exit_1(
            self, manifest_path, tmp_path, capsys, status, key):
        doc = json.loads(manifest_path.read_text())
        races = [s for s in doc["samples"] if s["label"] == "MessageRace"]
        races[0].update(status=status, message="race.c:1: error")
        races[0].pop("ir")
        edited = tmp_path / "m.json"
        edited.write_text(json.dumps(doc))
        report_path = tmp_path / "ab.json"
        code, _, _ = run_cli(
            "ablate", "--manifest", str(edited), "--exclude", "MessageRace",
            "--folds", "5", "--report", str(report_path), capsys=capsys)
        assert code == 1
        report = json.loads(report_path.read_text())
        named = ({races[0]["id"]: "race.c:1: error"} if status == "compile-error"
                 else [races[0]["id"]])
        assert report["failures"] == {key: named}
        assert report["sample_counts"] == {"MessageRace": len(races) - 1}

    @pytest.mark.parametrize("status,key", [
        ("compile-error", "compile_error_reasons"), ("timeout", "timeouts")])
    def test_label_whose_samples_all_failed_to_compile_reported(
            self, manifest_path, tmp_path, capsys, status, key):
        """The label is in scope, so it is reported without an accuracy and
        its samples are named, instead of being called absent."""
        doc = json.loads(manifest_path.read_text())
        races = [s for s in doc["samples"] if s["label"] == "MessageRace"]
        for race in races:
            race.update(status=status, message="race.c:1: error")
            race.pop("ir")
        edited = tmp_path / "m.json"
        edited.write_text(json.dumps(doc))
        report_path = tmp_path / "ab.json"
        code, stdout, _ = run_cli(
            "ablate", "--manifest", str(edited), "--exclude", "MessageRace",
            "--folds", "5", "--report", str(report_path), capsys=capsys)
        assert code == 1
        assert json.loads(stdout)["accuracy"] == {"MessageRace": None}
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == {"MessageRace": None}
        assert report["sample_counts"] == {"MessageRace": 0}
        ids = sorted(race["id"] for race in races)
        named = ({sid: "race.c:1: error" for sid in ids}
                 if status == "compile-error" else ids)
        assert len(ids) == 7
        assert report["failures"] == {key: named}

    def test_bad_gnn_setting_exit_2(self, manifest_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "MessageRace", "--folds", "5",
            "--backend", "gnn", "--gnn-lr", "nan",
            "--report", str(tmp_path / "x.json"), capsys=capsys)
        assert code == 2
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "InvalidGnnConfig"
        assert "lr" in err["message"]
        assert not (tmp_path / "x.json").exists()

    def test_gnn_ablation_matches_python_call(self, manifest_path, tmp_path, capsys):
        """The GNN flags reach ablate's backend: the CLI writes the report
        evaluate.ablation gives for the same options."""
        report_path = tmp_path / "ab.json"
        code, _, _ = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "MessageRace", "--folds", "2", "--seed", "3",
            "--backend", "gnn", "--gnn-epochs", "1", "--gnn-lr", "0.01",
            "--gnn-batch-size", "16", "--report", str(report_path), capsys=capsys)
        assert code == 0
        options = ev.ScenarioOptions(folds=2, seed=3, backend="gnn")
        options.gnn.epochs, options.gnn.lr, options.gnn.batch_size = 1, 0.01, 16
        want = ev.ablation(cli.corpus_mod.read_manifest(manifest_path),
                                 {"MessageRace"}, options)
        assert report_path.read_text() == ev.report_to_json(want)
        assert json.loads(report_path.read_text())["options"]["backend"] == "gnn"

    def test_exclude_correct_exit_2(self, manifest_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            "ablate", "--manifest", str(manifest_path),
            "--exclude", "Correct", "--folds", "5",
            "--report", str(tmp_path / "x.json"), capsys=capsys)
        assert code == 2


def train_dt_model_file(path):
    """Fit the DT backend on the bundled corpus and save a model file."""
    vocab = em.SeedVocab(0, 256)
    rows, labels = [], []
    for ll in sorted((FIXTURES / "corpus_mbi").glob("*.ll")):
        module = parse_ir(ll.read_text(), ll.stem)
        rows.append(em.embed(module, vocab).values)
        labels.append(ll.stem.rsplit("_", 1)[0])
    x = em.normalize(np.vstack(rows), "vector")
    space = sorted(set(labels))
    tree = tabular.train_tree(tabular.LabeledVectors(x, labels, space))
    tabular.DtModel(tree, "vector", seed=0, dim=256,
                    weights=(1.0, 0.5, 0.2)).save(path)
    return space


def train_gnn_model_file(path):
    samples = []
    for ll in sorted((FIXTURES / "corpus_mbi").glob("*.ll"))[:20]:
        module = parse_ir(ll.read_text(), ll.stem)
        samples.append((build_graph(module), ll.stem.rsplit("_", 1)[0]))
    space = sorted({lab for _, lab in samples})
    cfg = gnn.GnnConfig(num_classes=len(space), layer_sizes=(16, 12, 8),
                        node_embed_dim=8, fc_hidden=8, lr=1e-2, epochs=10,
                        batch_size=4, rng_seed=0)
    model = gnn.init_model(cfg, gnn.build_vocab([g for g, _ in samples]), space)
    model, _ = gnn.train(model, samples)
    gnn.save_checkpoint(path, model)


def modules_after_main(argv: list[str]) -> set[str]:
    """The names in sys.modules after cli.main(argv) returns 0 in a fresh
    interpreter; argv None only imports mpisentinel.cli.  A subprocess,
    because this test process has loaded every module already."""
    probe = "import mpisentinel.cli\n"
    if argv is not None:
        probe += f"assert mpisentinel.cli.main({argv!r}) == 0\n"
    probe += "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    src = str(Path(mpisentinel.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestLeanStartup:
    """Each command imports only the modules it runs."""

    def test_import_loads_no_numpy(self):
        loaded = modules_after_main(None)
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("mpisentinel")} == {
            "mpisentinel", "mpisentinel.cli", "mpisentinel.corpus"}

    def test_ingest_loads_no_numpy(self, tmp_path):
        loaded = modules_after_main([
            "ingest", "--suite", "mbi", "--dir", str(FIXTURES / "corpus_mbi"),
            "--compiler-cmd", "none", "--out", str(tmp_path / "m.json")])
        assert "numpy" not in loaded
        assert "mpisentinel.evaluate" not in loaded

    @pytest.mark.parametrize("train,unused", [
        (train_dt_model_file, "mpisentinel.gnn"),
        (train_gnn_model_file, "mpisentinel.tabular")], ids=["dt", "gnn"])
    def test_predict_loads_one_backend(self, tmp_path, train, unused):
        model = tmp_path / "model.json"
        train(model)
        loaded = modules_after_main([
            "predict", "--model", str(model),
            "--ir", str(FIXTURES / "corpus_mbi" / "messagerace_3.ll")])
        assert unused not in loaded


class TestPredict:
    def test_dt_model_predicts_fixture_label(self, tmp_path, capsys):
        model_path = tmp_path / "dt.json"
        train_dt_model_file(model_path)
        code, stdout, _ = run_cli(
            "predict", "--model", str(model_path),
            "--ir", str(FIXTURES / "corpus_mbi" / "messagerace_3.ll"),
            capsys=capsys)
        assert code == 0
        out = json.loads(stdout)
        assert out["label"] == "messagerace"
        assert out["leaf_class_counts"] == {"messagerace": 7}

    def test_dt_on_empty_ir_is_deterministic_zero_vector(self, tmp_path, capsys):
        model_path = tmp_path / "dt.json"
        train_dt_model_file(model_path)
        empty = tmp_path / "empty.ll"
        empty.write_text("")
        results = set()
        for _ in range(2):
            code, stdout, _ = run_cli("predict", "--model", str(model_path),
                                      "--ir", str(empty), capsys=capsys)
            assert code == 0
            results.add(json.loads(stdout)["label"])
        assert len(results) == 1

    @pytest.mark.parametrize("k,code", [(20, 0), (30, 2)])
    def test_dt_on_phi_call_loop(self, tmp_path, capsys, k, code):
        model_path = tmp_path / "dt.json"
        train_dt_model_file(model_path)
        ir = tmp_path / f"loop{k}.ll"
        ir.write_text(phi_call_loop(k))
        got, stdout, stderr = run_cli("predict", "--model", str(model_path),
                                      "--ir", str(ir), capsys=capsys)
        assert got == code
        if code == 0:
            assert "label" in json.loads(stdout)
        else:
            err = json.loads(stderr.splitlines()[-1])
            assert err["error"] == "FlowDiverges"
            assert f"loop{k}.ll: flow-aware embedding of @f diverges" in err["message"]

    def test_gnn_model_predicts(self, tmp_path, capsys):
        model_path = tmp_path / "gnn.json"
        train_gnn_model_file(model_path)
        code, stdout, _ = run_cli(
            "predict", "--model", str(model_path),
            "--ir", str(FIXTURES / "corpus_mbi" / "callordering_0.ll"),
            capsys=capsys)
        assert code == 0
        out = json.loads(stdout)
        assert set(out) == {"label", "probabilities"}
        assert abs(sum(out["probabilities"].values()) - 1.0) < 1e-9

    def test_gnn_predict_runs_one_forward(self, tmp_path, capsys, monkeypatch):
        model_path = tmp_path / "gnn.json"
        train_gnn_model_file(model_path)
        ir = FIXTURES / "corpus_mbi" / "correct_3.ll"
        model = gnn.load_checkpoint(model_path)
        g = build_graph(parse_ir(ir.read_text(), ir.stem))
        z = gnn.forward(model, g)
        e = np.exp(z - z.max())
        p = e / e.sum()
        want = json.dumps({"label": gnn.predict_gnn(model, g), "probabilities": {
            lab: float(p[i]) for i, lab in enumerate(model.label_space)}},
            sort_keys=True) + "\n"
        calls = []
        logits_batch = gnn.logits_batch

        def counted(*args):
            calls.append(len(args[1]))
            return logits_batch(*args)
        monkeypatch.setattr(gnn, "logits_batch", counted)
        code, stdout, _ = run_cli("predict", "--model", str(model_path),
                                  "--ir", str(ir), capsys=capsys)
        assert code == 0
        assert calls == [1]
        assert stdout == want

    def test_gnn_on_empty_ir_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "gnn.json"
        train_gnn_model_file(model_path)
        empty = tmp_path / "empty.ll"
        empty.write_text("")
        code, _, stderr = run_cli("predict", "--model", str(model_path),
                                  "--ir", str(empty), capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == "EmptyGraph"

    def test_malformed_ir_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "dt.json"
        train_dt_model_file(model_path)
        broken = tmp_path / "broken.ll"
        broken.write_text("define void @f() {\n  ret void\n")
        code, _, stderr = run_cli("predict", "--model", str(model_path),
                                  "--ir", str(broken), capsys=capsys)
        assert code == 2

    def test_ir_not_utf8_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "dt.json"
        train_dt_model_file(model_path)
        binary = tmp_path / "binary.ll"
        binary.write_bytes(b"\xff\xfe bad")
        code, _, stderr = run_cli("predict", "--model", str(model_path),
                                  "--ir", str(binary), capsys=capsys)
        assert code == 2
        error = json.loads(stderr.splitlines()[-1])
        assert error["error"] == "IrLoadError"
        assert "not UTF-8" in error["message"]

    @pytest.mark.parametrize("text", [
        "declare i32 @MPI_Wait(ptr,\n",
        "define void @f() {\nentry:\n  store i32 0, ptr\n  ret void\n}\n",
    ])
    def test_unparseable_ir_line_exit_2(self, tmp_path, capsys, text):
        model_path = tmp_path / "dt.json"
        train_dt_model_file(model_path)
        broken = tmp_path / "broken.ll"
        broken.write_text(text)
        code, _, stderr = run_cli("predict", "--model", str(model_path),
                                  "--ir", str(broken), capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == "MalformedIr"

    def test_saved_fold_model_matches_in_process_predictions(
            self, fixture_manifest, tmp_path, capsys):
        opts = ev.ScenarioOptions(
            label_mode="error-type", normalization="index", ga_enabled=True,
            folds=5, ga=tabular.GaConfig(population=10, generations=2))
        samples = [s for s in fixture_manifest.samples if s.suite == "MBI"]
        validation = ev.make_folds(samples, 5, 0).folds[1]
        train = [s.id for s in samples if s.id not in set(validation)]
        labels = {s.id: s.label for s in samples}
        backend = ev._make_backend(opts, samples)
        model, predicted = ev._fit_and_predict(
            backend, 1, train, validation, labels, sorted(set(labels.values())), 1)
        assert model.subset is not None
        model_path = tmp_path / "fold.json"
        model.save(model_path)
        ir_paths = {s.id: s.ir_path for s in samples}
        for sid in validation:
            code, stdout, _ = run_cli("predict", "--model", str(model_path),
                                      "--ir", ir_paths[sid], capsys=capsys)
            assert code == 0
            assert json.loads(stdout)["label"] == predicted[sid]

    @pytest.mark.parametrize("case", ["dt-no-tree", "dt-width",
                                      "dt-negative-weight", "dt-two-weights",
                                      "dt-cycle", "dt-child-out-of-range",
                                      "dt-split-feature", "dt-counts-width",
                                      "dt-unequal-lengths", "dt-nested-tree",
                                      "gnn-no-config", "list"])
    def test_malformed_model_file_exit_2(self, tmp_path, capsys, case):
        model_path = tmp_path / "model.json"
        if case.startswith("dt"):
            train_dt_model_file(model_path)
            doc = json.loads(model_path.read_text())
            if case == "dt-no-tree":
                del doc["tree"]
            elif case == "dt-negative-weight":
                doc["normalization"]["weights"] = [1.0, 0.5, -0.2]
            elif case == "dt-two-weights":
                doc["normalization"]["weights"] = [1.0, 0.5]
            elif case == "dt-cycle":
                doc["tree"]["right"][0] = 0
            elif case == "dt-child-out-of-range":
                doc["tree"]["left"][0] = len(doc["tree"]["left"])
            elif case == "dt-split-feature":
                doc["tree"]["feature"][0] = doc["n_features"]
            elif case == "dt-counts-width":
                doc["tree"]["counts"] = [row + [0] for row in doc["tree"]["counts"]]
            elif case == "dt-unequal-lengths":
                doc["tree"]["threshold"].pop()
            elif case == "dt-nested-tree":
                doc["tree"] = {"split": [0, 0.5],
                               "left": {"label": "correct", "counts": {"correct": 1}},
                               "right": {"label": "correct", "counts": {"correct": 1}}}
            else:
                doc["n_features"] = 7
        elif case == "gnn-no-config":
            doc = {"kind": "gnn", "config": {}, "tokens": [],
                   "label_space": ["Correct", "Incorrect"], "params": []}
        else:
            doc = [{"kind": "ir2vec-dt"}]
        model_path.write_text(json.dumps(doc))
        ir = FIXTURES / "corpus_mbi" / "correct_0.ll"
        code, _, stderr = run_cli("predict", "--model", str(model_path),
                                  "--ir", str(ir), capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == "ModelIncompatible"

    def test_gnn_checkpoint_missing_parameter_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "gnn.json"
        train_gnn_model_file(model_path)
        doc = json.loads(model_path.read_text())
        doc["params"] = [e for e in doc["params"] if e["name"] != "fc2.w"]
        model_path.write_text(json.dumps(doc))
        ir = FIXTURES / "corpus_mbi" / "callordering_0.ll"
        code, stdout, stderr = run_cli("predict", "--model", str(model_path),
                                       "--ir", str(ir), capsys=capsys)
        assert code == 2
        assert stdout == ""
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "ModelIncompatible"
        assert "fc2.w" in err["message"]

    def test_gnn_checkpoint_with_heads_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "gnn.json"
        train_gnn_model_file(model_path)
        doc = json.loads(model_path.read_text())
        doc["config"]["heads"] = 1
        model_path.write_text(json.dumps(doc))
        ir = FIXTURES / "corpus_mbi" / "callordering_0.ll"
        code, stdout, stderr = run_cli("predict", "--model", str(model_path),
                                       "--ir", str(ir), capsys=capsys)
        assert code == 2
        assert stdout == ""
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "ModelIncompatible"
        assert "heads" in err["message"]

    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", 0.0), ("lr", -1e-3), ("lr", float("inf")),
        ("leaky_slope", float("nan")),
    ])
    def test_gnn_checkpoint_with_bad_config_exit_2(self, tmp_path, capsys,
                                                   field, value):
        model_path = tmp_path / "gnn.json"
        train_gnn_model_file(model_path)
        doc = json.loads(model_path.read_text())
        doc["config"][field] = value
        model_path.write_text(json.dumps(doc))  # NaN and Infinity as json writes them
        ir = FIXTURES / "corpus_mbi" / "callordering_0.ll"
        code, stdout, stderr = run_cli("predict", "--model", str(model_path),
                                       "--ir", str(ir), capsys=capsys)
        assert code == 2
        assert stdout == ""
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "ModelIncompatible"
        assert f"InvalidGnnConfig: {field}" in err["message"]

    def test_gnn_checkpoint_with_self_loop_relations_exit_2(self, tmp_path, capsys):
        """A checkpoint written while self loops were attention relations
        holds their w_att and a, which the model no longer has."""
        model_path = tmp_path / "gnn.json"
        train_gnn_model_file(model_path)
        doc = json.loads(model_path.read_text())
        cfg_doc = dict(doc["config"], layer_sizes=tuple(doc["config"]["layer_sizes"]))
        vocab = {tok: i + 1 for i, tok in enumerate(doc["tokens"])}
        old = oracles.reference_init_model(gnn.GnnConfig(**cfg_doc), vocab,
                                           doc["label_space"])
        doc["params"] = [{"name": name, "shape": list(v.shape),
                          "values": v.ravel().tolist()} for name, v in old]
        model_path.write_text(json.dumps(doc))
        ir = FIXTURES / "corpus_mbi" / "callordering_0.ll"
        code, stdout, stderr = run_cli("predict", "--model", str(model_path),
                                       "--ir", str(ir), capsys=capsys)
        assert code == 2
        assert stdout == ""
        err = json.loads(stderr.splitlines()[-1])
        assert err["error"] == "ModelIncompatible"
        assert "layer0.control-self-control.w_att" in err["message"]

    def test_unknown_model_kind_exit_2(self, tmp_path, capsys):
        weird = tmp_path / "weird.json"
        weird.write_text(json.dumps({"kind": "bayes"}))
        ir = FIXTURES / "corpus_mbi" / "correct_0.ll"
        code, _, stderr = run_cli("predict", "--model", str(weird),
                                  "--ir", str(ir), capsys=capsys)
        assert code == 2


class TestConfigPrecedence:
    def test_env_compiler_cmd_used_when_flag_missing(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv(cli.ENV_COMPILER, "none")
        out = tmp_path / "m.json"
        code, _, _ = run_cli(
            "ingest", "--suite", "mbi", "--dir", str(FIXTURES / "corpus_mbi"),
            "--out", str(out), capsys=capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["compiler_cmd"] == "none"

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_COMPILER, "/bogus {source} {output} {opt}")
        out = tmp_path / "m.json"
        code, _, _ = run_cli(
            "ingest", "--suite", "mbi", "--dir", str(FIXTURES / "corpus_mbi"),
            "--compiler-cmd", "none", "--out", str(out), capsys=capsys)
        assert code == 0

    def test_config_file_overlay(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"compiler_cmd": "none", "jobs": 2}))
        out = tmp_path / "m.json"
        code, _, _ = run_cli(
            "--config", str(cfg), "ingest", "--suite", "mbi",
            "--dir", str(FIXTURES / "corpus_mbi"), "--out", str(out),
            capsys=capsys)
        assert code == 0

    @pytest.mark.parametrize("doc", ["5", "[1]", '"jobs"'])
    def test_config_file_not_an_object_exit_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        out = tmp_path / "m.json"
        code, _, stderr = run_cli(
            "--config", str(cfg), "ingest", "--suite", "mbi",
            "--dir", str(FIXTURES / "corpus_mbi"), "--compiler-cmd", "none",
            "--out", str(out), capsys=capsys)
        assert code == 2
        assert json.loads(stderr.splitlines()[-1])["error"] == "ConfigError"
        assert not out.exists()

    def test_usage_error_exit_2(self, capsys):
        assert cli.main(["evaluate", "--scenario", "bogus"]) == 2


class TestInternalsAndCsv:
    def test_internal_error_exit_3(self, manifest_path, tmp_path, capsys,
                                   monkeypatch):
        from mpisentinel import evaluate as ev

        def boom(*a, **k):
            raise RuntimeError("scenario exploded")
        monkeypatch.setattr(ev, "run_scenario", boom)
        code, _, stderr = run_cli(
            "evaluate", "--manifest", str(manifest_path),
            "--scenario", "intra", "--suite", "MBI",
            "--report", str(tmp_path / "r.json"), capsys=capsys)
        assert code == 3
        assert json.loads(stderr.splitlines()[-1])["error"] == "InternalError"

    def test_report_csv_flag(self, manifest_path, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        code, _, _ = run_cli(
            "evaluate", "--manifest", str(manifest_path),
            "--scenario", "intra", "--suite", "MBI", "--folds", "5",
            "--report", str(tmp_path / "r.json"),
            "--report-csv", str(csv_path), capsys=capsys)
        assert code == 0
        assert csv_path.read_text().startswith("row,tp,tn,")

    def test_runtime_errors_exit_1(self, tmp_path, capsys):
        import shutil
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(FIXTURES / "corpus_mbi", corpus_dir)
        (corpus_dir / "correct_0.ll").write_text("define void @f() {\n ret void\n")
        manifest = tmp_path / "m.json"
        assert cli.main(["ingest", "--suite", "mbi", "--dir", str(corpus_dir),
                         "--compiler-cmd", "none", "--out", str(manifest)]) == 0
        capsys.readouterr()
        code, stdout, _ = run_cli(
            "evaluate", "--manifest", str(manifest), "--scenario", "intra",
            "--suite", "MBI", "--folds", "5",
            "--report", str(tmp_path / "r.json"), capsys=capsys)
        assert code == 1
        assert json.loads(stdout.splitlines()[-1])["runtime_errors"] == 1


UNDEFINED_LOCAL_IR = ("define i32 @f() {\nentry:\n"
                      "  %x = add i32 %nope, 1\n  ret i32 %x\n}\n")
EVALUATE = ("evaluate", "--scenario", "intra", "--suite", "MBI", "--folds", "5")
ABLATE = ("ablate", "--exclude", "MessageRace", "--folds", "5")
WRITE_CC = """\
import pathlib, sys
pathlib.Path(sys.argv[2]).write_text("define void @f() { ret void }\\n")
"""

# case -> (argv with {manifest}, {tmp}, {model}, {ir} and {cc} placeholders,
#          error kind, whether the error comes before any input is read)
INPUT_ERRORS = {
    "predict-gnn-undefined-local": (
        ("predict", "--model", "{model}", "--ir", "{ir}"), "UndefinedLocal", False),
    "evaluate-manifest-not-utf8": (
        EVALUATE + ("--manifest", "{tmp}/latin1.json", "--report", "{tmp}/r.json"),
        "UnicodeDecodeError", False),
    "ablate-manifest-not-utf8": (
        ABLATE + ("--manifest", "{tmp}/latin1.json", "--report", "{tmp}/r.json"),
        "UnicodeDecodeError", False),
    "evaluate-report-missing-dir": (
        EVALUATE + ("--manifest", "{manifest}", "--report", "{tmp}/no/r.json"),
        "FileNotFoundError", True),
    "ablate-report-missing-dir": (
        ABLATE + ("--manifest", "{manifest}", "--report", "{tmp}/no/r.json"),
        "FileNotFoundError", True),
    "evaluate-csv-missing-dir": (
        EVALUATE + ("--manifest", "{manifest}", "--report", "{tmp}/r.json",
                    "--report-csv", "{tmp}/no/r.csv"),
        "FileNotFoundError", True),
    "ingest-out-missing-dir": (
        ("ingest", "--suite", "mbi", "--dir", str(FIXTURES / "corpus_mbi"),
         "--compiler-cmd", "none", "--out", "{tmp}/no/m.json"),
        "FileNotFoundError", True),
    "ingest-ir-dir-is-a-file": (
        ("ingest", "--suite", "mbi", "--dir", "{tmp}/corpus", "--compiler-cmd",
         "{cc}", "--out", "{tmp}/taken.json"), "NotADirectoryError", True),
    "evaluate-report-is-directory": (
        EVALUATE + ("--manifest", "{manifest}", "--report", "{tmp}/out"),
        "IsADirectoryError", True),
    **{f"ingest-timeout-{value}": (
        ("ingest", "--suite", "mbi", "--dir", "{tmp}/corpus", "--compiler-cmd",
         "{cc}", "--timeout", value, "--out", "{tmp}/m.json"), "ConfigError", True)
       for value in ("nan", "inf", "0", "-1")},
}


class TestInputErrorTable:
    """Every input error is reported from cli._error_tables by its type name
    with exit 2, whichever command raised it."""

    @pytest.mark.parametrize("case", list(INPUT_ERRORS))
    def test_exit_2_and_no_output(self, manifest_path, tmp_path, capsys,
                                  monkeypatch, case):
        argv, kind, early = INPUT_ERRORS[case]
        (tmp_path / "latin1.json").write_bytes(b'{"manifest_version": 1, "\xe9"')
        (tmp_path / "out").mkdir()
        (tmp_path / "taken-ir").write_text("")  # where IR beside taken.json would go
        cc = tmp_path / "cc.py"
        cc.write_text(WRITE_CC)
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "a.c").write_text("// Error: OK\nint main(void){}\n")
        ir = tmp_path / "undefined.ll"
        ir.write_text(UNDEFINED_LOCAL_IR)
        model = tmp_path / "gnn.json"
        if case.startswith("predict"):
            train_gnn_model_file(model)
        before = sorted(tmp_path.rglob("*"))
        read = []
        if early:
            for name in ("read_manifest", "ingest_mbi"):
                monkeypatch.setattr(cli.corpus_mod, name,
                                    lambda *a, **k: read.append(a))
        code, stdout, stderr = run_cli(*(arg.format(
            manifest=manifest_path, tmp=tmp_path, model=model, ir=ir,
            cc=f"{sys.executable} {cc} {{source}} {{output}}") for arg in argv),
            capsys=capsys)
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr.splitlines()[-1])["error"] == kind
        assert sorted(tmp_path.rglob("*")) == before
        assert read == []


# exception classes main reports as InternalError (exit 3): each signals a bug
# in the caller, not in the user's input
INTERNAL_ERRORS = {
    "autodiff.ClassOutOfRange": "cross_entropy gets a class index outside the logits",
    "embed.ScalerMismatch": "a fitted scaler is applied to rows of another width",
    "evaluate.LengthMismatch": "metrics get label lists of different lengths",
    "gnn.EmptyDataset": "gnn.train is called without samples",
    "tabular.EmptyDataset": "a tree is grown from no rows",
    "gnn.MissingRelationParams": "a model lacks the weights of a relation it scores",
}


def test_every_exception_class_has_an_exit_code():
    """A new error class reaches main as exit 3 only if it is listed here as
    internal; an input error belongs in the usage table of cli._error_tables."""
    decided = set().union(*cli._error_tables())
    found, undecided = [], []
    for info in pkgutil.iter_modules(mpisentinel.__path__):
        module = importlib.import_module(f"mpisentinel.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.append(f"{info.name}.{name}")
                if cls not in decided and found[-1] not in INTERNAL_ERRORS:
                    undecided.append(found[-1])
    assert undecided == []
    assert set(INTERNAL_ERRORS) <= set(found)
