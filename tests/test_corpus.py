import json
import shutil
import sys

import pytest

from mpisentinel import corpus as cm
from mpisentinel import ircore

MBI_HEADER = """\
////////////////// MPI bugs collection header //////////////////
//
// Origin: mock
//
// Error: {desc}
//
/////////////////////////////////////////////////////////////////
int main(void) {{ return 0; }}
"""


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestIngestMbi:
    def test_correct_header(self, tmp_path):
        write(tmp_path / "ok_case.c", MBI_HEADER.format(desc="OK"))
        samples = cm.ingest_mbi(tmp_path)
        assert len(samples) == 1
        assert samples[0].label == "Correct"
        assert samples[0].binary_label == "Correct"
        assert not samples[0].quarantined

    def test_call_ordering_header(self, tmp_path):
        write(tmp_path / "bug.c", MBI_HEADER.format(desc="Call ordering"))
        samples = cm.ingest_mbi(tmp_path)
        assert samples[0].label == "CallOrdering"
        assert samples[0].binary_label == "Incorrect"

    def test_headerless_file_quarantined(self, tmp_path):
        write(tmp_path / "plain.c", "int main(void) { return 0; }\n")
        samples = cm.ingest_mbi(tmp_path)
        assert samples[0].quarantined
        assert "UnrecognizedHeader" in samples[0].quarantine_reason

    def test_no_silent_loss(self, tmp_path):
        write(tmp_path / "a.c", MBI_HEADER.format(desc="OK"))
        write(tmp_path / "b.c", MBI_HEADER.format(desc="Message race"))
        write(tmp_path / "README.txt", "notes\n")
        write(tmp_path / "c.c", "no header\n")
        samples = cm.ingest_mbi(tmp_path)
        found = [p for p in tmp_path.rglob("*") if p.is_file()
                 and p.suffix != ".ll" and not p.name.startswith(".")]
        assert len(samples) == len(found) == 4
        assert sum(1 for s in samples if s.quarantined) == 2


class TestIngestCorrbench:
    def test_paper_example_filename(self, tmp_path):
        write(tmp_path / "ArgError-MPIIRecv-Count-1.c", "int main(void){}\n")
        samples = cm.ingest_corrbench(tmp_path)
        assert samples[0].label == "ArgError"

    def test_missing_call_prefix(self, tmp_path):
        write(tmp_path / "MissingCall-Init-1.c", "int main(void){}\n")
        samples = cm.ingest_corrbench(tmp_path)
        assert samples[0].label == "MissingCall"

    def test_correct_area(self, tmp_path):
        write(tmp_path / "correct" / "coll-barrier-1.c", "int main(void){}\n")
        samples = cm.ingest_corrbench(tmp_path)
        assert samples[0].label == "Correct"

    def test_correct_area_is_read_below_the_suite_directory(self, tmp_path):
        """A directory named `correct` above the suite marks nothing."""
        suite = tmp_path / "correct" / "cb"
        write(suite / "sub" / "foo.c", "int main(void){}\n")
        write(suite / "correct" / "bar.c", "int main(void){}\n")
        samples = cm.ingest_corrbench(suite)
        assert [(s.source_path.endswith("foo.c"), s.label, s.quarantined)
                for s in samples] == [(False, "Correct", False), (True, None, True)]

    def test_notes_file_quarantined(self, tmp_path):
        write(tmp_path / "notes.txt", "scratch\n")
        samples = cm.ingest_corrbench(tmp_path)
        assert samples[0].quarantined
        assert "UnrecognizedName" in samples[0].quarantine_reason

    def test_unlabeled_c_file_quarantined(self, tmp_path):
        write(tmp_path / "helper.c", "int main(void){}\n")
        samples = cm.ingest_corrbench(tmp_path)
        assert samples[0].quarantined


class TestDebias:
    def test_without_include_unchanged(self):
        text = '#include <mpi.h>\nint main(void) { return 0; }\n'
        assert cm.debias_source(text) == text

    def test_include_line_removed_byte_exact(self):
        lines = ['#include <mpi.h>\n', 'int x;\n', '#include "mpitest.h"\n',
                 'int main(void) { return 0; }\n']
        text = "".join(lines)
        assert cm.debias_source(text) == "".join(lines[:2] + lines[3:])

    def test_idempotent(self):
        text = '#include "mpitest.h"\nint main(void){}\n'
        once = cm.debias_source(text)
        assert cm.debias_source(once) == once

    def test_only_mpitest_lines_touched(self):
        rng_lines = [f"int v{i} = {i};\n" for i in range(20)]
        text = "".join(rng_lines[:7] + ['# include <mpitest.h>\n'] + rng_lines[7:])
        out = cm.debias_source(text)
        assert out == "".join(rng_lines)


FAKE_CC = """\
import sys, pathlib
src, out, opt = sys.argv[1:4]
if "slow" in src:
    import time
    time.sleep(60)
if "bad" in src:
    sys.stderr.write("fake-cc: syntax error near line 3\\n")
    sys.exit(1)
pathlib.Path(out).write_text("define void @f() { ret void }\\n; built %s %s\\n" % (src, opt))
"""


class TestCompile:
    def test_precompiled_sibling(self, tmp_path):
        src = write(tmp_path / "a.c", "int main(void){}\n")
        write(tmp_path / "a.ll", "define void @f() { ret void }\n")
        ir, status, message = cm.compile_to_ir(src, "O0", "none")
        assert status == "ok" and message == ""
        assert ircore.parse_ir(open(ir).read()).functions

    def test_missing_precompiled_is_compile_error(self, tmp_path):
        src = write(tmp_path / "a.c", "int main(void){}\n")
        ir, status, message = cm.compile_to_ir(src, "O0", None)
        assert ir is None and status == "compile-error"

    def test_fake_compiler_success_and_failure(self, tmp_path):
        cc = write(tmp_path / "fake_cc.py", FAKE_CC)
        template = f"{sys.executable} {cc} {{source}} {{output}} {{opt}}"
        good = write(tmp_path / "good.c", "int main(void){}\n")
        bad = write(tmp_path / "bad.c", "int main(void){\n")
        ir, status, _ = cm.compile_to_ir(good, "O2", template, out_dir=tmp_path / "out")
        assert status == "ok" and ir.endswith("good.O2.ll")
        ir2, status2, message2 = cm.compile_to_ir(bad, "O2", template,
                                                  out_dir=tmp_path / "out")
        assert ir2 is None and status2 == "compile-error"
        assert "syntax error" in message2

    def test_timeout_is_one_samples_status(self, tmp_path):
        cc = write(tmp_path / "fake_cc.py", FAKE_CC)
        template = f"{sys.executable} {cc} {{source}} {{output}} {{opt}}"
        write(tmp_path / "src" / "slow.c", MBI_HEADER.format(desc="OK"))
        write(tmp_path / "src" / "zfast.c", MBI_HEADER.format(desc="OK"))
        samples = cm.ingest_mbi(tmp_path / "src")
        cm.attach_ir(samples, template, out_dir=tmp_path / "out", timeout=0.9)
        slow, fast = samples
        assert (slow.compile_status, slow.ir_path) == ("timeout", None)
        assert "timed out after 0.9 seconds" in slow.compile_message
        assert fast.compile_status == "ok" and fast.ir_path.endswith("zfast.O0.ll")
        again = TestManifest().roundtrip(cm.Manifest(samples), tmp_path)
        assert [s.compile_status for s in again.samples] == ["timeout", "ok"]

    def test_two_opt_levels_two_samples(self, tmp_path):
        cc = write(tmp_path / "fake_cc.py", FAKE_CC)
        template = f"{sys.executable} {cc} {{source}} {{output}} {{opt}}"
        write(tmp_path / "x.c", MBI_HEADER.format(desc="OK"))
        ids = set()
        for opt in ("O0", "O2"):
            samples = cm.ingest_mbi(tmp_path, opt_level=opt)
            samples = [s for s in samples if s.source_path.endswith("x.c")]
            cm.attach_ir(samples, template, out_dir=tmp_path / "out")
            assert samples[0].compile_status == "ok"
            ids.add(samples[0].id)
        assert len(ids) == 2

    def test_repeat_corrbench_ingest_writes_the_same_manifest(self, tmp_path,
                                                              fixtures_dir):
        """Ingesting the same directory twice into the same manifest path
        writes the same manifest: the debiased copies and the IR go to the
        manifest's IR directory, and no run takes them for samples."""
        from mpisentinel import cli
        corpus = shutil.copytree(fixtures_dir / "corpus_corrbench",
                                 tmp_path / "corrbench")
        cc = write(tmp_path / "fake_cc.py", FAKE_CC)
        template = f"{sys.executable} {cc} {{source}} {{output}} {{opt}}"
        manifests = []
        out = tmp_path / "m.json"
        for _ in range(2):
            assert cli.main(["--jobs", "2", "ingest", "--suite", "corrbench",
                             "--dir", str(corpus), "--compiler-cmd", template,
                             "--out", str(out)]) == 0
            manifests.append(out.read_bytes())
        assert manifests[0] == manifests[1]
        assert len(json.loads(manifests[0])["samples"]) == 30

    def test_compiler_not_found(self, tmp_path):
        src = write(tmp_path / "a.c", "int main(void){}\n")
        with pytest.raises(cm.CompilerNotFound):
            cm.compile_to_ir(src, "O0", "/definitely/not/a/compiler {source} {output} {opt}")

    @pytest.mark.skipif(shutil.which("clang") is None,
                        reason="no clang on PATH")
    def test_real_clang_end_to_end(self, tmp_path):
        src = write(tmp_path / "trivial.c", "int main(void) { return 0; }\n")
        template = "clang -S -emit-llvm {opt} -o {output} {source}"
        ir, status, message = cm.compile_to_ir(src, "O0", template,
                                               out_dir=tmp_path / "out")
        assert status == "ok", message
        module = ircore.parse_ir(open(ir).read())
        assert any(f.name == "main" for f in module.functions)


class TestManifest:
    def roundtrip(self, manifest, tmp_path):
        path = tmp_path / "m.json"
        cm.write_manifest(manifest, path)
        return cm.read_manifest(path)

    def test_empty_round_trip(self, tmp_path):
        again = self.roundtrip(cm.Manifest(provenance={"seed": 1}), tmp_path)
        assert again.samples == [] and again.provenance == {"seed": 1}

    def test_quarantine_flag_preserved(self, tmp_path):
        sample = cm.CorpusSample("mbi:x.c@O0", "MBI", "x.c", None,
                                 quarantined=True,
                                 quarantine_reason="UnrecognizedHeader: x")
        again = self.roundtrip(cm.Manifest([sample]), tmp_path)
        assert again.samples[0].quarantined
        assert again.samples[0].quarantine_reason.startswith("UnrecognizedHeader")

    def test_unknown_status_rejected(self, tmp_path):
        doc = cm.manifest_to_dict(cm.Manifest([
            cm.CorpusSample("a", "MBI", "a.c", "Correct", compile_status="hung")]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cm.SchemaViolation) as err:
            cm.read_manifest(path)
        assert err.value.pointer == "/samples/0/status"

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = cm.manifest_to_dict(cm.Manifest([
            cm.CorpusSample("dup", "MBI", "a.c", "Correct", ir_path="a.ll"),
            cm.CorpusSample("dup", "MBI", "b.c", "Correct", ir_path="b.ll"),
        ]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cm.SchemaViolation) as err:
            cm.read_manifest(path)
        assert err.value.pointer == "/samples/1/id"

    def test_binary_consistency_enforced(self, tmp_path):
        doc = cm.manifest_to_dict(cm.Manifest([
            cm.CorpusSample("a", "MBI", "a.c", "MessageRace", ir_path="a.ll")]))
        doc["samples"][0]["binary"] = "Correct"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cm.SchemaViolation) as err:
            cm.read_manifest(path)
        assert "/binary" in err.value.pointer

    def test_ir_presence_tracks_status(self, tmp_path):
        doc = cm.manifest_to_dict(cm.Manifest([
            cm.CorpusSample("a", "MBI", "a.c", "Correct", ir_path=None,
                            compile_status="ok")]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cm.SchemaViolation):
            cm.read_manifest(path)

    @pytest.mark.parametrize("field, value", [
        ("id", []), ("id", 5), ("label", ["x"]), ("label", 3),
        ("quarantined", "no"), ("quarantined", 0), ("ir", 7), ("ir", ["a.ll"]),
    ])
    def test_sample_field_types_checked(self, tmp_path, field, value):
        doc = cm.manifest_to_dict(cm.Manifest([
            cm.CorpusSample("b", "MBI", "b.c", "Correct", ir_path="b.ll"),
            cm.CorpusSample("a", "MBI", "a.c", "Correct", ir_path="a.ll")]))
        doc["samples"][1][field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cm.SchemaViolation) as err:
            cm.read_manifest(path)
        assert err.value.pointer == f"/samples/1/{field}"

    def test_label_binary_consistency_over_fixture_corpus(self, fixture_manifest):
        for s in fixture_manifest.samples:
            if s.quarantined:
                continue
            assert (s.binary_label == "Correct") == (s.label == "Correct")

    def test_fixture_corpus_fully_ok(self, fixture_manifest):
        assert len(fixture_manifest.samples) == 100
        assert not any(s.quarantined for s in fixture_manifest.samples)
        assert all(s.compile_status == "ok" for s in fixture_manifest.samples)
        mbi = [s for s in fixture_manifest.samples if s.suite == "MBI"]
        labels = {s.label for s in mbi}
        assert labels == set(cm.MBI_LABELS)


class TestParallelCompilation:
    def test_attach_ir_with_worker_pool(self, tmp_path):
        import sys as _sys
        cc = write(tmp_path / "fake_cc.py", FAKE_CC)
        template = f"{_sys.executable} {cc} {{source}} {{output}} {{opt}}"
        for i in range(6):
            write(tmp_path / f"s{i}.c", MBI_HEADER.format(desc="OK"))
        samples = cm.ingest_mbi(tmp_path)
        samples = [s for s in samples if s.source_path.endswith(".c")
                   and not s.quarantined]
        cm.attach_ir(samples, template, out_dir=tmp_path / "out", jobs=4)
        assert all(s.compile_status == "ok" for s in samples)
