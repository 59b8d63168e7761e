"""Corpus ingestion: labeled samples from MBI-style and MPI-CorrBench-style
directories, source debiasing, external compilation to IR, and the manifest
file the evaluation harness consumes.

MBI-style sources carry a structured comment header naming the error; the
descriptor is regex-extracted and mapped through an alias table.  CorrBench
sources are labeled by filename prefix, with correct codes under a
"correct" directory.  Files whose label cannot be determined are quarantined
(kept and counted, never dropped).
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

MBI_ERROR_LABELS = (
    "InvalidParameter", "ResourceLeak", "RequestLifecycle", "EpochLifecycle",
    "LocalConcurrency", "ParameterMatching", "MessageRace", "CallOrdering",
    "GlobalConcurrency",
)
CORRBENCH_ERROR_LABELS = ("ArgError", "ArgMismatch", "MissplacedCall", "MissingCall")
CORRECT = "Correct"
INCORRECT = "Incorrect"
MBI_LABELS = (CORRECT,) + MBI_ERROR_LABELS
CORRBENCH_LABELS = (CORRECT,) + CORRBENCH_ERROR_LABELS

OPT_LEVELS = ("O0", "O2", "Os")

HEADER_RE = re.compile(r"Error:\s*(?P<desc>[A-Za-z][A-Za-z_ -]*)")

# descriptor (normalized: lowercase, separators removed) -> label
ALIAS_TABLE = {
    "ok": CORRECT,
    "correct": CORRECT,
    "noerror": CORRECT,
    "invalidparameter": "InvalidParameter",
    "invalidparam": "InvalidParameter",
    "resourceleak": "ResourceLeak",
    "requestlifecycle": "RequestLifecycle",
    "epochlifecycle": "EpochLifecycle",
    "localconcurrency": "LocalConcurrency",
    "parametermatching": "ParameterMatching",
    "paranoia": "ParameterMatching",
    "messagerace": "MessageRace",
    "callordering": "CallOrdering",
    "callmatching": "CallOrdering",
    "globalconcurrency": "GlobalConcurrency",
}


def to_binary(label: str) -> str:
    return CORRECT if label == CORRECT else INCORRECT


class CompilerNotFound(Exception):
    pass


class SchemaViolation(Exception):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


@dataclass
class CorpusSample:
    id: str
    suite: str                        # "MBI" | "CorrBench" | "Other"
    source_path: str
    label: str | None                 # None only while quarantined
    opt_level: str = "O0"
    ir_path: str | None = None
    compile_status: str = "ok"        # "ok" | "compile-error" | "timeout"
    compile_message: str = ""
    quarantined: bool = False
    quarantine_reason: str = ""

    @property
    def binary_label(self) -> str | None:
        return None if self.label is None else to_binary(self.label)


@dataclass
class Manifest:
    samples: list[CorpusSample] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def _normalize_descriptor(desc: str) -> str:
    return re.sub(r"[\s_\-]+", "", desc).lower()


def _leading_comment_block(text: str) -> str:
    lines = []
    in_block = False
    for line in text.splitlines():
        stripped = line.strip()
        if in_block:
            lines.append(stripped)
            if "*/" in stripped:
                in_block = False
            continue
        if stripped.startswith("//"):
            lines.append(stripped)
        elif stripped.startswith("/*"):
            lines.append(stripped)
            if "*/" not in stripped:
                in_block = True
        elif stripped == "":
            continue
        else:
            break
    return "\n".join(lines)


def _scan_sources(directory: Path) -> list[Path]:
    """Every regular file except IR products (*.ll) and hidden files."""
    out = []
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        if path.suffix == ".ll" or path.name.startswith("."):
            continue
        out.append(path)
    return out


def ingest_mbi(directory, opt_level: str = "O0") -> list[CorpusSample]:
    directory = Path(directory)
    samples = []
    for path in _scan_sources(directory):
        rel = path.relative_to(directory).as_posix()
        sid = f"mbi:{rel}@{opt_level}"
        sample = CorpusSample(sid, "MBI", str(path), None, opt_level)
        if path.suffix != ".c":
            sample.quarantined = True
            sample.quarantine_reason = f"UnrecognizedHeader: not a C source: {rel}"
        else:
            header = _leading_comment_block(path.read_text(errors="replace"))
            m = HEADER_RE.search(header)
            label = ALIAS_TABLE.get(_normalize_descriptor(m.group("desc"))) if m else None
            if label is None:
                sample.quarantined = True
                sample.quarantine_reason = (
                    f"UnrecognizedHeader: no error descriptor matched in {rel}")
            else:
                sample.label = label
        samples.append(sample)
    return samples


def ingest_corrbench(directory, opt_level: str = "O0") -> list[CorpusSample]:
    directory = Path(directory)
    samples = []
    for path in _scan_sources(directory):
        rel = path.relative_to(directory).as_posix()
        sid = f"corrbench:{rel}@{opt_level}"
        sample = CorpusSample(sid, "CorrBench", str(path), None, opt_level)
        in_correct_area = "correct" in (p.lower() for p in path.parent.parts)
        prefix = path.name.split("-", 1)[0]
        if path.suffix != ".c":
            sample.quarantined = True
            sample.quarantine_reason = f"UnrecognizedName: not a C source: {rel}"
        elif prefix in CORRBENCH_ERROR_LABELS:
            sample.label = prefix
        elif in_correct_area:
            sample.label = CORRECT
        else:
            sample.quarantined = True
            sample.quarantine_reason = (
                f"UnrecognizedName: {path.name} has no label prefix and is "
                f"outside the correct-code area")
        samples.append(sample)
    return samples


_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*["<][^">]*mpitest\.h[">]')


def debias_source(text: str) -> str:
    """Remove every include of "mpitest.h"; all other lines are untouched."""
    lines = text.splitlines(keepends=True)
    return "".join(line for line in lines if not _INCLUDE_RE.match(line))


def compile_to_ir(source, opt_level: str, compiler_cmd: str | None,
                  out_dir=None, timeout: float = 120.0,
                  debias: bool = False) -> tuple[str | None, str, str]:
    """Compile one source to textual IR via the user-supplied command
    template ({source}, {output}, {opt} placeholders).

    compiler_cmd None/"none" skips compilation and picks up a pre-compiled
    sibling (<stem>.<opt>.ll, then <stem>.ll).  Returns
    (ir_path, status, message) where status is "ok", "compile-error" or
    "timeout" (the command ran longer than timeout seconds and was killed).
    """
    source = Path(source)
    if compiler_cmd in (None, "", "none"):
        for candidate in (source.with_suffix(f".{opt_level}.ll"),
                          source.with_suffix(".ll")):
            if candidate.exists():
                return str(candidate), "ok", ""
        return None, "compile-error", (
            f"no pre-compiled IR next to {source.name} and no compiler configured")
    out_dir = Path(out_dir) if out_dir else source.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    compile_src = source
    if debias:
        compile_src = out_dir / (source.stem + ".debiased.c")
        compile_src.write_text(debias_source(source.read_text(errors="replace")))
    output = out_dir / f"{source.stem}.{opt_level}.ll"
    cmd = compiler_cmd.format(source=str(compile_src), output=str(output),
                              opt=f"-{opt_level}")
    try:
        proc = subprocess.run(shlex.split(cmd), capture_output=True, text=True,
                              timeout=timeout)
    except FileNotFoundError as exc:
        raise CompilerNotFound(f"compiler not found: {exc}") from exc
    except subprocess.TimeoutExpired:
        return None, "timeout", f"compiler timed out after {timeout} seconds"
    if proc.returncode != 0:
        return None, "compile-error", proc.stderr.strip()
    if not output.exists():
        return None, "compile-error", f"compiler produced no output at {output}"
    return str(output), "ok", ""


def attach_ir(samples: list[CorpusSample], compiler_cmd: str | None,
              out_dir=None, timeout: float = 120.0, jobs: int = 1):
    """Compile (or locate) IR for every non-quarantined sample, in place."""
    work = [s for s in samples if not s.quarantined]

    def one(sample: CorpusSample):
        ir, status, message = compile_to_ir(
            sample.source_path, sample.opt_level, compiler_cmd, out_dir,
            timeout, debias=sample.suite == "CorrBench")
        sample.ir_path = ir
        sample.compile_status = status
        sample.compile_message = message

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(one, work))
    else:
        for sample in work:
            one(sample)


# ---------------------------------------------------------------------------
# Manifest file (schema version 1)

_SUITES = ("MBI", "CorrBench", "Other")
_STATUSES = ("ok", "compile-error", "timeout")
_ALL_LABELS = set(MBI_LABELS) | set(CORRBENCH_LABELS)
# sample fields with a checked JSON type: (key, accepted types, what is expected)
_FIELD_TYPES = (
    ("id", str, "a string"),
    ("label", (str, type(None)), "a string or null"),
    ("quarantined", bool, "true or false"),
    ("ir", (str, type(None)), "a string or null"),
)


def manifest_to_dict(manifest: Manifest) -> dict:
    return {
        "manifest_version": 1,
        "provenance": manifest.provenance,
        "samples": [{
            "id": s.id, "suite": s.suite, "source": s.source_path,
            "ir": s.ir_path, "label": s.label, "binary": s.binary_label,
            "opt": s.opt_level, "status": s.compile_status,
            "message": s.compile_message, "quarantined": s.quarantined,
            "quarantine_reason": s.quarantine_reason,
        } for s in manifest.samples],
    }


def write_manifest(manifest: Manifest, path):
    with open(path, "w") as fh:
        json.dump(manifest_to_dict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> Manifest:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaViolation("", "expected a JSON object")
    if doc.get("manifest_version") != 1:
        raise SchemaViolation("/manifest_version", "expected manifest_version 1")
    if not isinstance(doc.get("samples"), list):
        raise SchemaViolation("/samples", "expected a list")
    manifest = Manifest(provenance=doc.get("provenance", {}))
    seen_ids = set()
    for i, entry in enumerate(doc["samples"]):
        where = f"/samples/{i}"
        if not isinstance(entry, dict):
            raise SchemaViolation(where, "expected an object")
        for key in ("id", "suite", "opt", "status", "quarantined"):
            if key not in entry:
                raise SchemaViolation(f"{where}/{key}", "missing required field")
        for key, types, expected in _FIELD_TYPES:
            if not isinstance(entry.get(key), types):
                raise SchemaViolation(f"{where}/{key}", f"expected {expected}")
        if entry["id"] in seen_ids:
            raise SchemaViolation(f"{where}/id", f"duplicate sample id {entry['id']!r}")
        seen_ids.add(entry["id"])
        if entry["suite"] not in _SUITES:
            raise SchemaViolation(f"{where}/suite", f"unknown suite {entry['suite']!r}")
        if entry["opt"] not in OPT_LEVELS:
            raise SchemaViolation(f"{where}/opt", f"unknown opt level {entry['opt']!r}")
        if entry["status"] not in _STATUSES:
            raise SchemaViolation(f"{where}/status", f"unknown status {entry['status']!r}")
        label = entry.get("label")
        if not entry["quarantined"]:
            if label not in _ALL_LABELS:
                raise SchemaViolation(f"{where}/label", f"unknown label {label!r}")
            expected = to_binary(label)
            if entry.get("binary") != expected:
                raise SchemaViolation(f"{where}/binary",
                                      f"binary label must be {expected!r}")
            if (entry["status"] == "ok") != (entry.get("ir") is not None):
                raise SchemaViolation(f"{where}/ir",
                                      "ir must be present exactly when status is ok")
        sample = CorpusSample(
            id=entry["id"], suite=entry["suite"], source_path=entry.get("source", ""),
            label=label, opt_level=entry["opt"], ir_path=entry.get("ir"),
            compile_status=entry["status"], compile_message=entry.get("message", ""),
            quarantined=entry["quarantined"],
            quarantine_reason=entry.get("quarantine_reason", ""))
        manifest.samples.append(sample)
    return manifest
