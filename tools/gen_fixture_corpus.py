#!/usr/bin/env python3
"""Regenerate the bundled synthetic benchmark fixtures.

Each error label gets a distinctive marker opcode and a distinctive MPI
callee so both backends can separate the classes from token structure alone.
Files within one label share the same instruction multiset (only identifiers
vary), so embeddings per label are identical and cross-validation behaviour
is exactly reproducible.  Output is committed; rerun only to change the
corpus layout.

It also writes instructions.golden.json: every distinct instruction line of
the fixtures' `.ll` files mapped to what `ircore.parse_instruction` reads from
it (opcode, type, operand kinds and tokens, result and call target), so a
change in how one line parses shows in its diff and fails the test that
compares a fresh parse with it.  Rerun after a deliberate parse change.

    python3 tools/gen_fixture_corpus.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = FIXTURES / "instructions.golden.json"

# label -> (marker lines template, callee name, callee declare)
MBI_SHAPES = {
    "Correct": ([], "MPI_Finalize", "declare i32 @MPI_Finalize()"),
    "InvalidParameter": (["  %m{k} = atomicrmw add ptr %buf{k}, i32 1 seq_cst"],
                         "MPI_Send", "declare i32 @MPI_Send(ptr, i32)"),
    "ResourceLeak": (["  fence seq_cst"],
                     "MPI_Isend", "declare i32 @MPI_Isend(ptr, i32)"),
    "RequestLifecycle": (["  %m{k} = select i1 true, i32 1, i32 2"],
                         "MPI_Wait", "declare i32 @MPI_Wait(ptr, i32)"),
    "EpochLifecycle": (["  %f{k} = sitofp i32 %v{k} to float",
                        "  %m{k} = fneg float %f{k}"],
                       "MPI_Win_fence", "declare i32 @MPI_Win_fence(ptr, i32)"),
    "LocalConcurrency": (["  %m{k} = xor i32 %v{k}, 255"],
                         "MPI_Irecv", "declare i32 @MPI_Irecv(ptr, i32)"),
    "ParameterMatching": (["  %m{k} = sdiv i32 %v{k}, 3"],
                          "MPI_Recv", "declare i32 @MPI_Recv(ptr, i32)"),
    "MessageRace": (["  %m{k} = urem i32 %v{k}, 7"],
                    "MPI_Iprobe", "declare i32 @MPI_Iprobe(ptr, i32)"),
    "CallOrdering": (["  %m{k} = shl i32 %v{k}, 2"],
                     "MPI_Barrier", "declare i32 @MPI_Barrier(ptr, i32)"),
    "GlobalConcurrency": (["  %m{k} = ashr i32 %v{k}, 1"],
                          "MPI_Reduce", "declare i32 @MPI_Reduce(ptr, i32)"),
}

# CorrBench shapes reuse MBI shapes so suites share binary-level structure
CORRBENCH_SHAPES = {
    "Correct": "Correct",
    "ArgError": "InvalidParameter",
    "ArgMismatch": "ParameterMatching",
    "MissplacedCall": "CallOrdering",
    "MissingCall": "ResourceLeak",
}

CORRBENCH_FILENAMES = {
    "ArgError": "ArgError-MPIIRecv-Count-{k}.c",
    "ArgMismatch": "ArgMismatch-MPISend-Type-{k}.c",
    "MissplacedCall": "MissplacedCall-Barrier-Order-{k}.c",
    "MissingCall": "MissingCall-Init-{k}.c",
}


def make_ll(label: str, k: int, suite: str) -> str:
    marker, callee, declare = MBI_SHAPES[label]
    fn = f"prog_{suite}_{label.lower()}_{k}"
    lines = [
        f"; synthetic {suite} fixture, class {label}, variant {k}",
        "declare i32 @MPI_Init(ptr, ptr)",
        declare,
        "",
        f"define i32 @{fn}() {{",
        "entry:",
        f"  %buf{k} = alloca i32",
        f"  store i32 0, ptr %buf{k}",
        f"  %rc{k} = call i32 @MPI_Init(ptr %buf{k}, ptr %buf{k})",
        f"  %v{k} = load i32, ptr %buf{k}",
    ]
    lines += [m.format(k=k) for m in marker]
    lines += [
        f"  %c{k} = icmp sgt i32 %v{k}, 0",
        f"  br i1 %c{k}, label %act{k}, label %done{k}",
        f"act{k}:",
        f"  %r{k} = call i32 @{callee}(ptr %buf{k}, i32 %v{k})"
        if label != "Correct" else
        f"  %r{k} = call i32 @{callee}()",
        f"  br label %done{k}",
        f"done{k}:",
        "  ret i32 0",
        "}",
    ]
    return "\n".join(lines) + "\n"


def make_mbi_c(label: str, k: int) -> str:
    descriptor = "OK" if label == "Correct" else label
    return (
        "////////////////// MPI bugs collection header //////////////////\n"
        "//\n"
        "// Origin: synthetic fixture corpus\n"
        "//\n"
        f"// Error: {descriptor}\n"
        "//\n"
        "/////////////////////////////////////////////////////////////////\n"
        "#include <mpi.h>\n"
        "int main(int argc, char **argv) {\n"
        "  MPI_Init(&argc, &argv);\n"
        f"  /* variant {k} */\n"
        "  MPI_Finalize();\n"
        "  return 0;\n"
        "}\n")


def make_corrbench_c(label: str, k: int) -> str:
    return (
        '#include "mpitest.h"\n' if label == "Correct" else ""
    ) + (
        "#include <mpi.h>\n"
        "int main(int argc, char **argv) {\n"
        "  MPI_Init(&argc, &argv);\n"
        f"  /* {label} variant {k} */\n"
        "  MPI_Finalize();\n"
        "  return 0;\n"
        "}\n")


def instruction_lines(text: str) -> list[str]:
    """The distinct instruction lines of one module, as parse_ir meets them."""
    from mpisentinel import ircore
    memo: dict = {}
    module, seen, body = ircore.IrModule("", []), set(), None
    for lineno, line in ircore._logical_lines(text.splitlines()):
        if body is None:
            body = ircore._module_line(module, seen, memo, line, lineno)
        elif line == "}":
            body = None
        else:
            body.feed(line, lineno)
    # the memo also keeps each signature, under its text with a newline in front
    return [line for line in memo if not line.startswith("\n")]


def instruction_records(paths) -> dict[str, dict]:
    """Each distinct instruction line of the files, sorted, mapped to its
    fresh parse."""
    from mpisentinel.ircore import parse_instruction
    lines = {line for path in paths for line in instruction_lines(Path(path).read_text())}
    records = {}
    for line in sorted(lines):
        instr = parse_instruction(line)
        records[line] = {
            "opcode": instr.opcode, "type": instr.type_str,
            "operands": [[op.kind, op.token] for op in instr.operands],
            "result": instr.result_id, "call_target": instr.call_target}
    return records


def main() -> int:
    mbi = FIXTURES / "corpus_mbi"
    corr = FIXTURES / "corpus_corrbench"
    (corr / "correct").mkdir(parents=True, exist_ok=True)
    mbi.mkdir(parents=True, exist_ok=True)

    count = 0
    for label in MBI_SHAPES:
        for k in range(7):
            stem = f"{label.lower()}_{k}"
            (mbi / f"{stem}.c").write_text(make_mbi_c(label, k))
            (mbi / f"{stem}.ll").write_text(make_ll(label, k, "mbi"))
            count += 1
    for label, shape in CORRBENCH_SHAPES.items():
        for k in range(6):
            if label == "Correct":
                c_path = corr / "correct" / f"coll-barrier-{k}.c"
            else:
                c_path = corr / CORRBENCH_FILENAMES[label].format(k=k)
            c_path.write_text(make_corrbench_c(label, k))
            c_path.with_suffix(".ll").write_text(make_ll(shape, k, "corrbench"))
            count += 1

    sys.path.insert(0, str(ROOT / "src"))
    from mpisentinel import ircore
    lls = sorted(FIXTURES.rglob("*.ll"))
    for ll in lls:
        module = ircore.parse_ir(ll.read_text(), ll.stem)
        assert module.defined_functions(), ll
    records = instruction_records(lls)
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(line)}: {json.dumps(rec)}" for line, rec in records.items()) + "\n}\n")
    print(f"wrote {count} fixture pairs under {FIXTURES}")
    print(f"wrote {len(records)} instruction lines to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
