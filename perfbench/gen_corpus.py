"""Seeded synthetic MBI-style corpus for the benchmark.

Writes one ``<stem>.c`` / ``<stem>.ll`` pair per sample, in the layout that
``mpisentinel ingest --suite mbi --compiler-cmd none`` accepts: the C file
carries the MBI header naming the error, the IR sibling is the "compiled"
module.  Unlike ``tools/gen_fixture_corpus.py`` (whose modules of one label
share one instruction multiset), modules here vary in structure: each has
a number of helper functions with counted loops (phis, loads, stores,
getelementptr), optional branches inside the loop, and calls between
helpers and to MPI.

The label signal is noisy: each error label has a marker instruction
sequence and an MPI callee, placed in a share of the helpers so that the
signal grows with the module.  Either can be missing from a module, and
decoy markers or callees of another label can appear.  Every inserted instruction
references only values defined before it, so every module parses and builds
a program graph.

Cost stability across seeds: the multiset of module shapes (helper count,
loop body lengths, branches, call pattern) and the multiset of labels are
fixed by the spec, and so are the counts of noisy modules; the seed
shuffles which module gets which shape, label and noise, and picks filler
opcodes, constants, decoy labels and signal sites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CORRECT = "Correct"
ERROR_LABELS = (
    "InvalidParameter", "ResourceLeak", "RequestLifecycle", "EpochLifecycle",
    "LocalConcurrency", "ParameterMatching", "MessageRace", "CallOrdering",
    "GlobalConcurrency",
)

# label -> marker lines; {k} is a unique suffix, {v} an i32 value and {p} a
# pointer, both defined earlier in the same block
MARKERS = {
    "InvalidParameter": ["%m{k} = atomicrmw add ptr {p}, i32 1 seq_cst"],
    "ResourceLeak": ["fence seq_cst"],
    "RequestLifecycle": ["%m{k} = select i1 true, i32 {v}, i32 2"],
    "EpochLifecycle": ["%f{k} = sitofp i32 {v} to float",
                       "%m{k} = fneg float %f{k}"],
    "LocalConcurrency": ["%m{k} = xor i32 {v}, 255"],
    "ParameterMatching": ["%m{k} = sdiv i32 {v}, 3"],
    "MessageRace": ["%m{k} = urem i32 {v}, 7"],
    "CallOrdering": ["%m{k} = shl i32 {v}, 2"],
    "GlobalConcurrency": ["%m{k} = ashr i32 {v}, 1"],
}

CALLEES = {
    "InvalidParameter": "MPI_Send", "ResourceLeak": "MPI_Isend",
    "RequestLifecycle": "MPI_Wait", "EpochLifecycle": "MPI_Win_fence",
    "LocalConcurrency": "MPI_Irecv", "ParameterMatching": "MPI_Recv",
    "MessageRace": "MPI_Iprobe", "CallOrdering": "MPI_Barrier",
    "GlobalConcurrency": "MPI_Reduce",
}

# opcodes that never appear in a marker, so filler does not mimic a label
FILLER_OPS = ("add", "sub", "mul", "and", "or", "lshr", "srem")


@dataclass(frozen=True)
class CorpusSpec:
    modules: int
    helpers: tuple[int, int]        # helper functions per module, inclusive
    body_ops: tuple[int, int]       # filler ops per loop body, inclusive
    label_mode: str                 # "error-type" | "binary"
    correct_share: float = 0.5      # binary mode: share of Correct modules
    # shares of error modules without their marker / without their callee
    # (disjoint), and of all modules with a decoy of another label
    p_marker_missing: float = 0.2
    p_callee_missing: float = 0.2
    p_decoy: float = 0.2
    site_share: float = 0.5         # share of helpers carrying one signal


def _labels(spec: CorpusSpec) -> list[str]:
    """Fixed label multiset: uniform over all labels for error-type, a
    Correct share plus the error labels round-robin for binary."""
    if spec.label_mode == "error-type":
        space = (CORRECT,) + ERROR_LABELS
        return [space[i % len(space)] for i in range(spec.modules)]
    n_correct = round(spec.modules * spec.correct_share)
    return ([CORRECT] * n_correct
            + [ERROR_LABELS[i % len(ERROR_LABELS)]
               for i in range(spec.modules - n_correct)])


def _shapes(spec: CorpusSpec) -> list[list[tuple[int, bool]]]:
    """Fixed shape multiset: per module, (body ops, has branch) per helper."""
    h_lo, h_hi = spec.helpers
    b_lo, b_hi = spec.body_ops
    shapes = []
    for i in range(spec.modules):
        n_helpers = h_lo + i % (h_hi - h_lo + 1)
        shapes.append([(b_lo + (3 * i + 5 * j) % (b_hi - b_lo + 1), (i + j) % 3 == 0)
                       for j in range(n_helpers)])
    return shapes


@dataclass(frozen=True)
class _Noise:
    marker_missing: bool
    callee_missing: bool
    decoy: str | None               # another error label whose signal appears


def _noise(spec: CorpusSpec, labels: list[str], rng: random.Random) -> list[_Noise]:
    """Noise per module, in fixed counts: a share of the error modules lacks
    its marker, a disjoint share lacks its callee, and a share of all
    modules carries a decoy."""
    errors = [i for i, lab in enumerate(labels) if lab != CORRECT]
    rng.shuffle(errors)
    n_marker = round(spec.p_marker_missing * len(errors))
    n_callee = round(spec.p_callee_missing * len(errors))
    no_marker = set(errors[:n_marker])
    no_callee = set(errors[n_marker:n_marker + n_callee])
    decoyed = set(rng.sample(range(len(labels)), round(spec.p_decoy * len(labels))))
    out = []
    for i, label in enumerate(labels):
        decoy = None
        if i in decoyed:
            decoy = rng.choice([lab for lab in ERROR_LABELS if lab != label])
        out.append(_Noise(i in no_marker, i in no_callee, decoy))
    return out


class _ModuleWriter:
    def __init__(self, rng: random.Random, label: str, shape, noise: _Noise,
                 spec: CorpusSpec):
        self.rng = rng
        self.label = label
        self.shape = shape
        self.noise = noise
        self.spec = spec

    def _helper(self, j: int, body_ops: int, branch: bool,
                markers: list[str], callees: list[str]) -> list[str]:
        rng = self.rng
        n = len(self.shape)
        out = [f"define i32 @helper{j}(ptr %p, i32 %n) {{",
               "entry:",
               "  %acc.addr = alloca i32",
               "  store i32 0, ptr %acc.addr",
               "  %start = load i32, ptr %p",
               "  br label %loop",
               "loop:",
               "  %i = phi i32 [ 0, %entry ], [ %i.next, %latch ]",
               "  %acc = phi i32 [ %start, %entry ], [ %acc.next, %latch ]",
               "  %cmp = icmp slt i32 %i, %n",
               "  br i1 %cmp, label %body, label %exit",
               "body:",
               "  %slot = getelementptr i32, ptr %p, i32 %i",
               "  %x = load i32, ptr %slot"]
        prev = "%x"
        for t in range(body_ops):
            op = rng.choice(FILLER_OPS)
            rhs = rng.choice(("%acc", "%i", str(rng.randint(1, 97))))
            if op in ("lshr", "srem") and not rhs.startswith("%"):
                rhs = str(rng.randint(1, 7))
            out.append(f"  %t{t} = {op} i32 {prev}, {rhs}")
            prev = f"%t{t}"
        for k, label in enumerate(markers):
            out += ["  " + m.format(k=k, v="%x", p="%slot") for m in MARKERS[label]]
        out.append(f"  store i32 {prev}, ptr %slot")
        if branch:
            out += ["  %odd = and i32 %i, 1",
                    "  %even = icmp eq i32 %odd, 0",
                    "  br i1 %even, label %then, label %latch",
                    "then:",
                    f"  %y = sub i32 {prev}, %i",
                    "  br label %latch",
                    "latch:",
                    f"  %v = phi i32 [ {prev}, %body ], [ %y, %then ]"]
        else:
            out += ["  br label %latch",
                    "latch:",
                    f"  %v = add i32 {prev}, 0"]
        out += ["  %acc.next = add i32 %acc, %v",
                "  %i.next = add nsw i32 %i, 1",
                "  br label %loop",
                "exit:"]
        result = "%acc"
        for c, callee in enumerate(q for q in (j + 1, j + 3) if q < n):
            out.append(f"  %c{c} = call i32 @helper{callee}(ptr %p, i32 {result})")
            result = f"%c{c}"
        for c, callee in enumerate(callees):
            out.append(f"  %r{c} = call i32 @{callee}(ptr %p, i32 {result})")
        out += [f"  store i32 {result}, ptr %acc.addr",
                "  %res = load i32, ptr %acc.addr",
                "  ret i32 %res",
                "}"]
        return out

    def _sites(self, share: float) -> list[bool]:
        """Which helpers carry one signal: each with probability share, and
        at least one."""
        n = len(self.shape)
        picked = [self.rng.random() < share for _ in range(n)]
        if not any(picked):
            picked[self.rng.randrange(n)] = True
        return picked

    def render(self, title: str) -> str:
        rng, spec, label, noise = self.rng, self.spec, self.label, self.noise
        n = len(self.shape)
        markers: list[list[str]] = [[] for _ in range(n)]
        callees: list[list[str]] = [[] for _ in range(n)]
        if label != CORRECT:
            if not noise.marker_missing:
                for j, hit in enumerate(self._sites(spec.site_share)):
                    if hit:
                        markers[j].append(label)
            if not noise.callee_missing:
                for j, hit in enumerate(self._sites(spec.site_share)):
                    if hit:
                        callees[j].append(CALLEES[label])
        if noise.decoy is not None:
            for j, hit in enumerate(self._sites(spec.site_share / 2)):
                if hit:
                    if rng.random() < 0.5:
                        markers[j].append(noise.decoy)
                    else:
                        callees[j].append(CALLEES[noise.decoy])

        lines = [f"; {title}",
                 "declare i32 @MPI_Init(ptr, ptr)",
                 "declare i32 @MPI_Comm_rank(i32, ptr)",
                 "declare i32 @MPI_Finalize()"]
        lines += [f"declare i32 @{c}(ptr, i32)" for c in sorted(set(CALLEES.values()))]
        lines.append("")
        for j, (body_ops, branch) in enumerate(self.shape):
            lines += self._helper(j, body_ops, branch, markers[j], callees[j])
            lines.append("")
        lines += ["define i32 @main(i32 %argc, ptr %argv) {",
                  "entry:",
                  "  %buf = alloca i32, i32 64",
                  "  %rc = call i32 @MPI_Init(ptr null, ptr null)",
                  "  %rk = call i32 @MPI_Comm_rank(i32 0, ptr %buf)",
                  "  %v0 = load i32, ptr %buf"]
        last = "%v0"
        # helper0 reaches the others through its call chain; call a few
        # roots directly so main's size varies with the module
        for j in range(0, n, 4):
            lines.append(f"  %h{j} = call i32 @helper{j}(ptr %buf, i32 {last})")
            last = f"%h{j}"
        lines += ["  %fin = call i32 @MPI_Finalize()",
                  "  ret i32 0",
                  "}"]
        return "\n".join(lines) + "\n"


def _c_source(label: str, title: str) -> str:
    descriptor = "OK" if label == CORRECT else label
    return ("////////////////// MPI bugs collection header //////////////////\n"
            "//\n"
            f"// Origin: {title}\n"
            "//\n"
            f"// Error: {descriptor}\n"
            "//\n"
            "/////////////////////////////////////////////////////////////////\n"
            "#include <mpi.h>\n"
            "int main(int argc, char **argv) {\n"
            "  MPI_Init(&argc, &argv);\n"
            "  MPI_Finalize();\n"
            "  return 0;\n"
            "}\n")


def generate(out_dir, spec: CorpusSpec, seed: int) -> dict[str, str]:
    """Write the corpus under out_dir; returns {relative .c path: label}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    labels = _labels(spec)
    shapes = _shapes(spec)
    rng.shuffle(labels)
    rng.shuffle(shapes)
    noise = _noise(spec, labels, rng)
    truth = {}
    for i, (label, shape) in enumerate(zip(labels, shapes)):
        stem = f"s{i:04d}"
        title = f"perfbench synthetic module {i}, seed {seed}"
        ll = _ModuleWriter(rng, label, shape, noise[i], spec).render(title)
        (out_dir / f"{stem}.ll").write_text(ll)
        (out_dir / f"{stem}.c").write_text(_c_source(label, title))
        truth[f"{stem}.c"] = label
    return truth
