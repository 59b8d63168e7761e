import dataclasses
import functools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import corpus_ll_files
from mpisentinel import ircore
from mpisentinel.ircore import (
    MalformedIr, OperandKind, UndefinedLocal, canonical_type, parse_ir,
    parse_instruction, successors,
)
from oracles import TokenTriple, def_use_map, render, structurally_equal, token_triple


def test_empty_text_gives_empty_module():
    module = parse_ir("")
    assert module.functions == []


def test_minimal_function():
    module = parse_ir("define void @f() { ret void }")
    assert len(module.functions) == 1
    fn = module.functions[0]
    assert fn.name == "f" and not fn.is_declaration
    assert len(fn.blocks) == 1
    assert len(fn.blocks[0].instructions) == 1
    instr = fn.blocks[0].instructions[0]
    assert instr.opcode == "ret" and instr.type_str == "void"


def test_add_loop_against_golden(add_loop_text, add_loop_golden):
    module = parse_ir(add_loop_text, "add_loop")
    fn = module.functions[0]
    instrs = [i for b in fn.blocks for i in b.instructions]
    assert len(instrs) == add_loop_golden["instruction_count"]
    assert Counter(i.opcode for i in instrs) == add_loop_golden["opcode_multiset"]
    succ = {b.label: successors(b) for b in fn.blocks}
    assert succ == add_loop_golden["cfg_successors"]


def test_add_loop_def_use_matches_golden(add_loop_text, add_loop_golden):
    module = parse_ir(add_loop_text)
    got = def_use_map(module.functions[0])
    expected = {k: [tuple(site) for site in v]
                for k, v in add_loop_golden["def_use"].items()}
    assert got == expected


class TestTokenTriple:
    def test_ret_void(self):
        instr = parse_instruction("ret void")
        assert token_triple(instr) == TokenTriple("ret", "void", ())

    def test_add_with_constant(self):
        instr = parse_instruction("%a = add i32 %x, 5")
        assert token_triple(instr) == TokenTriple(
            "add", "intTy", ("LocalValue", "Constant"))

    def test_call_keeps_function_ref_first(self):
        instr = parse_instruction("call void @MPI_Barrier(ptr %comm)")
        triple = token_triple(instr)
        assert triple.opcode_token == "call"
        assert triple.type_token == "void"
        assert triple.arg_tokens[0] == "FunctionRef"
        assert "LocalValue" in triple.arg_tokens

    def test_labels_excluded(self):
        instr = parse_instruction("br i1 %c, label %a, label %b")
        assert token_triple(instr).arg_tokens == ("LocalValue",)


class TestDefUse:
    def test_single_ret_empty_map(self):
        module = parse_ir("define void @f() { ret void }")
        assert def_use_map(module.functions[0]) == {}

    def test_use_counts(self):
        module = parse_ir("""
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, %a
  ret i32 %b
}
""")
        got = def_use_map(module.functions[0])
        assert got["%a"] == [(0, 1), (0, 1)]
        assert got["%b"] == [(0, 2)]
        assert got["%x"] == [(0, 0)]

    def test_undefined_local(self):
        module = parse_ir("define void @f() {\nentry:\n  %a = add i32 %ghost, 1\n  ret void\n}")
        with pytest.raises(UndefinedLocal):
            def_use_map(module.functions[0])


class TestMalformed:
    def test_unbalanced_braces(self):
        with pytest.raises(MalformedIr):
            parse_ir("define void @f() {\n  ret void\n")

    def test_instruction_outside_function(self):
        with pytest.raises(MalformedIr):
            parse_ir("add i32 1, 2")

    def test_branch_to_missing_block(self):
        with pytest.raises(MalformedIr):
            parse_ir("define void @f() {\nentry:\n  br label %nowhere\n}")

    def test_duplicate_function(self):
        text = "define void @f() { ret void }\ndefine void @f() { ret void }"
        with pytest.raises(MalformedIr):
            parse_ir(text)

    @pytest.mark.parametrize("first, second", [
        ("define void @f() { ret void }", "define void @f() { ret void }"),
        ("declare void @f()", "define void @f() { ret void }"),
        ("define void @f() { ret void }", "declare void @f()"),
    ])
    def test_duplicate_function_names_its_line(self, first, second):
        text = f"{first}\ndeclare void @g()\n{second}\n"
        with pytest.raises(MalformedIr, match="duplicate function @f") as info:
            parse_ir(text)
        assert info.value.line == 3

    def test_block_without_terminator(self):
        with pytest.raises(MalformedIr):
            parse_ir("define void @f() {\nentry:\n  %a = add i32 1, 2\nnext:\n  ret void\n}")

    @pytest.mark.parametrize("line", [
        "%x = fence seq_cst", "%x = unreachable", "%x = store i32 0, ptr %p",
    ])
    def test_result_on_a_void_instruction(self, line):
        with pytest.raises(MalformedIr, match="assigns a result but has void type"):
            parse_instruction(line, 4)

    def test_instruction_after_terminator(self):
        with pytest.raises(MalformedIr):
            parse_ir("define void @f() {\nentry:\n  ret void\n  ret void\n}")

    @pytest.mark.parametrize("text, line", [
        ("declare void @g()\ndeclare i32 @MPI_Wait(ptr,\n", 2),
        ("@buf = global [4 x i32\n", 1),
        ("@\n", 1),
        ("define void @f() {\nentry:\n  store i32 0, ptr\n  ret void\n}", 3),
        ("declare void @g()\ndeclare [4 x i32 @h()\n", 2),
        ("declare void @g()\n\ndefine <2 x i32 @f() {\nentry:\n  ret void\n}", 3),
    ])
    def test_unparseable_line_names_its_line(self, text, line):
        with pytest.raises(MalformedIr) as info:
            parse_ir(text)
        assert info.value.line == line


def _mutate_line(line: str, kind: int, at: int, token: str) -> str:
    words = line.split(" ")
    if kind == 0:
        return line[:at % (len(line) + 1)]
    if kind == 1:
        del words[at % len(words)]
    elif kind == 2:
        words.insert(at % (len(words) + 1), token)
    elif kind == 3:
        words[at % len(words)] = token
    else:
        return ""
    return " ".join(words)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_line_mutations_raise_only_malformed_ir(data):
    files = corpus_ll_files()
    lines = files[data.draw(st.integers(0, len(files) - 1))].read_text().split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = _mutate_line(
        lines[i], data.draw(st.integers(0, 4)), data.draw(st.integers(0, 200)),
        data.draw(st.sampled_from(["ptr", "i32", ",", "(", ")", "[", "]", "{", "}",
                                   "<", ">", "%x", "@g", "label", "0", "=", "to",
                                   "void", "*", "..."])))
    try:
        module = parse_ir("\n".join(lines))
    except MalformedIr:
        return
    for instr in module.instructions():
        token_triple(instr)


# Pieces of IR lines for the scanner properties: brackets, commas, quotes,
# comments, metadata and attribute refs, align suffixes and words.
_PIECES = ["(", ")", "[", "]", "{", "}", "<", ">", ",", '"', ";", "!dbg !7", "#0",
           "align 4", "align", "4", "x", "i32", "%a", "@f", "to", 'c"s;t"', "!", "#"]
_TOKENS = ["(", ")", "[", "]", "{", "}", "<", ">", ",", "x", "i32", "%a", "@f",
           "to", "!dbg", "!7", "#0", "align", "4", '"s"', "label"]
_LINES = (st.lists(st.sampled_from(_PIECES), max_size=24).map(" ".join)
          | st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
_TOKEN_LISTS = st.lists(st.sampled_from(_TOKENS), max_size=24)


def _outcome(fn, *args):
    """The result, or the exception's type and text."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "raised", type(exc).__name__, str(exc)


class TestScannersMatchReference:
    """The bracket-table scanners against the parser's earlier per-character
    and per-token loops in tests/oracles.py: same output, same exceptions."""

    @settings(max_examples=300, deadline=None)
    @given(_LINES)
    def test_strip_comment(self, line):
        assert ircore._strip_comment(line) == oracles.reference_strip_comment(line)

    @settings(max_examples=300, deadline=None)
    @given(_LINES)
    def test_bracket_depth(self, line):
        assert ircore._bracket_depth(line) == oracles.reference_bracket_depth(line)

    @settings(max_examples=300, deadline=None)
    @given(_LINES)
    def test_tokenize(self, line):
        assert ircore._tokenize(line) == oracles.reference_tokenize(line)

    @settings(max_examples=300, deadline=None)
    @given(_TOKEN_LISTS, st.sampled_from([",", "[", "to", "(", "<"]))
    def test_partition(self, tokens, sep):
        assert ircore._partition(tokens, sep) == oracles.reference_partition(tokens, sep)

    @settings(max_examples=300, deadline=None)
    @given(_TOKEN_LISTS)
    def test_split_top_level(self, tokens):
        assert ircore._split_top_level(tokens) == oracles.reference_split_top_level(tokens)

    @settings(max_examples=300, deadline=None)
    @given(_TOKEN_LISTS, st.sampled_from(["(", "[", "{", "<"]), st.integers(0, 24))
    def test_consume_group(self, tokens, opener, at):
        tokens = tokens[:at] + [opener] + tokens[at:]
        i = min(at, len(tokens) - 1)
        closer = {"(": ")", "[": "]", "{": "}", "<": ">"}[opener]
        assert _outcome(ircore._consume_group, tokens, i) == _outcome(
            oracles.reference_consume_group, tokens, i, opener, closer)


class TestLineMemo:
    """parse_ir parses an instruction line or a function signature once
    while a line memo shared by every call holds its parse, and empties the
    memo at the start of a call once its keys hold more than LINE_MEMO_CHARS
    characters; every module equals the memo-free reference in
    tests/oracles.py."""

    TWO_FUNCTIONS = ("define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n"
                     "  ret i32 %a\n}\n"
                     "define i32 @g(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n"
                     "  ret i32 %a\n}\n")

    def test_repeated_line_shares_one_instruction(self, monkeypatch):
        """Every occurrence of a line, within a call and across calls, is
        the one instruction the memo holds for it."""
        monkeypatch.setattr(ircore, "_LINE_MEMO", {})
        module = parse_ir(self.TWO_FUNCTIONS)
        shared = ircore._LINE_MEMO["%a = add i32 %x, 1"]
        first, second = (fn.blocks[0].instructions[0] for fn in module.functions)
        assert first is second is shared
        assert (shared.opcode, shared.type_str, shared.result_id) == ("add", "i32", "%a")
        for _ in range(3):
            again = parse_ir(self.TWO_FUNCTIONS)
            assert all(fn.blocks[0].instructions[0] is shared for fn in again.functions)
        assert again == module == oracles.reference_parse_ir(self.TWO_FUNCTIONS)

    def test_mutated_module_leaves_a_later_parse_unchanged(self, add_loop_text, monkeypatch):
        """An instruction's fields cannot be assigned, and a module's own
        lists can be reordered or cleared without reaching the memo."""
        monkeypatch.setattr(ircore, "_LINE_MEMO", {})
        module = parse_ir(add_loop_text, "m")
        for instr in module.instructions():
            for name, value in (("opcode", "frem"), ("type_str", "double"),
                                ("operands", ()), ("result_id", "%zz"),
                                ("call_target", "MPI_Abort")):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(instr, name, value)
        for fn in module.functions:
            fn.params.clear()
        for fn in module.defined_functions():
            for block in fn.blocks:
                block.instructions.reverse()
            fn.blocks[0].instructions.clear()
            fn.blocks.reverse()
        assert ircore._LINE_MEMO
        want = oracles.reference_parse_ir(add_loop_text, "m")
        assert parse_ir(add_loop_text, "m") == want
        assert render(parse_ir(add_loop_text, "m")) == render(want)

    def test_line_is_parsed_once_across_calls(self, monkeypatch):
        monkeypatch.setattr(ircore, "_LINE_MEMO", {})
        calls = []

        def counted(line, lineno=0):
            calls.append(line)
            return parse_instruction(line, lineno)

        monkeypatch.setattr(ircore, "parse_instruction", counted)
        parse_signature = ircore._parse_signature
        signatures = []

        def counted_signature(tokens, lineno):
            signatures.append(tokens)
            return parse_signature(tokens, lineno)

        monkeypatch.setattr(ircore, "_parse_signature", counted_signature)
        modules = [parse_ir(self.TWO_FUNCTIONS) for _ in range(3)]
        assert calls == ["%a = add i32 %x, 1", "ret i32 %a"]
        assert [tokens[1] for tokens in signatures] == ["@f", "@g"]
        assert list(ircore._LINE_MEMO) == ["\n i32 @f(i32 %x) ", *calls, "\n i32 @g(i32 %x) "]
        assert modules[0] == modules[2] == oracles.reference_parse_ir(self.TWO_FUNCTIONS)

    def test_repeated_line_after_terminator_raises_at_its_line(self):
        text = ("define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n"
                "  ret i32 %a\n  %a = add i32 %x, 1\n}\n")
        with pytest.raises(MalformedIr) as info:
            parse_ir(text)
        assert (info.value.line, info.value.message) == (
            5, "instruction after block terminator")

    def test_line_that_raises_is_never_stored(self):
        memo: dict = {}
        fn_parser = ircore._FunctionParser(ircore.IrFunction("f", [], []), 1, memo)
        for lineno in (3, 8, 9):
            with pytest.raises(MalformedIr) as info:
                fn_parser.feed("store i32 0, ptr", lineno)
            assert info.value.line == lineno
        assert memo == {}
        assert "store i32 0, ptr" not in ircore._LINE_MEMO

    def test_memo_is_emptied_past_its_bound(self, monkeypatch):
        """The bound counts characters, so long and wide lines are memoized
        like short ones."""
        monkeypatch.setattr(ircore, "_LINE_MEMO", {})
        monkeypatch.setattr(ircore, "LINE_MEMO_CHARS", 58)
        wide = "call void @f(" + ", ".join(["i32 1"] * 30) + ")"
        lines = [f"%a = add i32 %x, {k}" for k in range(4)] + [wide, "fence seq_cst"]
        held = []
        for line in lines:
            text = f"define void @f(i32 %x) {{\nentry:\n  {line}\n  ret void\n}}\n"
            assert parse_ir(text) == oracles.reference_parse_ir(text)
            held.append(list(ircore._LINE_MEMO))
        # each call starts by emptying the memo once its keys hold more than
        # 58 characters: 18 for the signature (a newline in front), 18 for
        # each add line, 8 for `ret void`
        sig = "\n void @f(i32 %x) "
        assert held == [[sig, lines[0], "ret void"],
                        [sig, lines[0], "ret void", lines[1]],
                        [sig, lines[2], "ret void"],
                        [sig, lines[2], "ret void", lines[3]],
                        [sig, wide, "ret void"],
                        [sig, "fence seq_cst", "ret void"]]

    def test_memo_of_wide_distinct_lines_stays_within_its_budget(self, monkeypatch):
        """122-operand call lines, each in a module of its own, until the
        memo has been emptied twice: between calls it holds at most
        LINE_MEMO_CHARS characters of lines plus the last module's, and at
        most 2 MB by tracemalloc (1.0 MB when the README's figure was
        measured)."""
        monkeypatch.setattr(ircore, "_LINE_MEMO", {})
        texts = [("define void @f() {\nentry:\n  call void @g("
                  + ", ".join(["i32 1"] * 120 + [f"i32 {k}"]) + ")\n  ret void\n}\n")
                 for k in range(ircore.LINE_MEMO_CHARS // 400)]
        sizes, peak = [], 0
        tracemalloc.start()
        try:
            for text in texts:
                parse_ir(text)
                sizes.append(sum(map(len, ircore._LINE_MEMO)))
                peak = max(peak, tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) == 2
        assert max(sizes) <= ircore.LINE_MEMO_CHARS + len(texts[-1])
        assert peak <= 2_000_000

    def test_signature_is_kept_only_when_it_parses(self, monkeypatch):
        """A memoized signature gives each function its own parameter list,
        and one that raises is never stored, so it raises at its own line in
        every module."""
        monkeypatch.setattr(ircore, "_LINE_MEMO", {})
        first, second = (parse_ir(self.TWO_FUNCTIONS).functions[0] for _ in range(2))
        assert first.params == second.params == [("%x", "i32")]
        assert first.params is not second.params
        bad = "declare void @h\n"
        for text, line in ((bad, 1), ("\n" + bad, 2), (self.TWO_FUNCTIONS + bad, 11)):
            with pytest.raises(MalformedIr) as info:
                parse_ir(text)
            assert (info.value.line, info.value.message) == (
                line, "function signature without @name(...)")
        assert "\n void @h" not in ircore._LINE_MEMO

    def test_line_that_raises_raises_at_its_line_in_a_later_module(self):
        good = self.TWO_FUNCTIONS
        bad = "define void @h() {\nentry:\n  store i32 0, ptr\n  ret void\n}\n"
        for text, line in ((bad, 3), (good + bad, 13), ("\n\n" + bad, 5)):
            parse_ir(good)
            with pytest.raises(MalformedIr) as info:
                parse_ir(text)
            assert info.value.line == line
            assert info.value.message.startswith("store instruction")

    def test_reference_parse_uses_no_cache(self, add_loop_text, monkeypatch):
        """A reference parse leaves the memo exactly as it found it."""
        monkeypatch.setattr(ircore, "_LINE_MEMO", {})
        parse_ir(add_loop_text, "m")
        before = dict(ircore._LINE_MEMO)
        for text in (add_loop_text, TestLineMemo.TWO_FUNCTIONS):
            oracles.reference_parse_ir(text, "m")
        assert list(ircore._LINE_MEMO.items()) == list(before.items())
        assert all(ircore._LINE_MEMO[line] is fields for line, fields in before.items())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shuffled_repeated_lines_parse_like_reference(self, data):
        text = data.draw(_shuffled_module(_fixture_lines()))
        got = _outcome(parse_ir, text, "m")
        want = _outcome(oracles.reference_parse_ir, text, "m")
        if got[0] == want[0] == "returned":
            assert render(got[1]) == render(want[1])
            assert got[1] == want[1]
        else:
            assert got == want

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_modules_in_shuffled_order_with_warm_caches_parse_like_reference(self, data):
        texts = data.draw(st.lists(_shuffled_module(_fixture_lines()), min_size=2,
                                   max_size=4))
        for text in texts * 2:  # warm the memo
            _outcome(parse_ir, text, "m")
        for text in data.draw(st.permutations(texts)):
            got = _outcome(parse_ir, text, "m")
            want = _outcome(oracles.reference_parse_ir, text, "m")
            if got[0] == want[0] == "returned":
                assert render(got[1]) == render(want[1])
                assert got[1] == want[1]
            else:
                assert got == want


@functools.cache
def _fixture_lines() -> tuple[list[str], list[list[str]]]:
    """(the fixtures' indented instruction lines that neither end a block nor
    name one, every fixture's lines)."""
    bodies, texts = set(), []
    for path in corpus_ll_files():
        lines = path.read_text().split("\n")
        texts.append(lines)
        for line in lines:
            if not line.startswith("  ") or line.rstrip().endswith(":"):
                continue
            try:
                instr = parse_instruction(line)
            except MalformedIr:
                continue
            if not instr.is_terminator() and all(
                    op.kind != OperandKind.LABEL for op in instr.operands):
                bodies.add(line)
    return sorted(bodies), texts


@st.composite
def _shuffled_module(draw, pools):
    """Either functions whose bodies are drawn with repeats from the fixtures'
    instruction lines, or one fixture with some of its lines repeated at
    random places and a few lines swapped."""
    bodies, texts = pools
    if draw(st.booleans()):
        parts = []
        for k in range(draw(st.integers(1, 3))):
            lines = draw(st.lists(st.sampled_from(bodies), max_size=12))
            parts += [f"define void @f{k}() {{", "entry:"]
            parts += ["  " + line for line in lines] + ["  ret void", "}"]
        return "\n".join(parts)
    lines = list(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(0, 4))):
        line = draw(st.sampled_from(lines))
        lines.insert(draw(st.integers(0, len(lines))), line)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


class TestSubsetBreadth:
    def test_generic_opcode_never_rejected(self):
        module = parse_ir("define void @f() {\nentry:\n  %x = frobnicate i32 %y, 7\n  ret void\n}")
        instr = module.functions[0].blocks[0].instructions[0]
        assert instr.opcode == "frobnicate"
        assert instr.result_id == "%x"
        kinds = [op.kind for op in instr.operands]
        assert OperandKind.LOCAL in kinds and OperandKind.CONSTANT in kinds

    def test_metadata_and_attributes_stripped(self):
        text = """
; ModuleID = 'demo'
source_filename = "demo.c"
target triple = "x86_64-unknown-linux-gnu"

define dso_local i32 @f(i32 noundef %x) #0 !dbg !7 {
entry:
  %a = add nsw i32 %x, 1, !dbg !9
  %p = alloca i32, align 4
  store i32 %a, ptr %p, align 4, !tbaa !11
  %v = load i32, ptr %p, align 4
  ret i32 %v, !dbg !12
}

attributes #0 = { noinline nounwind optnone }
!7 = !{}
"""
        module = parse_ir(text)
        fn = module.functions[0]
        opcodes = [i.opcode for b in fn.blocks for i in b.instructions]
        assert opcodes == ["add", "alloca", "store", "load", "ret"]
        assert fn.params == [("%x", "i32")]

    def test_switch_multiline_and_phi(self):
        text = """
define i32 @f(i32 %x) {
entry:
  switch i32 %x, label %other [
    i32 0, label %zero
    i32 1, label %one
  ]
zero:
  br label %join
one:
  br label %join
other:
  br label %join
join:
  %r = phi i32 [ 0, %zero ], [ 1, %one ], [ 2, %other ]
  ret i32 %r
}
"""
        module = parse_ir(text)
        fn = module.functions[0]
        sw = fn.blocks[0].instructions[0]
        assert sw.opcode == "switch"
        assert [op.token for op in sw.operands if op.kind == OperandKind.LABEL] == \
            ["other", "zero", "one"]
        phi = fn.blocks[4].instructions[0]
        assert token_triple(phi).arg_tokens == ("Constant", "Constant", "Constant")

    def test_cast_select_atomics(self):
        text = """
define void @f(i32 %x, ptr %p) {
entry:
  %w = zext i32 %x to i64
  %s = select i1 true, i32 %x, i32 7
  %old = atomicrmw add ptr %p, i32 1 seq_cst
  %pair = cmpxchg ptr %p, i32 %x, i32 %s acq_rel monotonic
  fence seq_cst
  ret void
}
"""
        module = parse_ir(text)
        instrs = module.functions[0].blocks[0].instructions
        assert instrs[0].type_str == "i64"
        assert canonical_type(instrs[1].type_str) == "intTy"
        assert instrs[2].opcode == "atomicrmw"
        assert canonical_type(instrs[3].type_str) == "aggTy"
        assert instrs[4].opcode == "fence"

    @pytest.mark.parametrize("ret", ["{ i32, i32 }", "<{ i8, i32 }>",
                                     "[2 x { i32 }]"])
    def test_one_line_define_with_aggregate_return(self, ret):
        one = parse_ir(f"define {ret} @f(i32 %x) {{ ret {ret} zeroinitializer }}")
        three = parse_ir(f"define {ret} @f(i32 %x) {{\n"
                         f"  ret {ret} zeroinitializer\n}}\n")
        assert render(one) == render(three)
        assert one.functions[0].params == [("%x", "i32")]
        with pytest.raises(MalformedIr, match="without a body brace"):
            parse_ir(f"define {ret} @f(i32 %x)")

    def test_global_initializer_over_lines(self):
        """A struct initializer split over lines is one logical line; one left
        open is refused at its first line."""
        text = ("%struct.P = type { i32, i32 }\n"
                "@s = global %struct.P {\n"
                "  i32 0,\n"
                "  i32 1 }, align 4\n"
                "define i32 @f() {\nentry:\n  ret i32 0\n}\n")
        module = parse_ir(text)
        assert [f.name for f in module.defined_functions()] == ["f"]
        assert module == oracles.reference_parse_ir(text)
        assert list(ircore._logical_lines(text.splitlines()))[1] == (
            2, "@s = global %struct.P { i32 0, i32 1 }, align 4")
        with pytest.raises(MalformedIr, match="^line 2: unnamed or unbalanced global"):
            parse_ir(text.replace("  i32 1 }, align 4\n", "  i32 1, align 4\n"))

    def test_define_opening_its_body_inline(self):
        """Braces on a define's line open and close its body, not a bracket:
        the lines after an inline first instruction stay their own lines."""
        text = "define i32 @f() { %x = add i32 1, 2\n  ret i32 %x\n}\n"
        module = parse_ir(text)
        assert [i.opcode for i in module.instructions()] == ["add", "ret"]
        assert module == oracles.reference_parse_ir(text)

    def test_metadata_argument_is_a_use_of_its_value(self, fixtures_dir):
        """`metadata ptr %argc.addr` passes %argc.addr; `metadata !16` and
        `metadata !DIExpression()` pass no operand."""
        from mpisentinel.graph import build_graph
        module = parse_ir((fixtures_dir / "clang_style.ll").read_text(), "clang_style")
        main = module.defined_functions()[0]
        declare = main.blocks[0].instructions[9]
        assert declare.call_target == "llvm.dbg.declare"
        assert [(op.kind, op.token) for op in declare.operands] == [
            (OperandKind.FUNCTION, "@llvm.dbg.declare"),
            (OperandKind.LOCAL, "%argc.addr")]
        assert (0, 9) in def_use_map(main)["%argc.addr"]
        g = build_graph(module)
        control = [i for i, n in enumerate(g.nodes) if n.node_type == "control"]
        alloca, call = control[1], control[9]  # %argc.addr = alloca, the declare
        (argc_addr,) = [e.dst for e in g.edges
                        if e.src == alloca and e.edge_type == "data"]
        into_call = [e.src for e in g.edges
                     if e.dst == call and e.edge_type == "data"]
        assert into_call[1] == argc_addr
        assert [g.nodes[i].node_type for i in into_call] == ["constant", "variable"]

    def test_unnamed_entry_block_and_numeric_labels(self):
        text = """
define i32 @f(i32 %x) {
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %2, label %3

2:
  br label %3

3:
  ret i32 0
}
"""
        module = parse_ir(text)
        labels = [b.label for b in module.functions[0].blocks]
        assert labels == ["entry", "2", "3"]


    def test_clause_lines_join_their_instruction(self):
        module = parse_ir("""
define i32 @main() personality ptr @__gxx_personality_v0 {
entry:
  invoke void @work()
          to label %cont unwind label %lpad, !dbg !7
cont:
  ret i32 0
lpad:
  %lp = landingpad { ptr, i32 }
          cleanup
          catch ptr @_ZTIi
  %r = cleanuppad within none []
  cleanupret from %r unwind to caller
}
""")
        entry, _, lpad = module.functions[0].blocks
        (invoke,) = entry.instructions
        assert [op.token for op in invoke.operands] == ["@work", "cont", "lpad"]
        landingpad, pad, ret = lpad.instructions
        assert (landingpad.opcode, landingpad.operands) == (
            "landingpad", (ircore.Operand(OperandKind.GLOBAL, "@_ZTIi"),))
        assert (pad.opcode, ret.opcode) == ("cleanuppad", "cleanupret")

    @pytest.mark.parametrize("label", [
        "cleanup", "catch", "filter", "cleanup.cont", "catch.dispatch", "filter.1"])
    def test_clause_named_label_after_terminator_opens_a_block(self, label):
        text = f"""
define void @f() personality ptr @__gxx_personality_v0 {{
entry:
  invoke void @work() to label %{label} unwind label %lpad
{label}:
  br label %{label}.next
{label}.next:
  ret void
lpad:
  %lp = landingpad {{ ptr, i32 }}
          cleanup
  br label %{label}
}}
"""
        module = parse_ir(text)
        assert module == oracles.reference_parse_ir(text)
        blocks = module.functions[0].blocks
        assert [b.label for b in blocks] == [
            "entry", label, f"{label}.next", "lpad"]
        assert [i.opcode for i in blocks[3].instructions] == ["landingpad", "br"]

    def test_clause_word_prefix_stays_its_own_line(self):
        module = parse_ir("define void @f() {\nentry:\n  br label %lpad\nlpad:\n"
                          "  %lp = landingpad token cleanup\n"
                          "  catchret from %lp to label %lpad\n}\n")
        assert [i.opcode for i in module.functions[0].blocks[1].instructions] == [
            "landingpad", "catchret"]

    def test_clause_words_continue_only_invoke_callbr_or_landingpad(self):
        module = parse_ir("define void @f() {\nentry:\n  call void @g()\n"
                          "    to label %x\n  ret void\n}\n")
        assert [i.opcode for i in module.functions[0].blocks[0].instructions] == [
            "call", "to", "ret"]

    @pytest.mark.parametrize("line, type_str, tokens", [
        ("%3 = extractvalue { ptr, i32 } %2, 0", "ptr", ["%2", "0"]),
        ("%4 = extractvalue { ptr, i32 } %2, 1", "i32", ["%2", "1"]),
        ("%x = extractvalue [2 x { i32, double }] %a, 1, 1", "double", ["%a", "1", "1"]),
        ("%x = extractvalue [2 x { i32, double }] %a, 1", "{ i32 , double }", ["%a", "1"]),
        ("%x = extractvalue <{ i8, i64 }> %a, 1", "i64", ["%a", "1"]),
        # a named struct's members and an index past the end are unknown
        ("%x = extractvalue %struct.P %a, 1", "%struct.P", ["%a", "1"]),
        ("%x = extractvalue { i32 } %a, 3", "{ i32 }", ["%a", "3"]),
        ("%e = extractelement <4 x float> %v, i32 2", "float", ["%v", "2"]),
        ("%e = extractelement <vscale x 4 x i32> %v, i64 %i", "i32", ["%v", "%i"]),
        ("%s = shufflevector <4 x i32> %a, <4 x i32> %b, <4 x i32> <i32 0, i32 5, i32 1, i32 6>",
         "< 4 x i32 >", ["%a", "%b", "0", "5", "1", "6"]),
        # the mask's length of the first operand's element type
        ("%s = shufflevector <4 x i32> %a, <4 x i32> %b, <2 x i32> <i32 0, i32 5>",
         "< 2 x i32 >", ["%a", "%b", "0", "5"]),
        ("%s = shufflevector <vscale x 4 x float> %a, <vscale x 4 x float> poison, "
         "<vscale x 2 x i32> zeroinitializer",
         "< vscale x 2 x float >", ["%a", "poison", "zeroinitializer"]),
        ("%v = insertvalue [2 x i32] undef, i32 7, 1", "[ 2 x i32 ]", ["undef", "7", "1"]),
        ("%p = va_arg ptr %ap, i32", "i32", ["%ap"]),
        # a type after a clause word is not skipped (the landingpad path)
        ("%x = foo ptr %a, filter [1 x ptr] [ptr @t]", "ptr", ["%a", "1", "@t"]),
        # unreachable and fence have their own branch, which keeps void
        ("unreachable", "void", []),
        ("fence seq_cst", "void", []),
        ('fence syncscope("agent") acquire', "void", []),
    ])
    def test_generic_path_types_and_operands(self, line, type_str, tokens):
        """Generic opcodes take no number from the type that begins a
        comma-separated operand; extractvalue/extractelement give the type
        their indices select, shufflevector a vector of its mask's length,
        and va_arg its last operand's type."""
        instr = parse_instruction(line)
        assert (instr.type_str, [op.token for op in instr.operands]) == (type_str, tokens)

    def test_clang_style_fixture(self, fixtures_dir):
        from mpisentinel.embed import SeedVocab, embed
        from mpisentinel.graph import build_graph
        text = (fixtures_dir / "clang_style.ll").read_text()
        module = parse_ir(text, "clang_style")
        assert module == oracles.reference_parse_ir(text, "clang_style")
        assert [f.name for f in module.defined_functions()] == [
            "main", "_Z4swapRiS_", "legacy_sum"]
        main, swap, legacy = module.defined_functions()
        assert [b.label for b in main.blocks] == [
            "entry", "invoke.cont", "lpad", "return", "eh.resume"]
        assert main.blocks[2].instructions[0].opcode == "landingpad"
        assert [(i.type_str, canonical_type(i.type_str)) for i in main.blocks[2].instructions
                if i.opcode == "extractvalue"] == [("ptr", "ptrTy"), ("i32", "intTy")]
        assert main.blocks[-1].instructions[-1].opcode == "resume"
        assert legacy.params == [("%p", "i32 *"), ("%n", "i32")]
        assert swap.params == [("%a", "ptr"), ("%b", "ptr")]
        assert oracles.validate_graph(build_graph(module)) == []
        assert embed(module, SeedVocab(0)).values.any()


class TestCanonicalTypes:
    @pytest.mark.parametrize("raw,expected", [
        ("i1", "intTy"), ("i32", "intTy"), ("i128", "intTy"),
        ("float", "floatTy"), ("double", "floatTy"), ("half", "floatTy"),
        ("ptr", "ptrTy"), ("i32 *", "ptrTy"), ("i8 * *", "ptrTy"),
        ("< 4 x i32 >", "vecTy"), ("[ 4 x i32 ]", "aggTy"),
        ("{ i32 , i1 }", "aggTy"), ("%struct.S", "aggTy"),
        ("< { i32 , i8 } >", "aggTy"), ("<{i32, i8}>", "aggTy"),
        ("ptr addrspace ( 1 )", "ptrTy"), ("i32 addrspace ( 1 ) *", "ptrTy"),
        ("[ 4 x ptr addrspace ( 1 ) ]", "aggTy"), ("< 4 x ptr addrspace ( 1 ) >", "vecTy"),
        ("{ ptr addrspace ( 1 ) , i32 }", "aggTy"), ("%struct.addrspace_cfg", "aggTy"),
        ("void", "void"),
    ])
    def test_table(self, raw, expected):
        assert canonical_type(raw) == expected

    def test_packed_struct_load_is_an_aggregate(self):
        """A packed struct is a struct, not a vector, as the parser writes it."""
        instr = parse_instruction("%p = load <{ i32, i8 }>, ptr %q, align 1")
        assert instr.type_str == "< { i32 , i8 } >"
        assert canonical_type(instr.type_str) == "aggTy"


class TestRoundTrip:
    def test_fixture_round_trips(self, all_fixture_modules):
        for path, module in all_fixture_modules:
            again = parse_ir(render(module), module.name)
            assert structurally_equal(module, again), path

    def test_determinism(self, add_loop_text):
        a = parse_ir(add_loop_text)
        b = parse_ir(add_loop_text)
        assert structurally_equal(a, b)

    def test_terminator_invariant_over_corpus(self, all_fixture_modules):
        for path, module in all_fixture_modules:
            for fn in module.defined_functions():
                for block in fn.blocks:
                    assert block.instructions, (path, block.label)
                    *body, last = block.instructions
                    assert last.is_terminator(), (path, block.label)
                    assert not any(i.is_terminator() for i in body), (path, block.label)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([
    "  %a = add i32 %x, 1",
    "  %b = mul i32 %x, %x",
    "  %c = icmp eq i32 %x, 0",
    "  store i32 %x, ptr %p",
    "  %v = load i32, ptr %p",
]), min_size=0, max_size=8))
def test_parse_deterministic_over_generated_bodies(lines):
    body = "\n".join(lines)
    text = f"define void @f(i32 %x, ptr %p) {{\nentry:\n{body}\n  ret void\n}}"
    one = parse_ir(text)
    two = parse_ir(text)
    assert structurally_equal(one, two)
    counts = sum(len(b.instructions) for b in one.functions[0].blocks)
    assert counts == len(lines) + 1
