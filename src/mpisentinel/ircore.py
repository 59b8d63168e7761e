"""Pragmatic textual LLVM IR (".ll") parser.

Parses function definitions, basic blocks and instructions into plain data
objects carrying exactly what the downstream representations need: opcodes,
result types, operand kinds and def-use structure.  Anything outside the
supported instruction families degrades to a generic (opcode, type, operands)
form instead of being rejected.  Metadata, attributes and comdats are stripped
while lexing.  Three facts about an instruction are decided by one rule each,
for every opcode: the ARITH_FLAGS words after the opcode are skipped, a value
typed `label` (or, on the generic path, the token after the word `label`) is a
Label operand, and a result on a NO_VALUE opcode or on a void type raises.
A parsed instruction is a frozen value: a line memo shared by every parse_ir
call in the process keeps the instruction of each line it has met, and every
occurrence of the line shares it, so a line is parsed once until parse_ir
empties the memo at the bound LINE_MEMO_CHARS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace


class MalformedIr(Exception):
    """Structurally invalid IR text (unbalanced braces, stray instruction...)."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UndefinedLocal(Exception):
    """A LocalValue operand has no defining instruction or parameter."""

    def __init__(self, identifier: str):
        super().__init__(f"undefined local value: {identifier}")
        self.identifier = identifier


class OperandKind:
    """The operand kinds: each is the vocabulary token that names it."""
    LOCAL = "LocalValue"
    GLOBAL = "GlobalValue"
    CONSTANT = "Constant"
    LABEL = "Label"
    FUNCTION = "FunctionRef"


@dataclass(frozen=True)
class Operand:
    kind: str  # one of the OperandKind constants
    token: str


@dataclass(frozen=True, slots=True)
class IrInstruction:
    opcode: str
    type_str: str
    operands: tuple[Operand, ...]
    result_id: str | None = None
    call_target: str | None = None

    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS


@dataclass
class IrBlock:
    label: str
    instructions: list[IrInstruction] = field(default_factory=list)


@dataclass
class IrFunction:
    name: str
    params: list[tuple[str, str]]  # (identifier, type string)
    blocks: list[IrBlock]
    is_declaration: bool = False


@dataclass
class IrModule:
    name: str
    functions: list[IrFunction]

    def defined_functions(self) -> list[IrFunction]:
        return [f for f in self.functions if not f.is_declaration]

    def instructions(self):
        for fn in self.defined_functions():
            for block in fn.blocks:
                yield from block.instructions


# Block terminators, including ones whose bodies parse via the generic path.
TERMINATORS = frozenset({
    "ret", "br", "switch", "unreachable", "invoke",
    "resume", "indirectbr", "callbr", "cleanupret", "catchret", "catchswitch",
})

# Opcodes that never produce a value: a result on one raises.
NO_VALUE = frozenset({
    "ret", "br", "switch", "unreachable", "resume", "indirectbr",
    "cleanupret", "catchret", "store", "fence",
})

SCALAR_TYPES = frozenset({
    "void", "half", "bfloat", "float", "double", "fp128", "x86_fp80",
    "ppc_fp128", "ptr", "label", "token", "metadata", "opaque", "x86_mmx",
})

FLOAT_TYPES = frozenset({
    "half", "bfloat", "float", "double", "fp128", "x86_fp80", "ppc_fp128",
})

CAST_OPCODES = frozenset({
    "trunc", "zext", "sext", "fptrunc", "fpext", "fptoui", "fptosi",
    "uitofp", "sitofp", "ptrtoint", "inttoptr", "bitcast", "addrspacecast",
})

BINARY_OPCODES = frozenset({
    "add", "fadd", "sub", "fsub", "mul", "fmul", "udiv", "sdiv", "fdiv",
    "urem", "srem", "frem", "shl", "lshr", "ashr", "and", "or", "xor",
})

ARITH_FLAGS = frozenset({"nuw", "nsw", "exact", "fast", "nnan", "ninf",
                         "nsz", "arcp", "contract", "afn", "reassoc",
                         "disjoint", "samesign", "nneg"})

CONSTANT_WORDS = frozenset({"true", "false", "null", "undef", "poison",
                            "none", "zeroinitializer"})

PARAM_ATTR_WORDS = frozenset({
    "noundef", "nonnull", "readonly", "readnone", "writeonly", "nocapture",
    "noalias", "zeroext", "signext", "inreg", "returned", "swiftself",
    "nofree", "nest", "immarg", "noext", "captures", "dereferenceable",
    "dereferenceable_or_null", "sret", "byval", "byref", "preallocated",
    "inalloca", "elementtype", "align", "range", "allocalign", "allocptr",
    "dead_on_unwind", "writable",
})

CALL_PREFIX_WORDS = frozenset({
    "tail", "musttail", "notail", "fastcc", "coldcc", "ccc", "tailcc",
    "swiftcc", "cc", "spir_func", "spir_kernel",
})

_TOKEN_RE = re.compile(
    r'c?"(?:[^"]*)"'                 # string constant / quoted name piece
    r"|[%@](?:\"[^\"]*\"|[-A-Za-z$._0-9]+)"  # sigil identifiers
    r"|![-A-Za-z$._0-9]*"            # metadata refs (stripped later)
    r"|\#\d+"                        # attribute group refs (stripped later)
    r"|[-A-Za-z$._][-A-Za-z$._0-9]*" # words / keywords / types
    r"|[-+]?(?:0x[0-9a-fA-F]+|\d+\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)"
    r"|\.\.\."
    r"|[,()\[\]{}<>*=]"
)

_NUMBER_RE = re.compile(r"^[-+]?(?:0x[0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)$")

_LABEL_LINE_RE = re.compile(r'^(?:"([^"]+)"|([-A-Za-z$._0-9]+)):')

# An invoke, callbr or landingpad, and the clause lines LLVM prints under it:
# `to label ...`, `cleanup`, `catch ...`, `filter ...`, but not a block label
# such as `cleanup:` or `catch.dispatch:`.
_CLAUSE_HEAD_RE = re.compile(r'(?:%(?:"[^"]*"|[-\w$.]+)\s*=\s*)?(?:invoke|callbr|landingpad)\b')
_CLAUSE_RE = re.compile(r"\s*(?:to\s+label|cleanup|catch|filter)\b(?![-\w$.]*:)")

_STRING_RE = re.compile(r'"[^"]*"?')  # a string may run to the end of the line
_CODE_RE = re.compile(r'[^";]*(?:"[^"]*"?[^";]*)*')  # text before a `;` comment

# The one bracket table: openers nest one level deeper, closers one less.
_DEPTH = {"(": 1, "[": 1, "{": 1, "<": 1, ")": -1, "]": -1, "}": -1, ">": -1}
_CLOSER = {"(": ")", "[": "]", "{": "}", "<": ">"}


def _strip_comment(line: str) -> str:
    if ";" not in line:
        return line.rstrip()
    return _CODE_RE.match(line).group().rstrip()


def _bracket_depth(text: str) -> int:
    """Open minus closed brackets of every kind outside strings."""
    if '"' in text:
        text = _STRING_RE.sub("", text)
    return (text.count("(") + text.count("[") + text.count("<") + text.count("{")
            - text.count(")") - text.count("]") - text.count(">") - text.count("}"))


def _tokenize(text: str) -> list[str]:
    """Tokens of one line minus metadata refs (`!x`), attribute group refs
    (`#n`) and `align N` suffixes, each with the comma before it."""
    tokens = _TOKEN_RE.findall(text)
    if "!" not in text and "#" not in text and "align" not in text:
        return tokens
    out: list[str] = []
    skip = False
    for t, nxt in zip(tokens, tokens[1:] + [""]):
        if skip:
            skip = False
        elif t[0] in "!#" or (t == "," and nxt[:1] in ("!", "#")):
            continue
        elif t == "align" and _NUMBER_RE.match(nxt):
            if out and out[-1] == ",":
                out.pop()
            skip = True
        else:
            out.append(t)
    return out


def _top_level(tokens: list[str]):
    """(index, token) of every token outside brackets; a closer with no
    opener leaves the tokens after it inside."""
    depth = 0
    for k, t in enumerate(tokens):
        if depth == 0:
            yield k, t
        depth += _DEPTH.get(t, 0)


def _partition(tokens: list[str], sep: str) -> tuple[list[str], str, list[str]]:
    for k, t in _top_level(tokens):
        if t == sep:
            return tokens[:k], t, tokens[k + 1:]
    return tokens, "", []


def _split_top_level(tokens: list[str]) -> list[list[str]]:
    """Split at commas outside brackets; an empty last part is dropped."""
    level = enumerate(tokens) if _DEPTH.keys().isdisjoint(tokens) else _top_level(tokens)
    cuts = [k for k, t in level if t == ","]
    parts = [tokens[a + 1:b] for a, b in zip([-1] + cuts, cuts + [len(tokens)])]
    if not parts[-1]:
        parts.pop()
    return parts


def _is_int_type(tok: str) -> bool:
    return len(tok) > 1 and tok[0] == "i" and tok[1:].isdigit()


def _looks_like_named_type(tok: str) -> bool:
    return tok.startswith("%") and any(
        tok.startswith(p) for p in ("%struct.", "%union.", "%class.", "%opaque."))


def _consume_group(tokens: list[str], i: int) -> int:
    """Index just past the bracket group that tokens[i] opens; only brackets
    of that kind nest."""
    open_tok = tokens[i]
    close_tok = _CLOSER[open_tok]
    depth = 0
    for k in range(i, len(tokens)):
        if tokens[k] == open_tok:
            depth += 1
        elif tokens[k] == close_tok:
            depth -= 1
            if depth == 0:
                return k + 1
    raise ValueError(f"unbalanced {open_tok}")


def consume_type(tokens: list[str], i: int, allow_named: bool = False) -> tuple[str, int] | None:
    """Try to read a type starting at tokens[i]; returns (type text, next index)."""
    if i >= len(tokens):
        return None
    start = i
    t = tokens[i]
    if t in ("[", "{", "<"):  # array, struct, vector or packed struct <{...}>
        i = _consume_group(tokens, i)
    elif t in SCALAR_TYPES or _is_int_type(t):
        i += 1
    elif _looks_like_named_type(t) or (allow_named and t.startswith("%")):
        i += 1
    else:
        return None
    # function-type argument list directly after the base type
    if i < len(tokens) and tokens[i] == "(":
        i = _consume_group(tokens, i)
    # pointer suffixes
    while i < len(tokens):
        if tokens[i] == "*":
            i += 1
        elif tokens[i] == "addrspace" and i + 1 < len(tokens) and tokens[i + 1] == "(":
            i = _consume_group(tokens, i + 1)
        elif tokens[i] == "(":
            i = _consume_group(tokens, i)
        else:
            break
    return " ".join(tokens[start:i]), i


def canonical_type(type_str: str) -> str:
    """Collapse a type string to one of the canonical type-class tokens."""
    t = type_str.strip()
    if t == "void" or t == "":
        return "void"
    first = t.split(" ", 1)[0] if " " in t else t
    if t.endswith("*") or first == "ptr":
        return "ptrTy"
    if t.startswith("<"):  # a packed struct reads `< { ... } >` once tokenized
        return "aggTy" if t[1:].lstrip().startswith("{") else "vecTy"
    if t.startswith("[") or t.startswith("{"):
        return "aggTy"
    if first.startswith("%"):
        return "aggTy"
    if _is_int_type(first):
        return "intTy"
    if first in FLOAT_TYPES:
        return "floatTy"
    if "(" in t:
        return "ptrTy"
    return "aggTy"


def _value_operand(tok: str) -> Operand:
    if tok.startswith("%"):
        return Operand(OperandKind.LOCAL, tok)
    if tok.startswith("@"):
        return Operand(OperandKind.GLOBAL, tok)
    if tok.startswith("c\"") or tok.startswith("\""):
        return Operand(OperandKind.CONSTANT, "string")
    return Operand(OperandKind.CONSTANT, tok)


def _typed_value(fragment: list[str]) -> Operand | None:
    """Read `<type> <attrs>* <value>` or bare `<value>` from a fragment; a
    `metadata <type> <value>` argument gives its inner value."""
    toks = [t for t in fragment if t not in PARAM_ATTR_WORDS]
    if not toks:
        return None
    if toks[0] == "metadata" and consume_type(toks, 1):
        toks = toks[1:]
    got = consume_type(toks, 0)
    rest = toks[got[1]:] if got else toks
    if not rest:
        # fragment was only a type (e.g. varargs "..."), or a lone constant
        # expression; treat single non-type tokens as values
        if got and got[1] == len(toks) and len(toks) == 1 and toks[0].startswith("%"):
            return _value_operand(toks[0])
        return None
    val = rest[0]
    if got and got[0] == "label":
        return Operand(OperandKind.LABEL, val.lstrip("%"))
    if val == "(":  # constant expression
        return Operand(OperandKind.CONSTANT, "constexpr")
    if val in ("getelementptr", "bitcast", "ptrtoint", "inttoptr", "add",
               "sub", "mul", "icmp", "select", "trunc"):
        return Operand(OperandKind.CONSTANT, "constexpr")
    if val in ("{", "[", "<"):
        return Operand(OperandKind.CONSTANT, "aggregate")
    return _value_operand(val)


class _FunctionParser:
    """Parses one function body, one logical line at a time.  `memo` maps an
    instruction line to its instruction; parse_ir passes the line memo,
    which outlives the call."""

    def __init__(self, fn: IrFunction, lineno: int, memo: dict):
        self.fn = fn
        self.lineno = lineno
        self.memo = memo
        self.current: IrBlock | None = None
        self.seen_labels: set[str] = set()

    def _close_block(self):
        if self.current is not None and (
                not self.current.instructions
                or not self.current.instructions[-1].is_terminator()):
            raise MalformedIr(self.lineno, f"block {self.current.label!r} has no terminator")

    def _open_block(self, label: str):
        if label in self.seen_labels:
            raise MalformedIr(self.lineno, f"duplicate block label {label!r}")
        self._close_block()
        self.seen_labels.add(label)
        self.current = IrBlock(label)
        self.fn.blocks.append(self.current)

    def feed(self, line: str, lineno: int):
        self.lineno = lineno
        m = _LABEL_LINE_RE.match(line)
        if m:
            label = m.group(1) or m.group(2)
            self._open_block(label)
            rest = line[m.end():].strip()
            if rest:
                self.feed(rest, lineno)
            return
        if self.current is None:
            self._open_block("entry")
        if self.current.instructions and self.current.instructions[-1].is_terminator():
            raise MalformedIr(lineno, "instruction after block terminator")
        instr = self.memo.get(line)
        if instr is None:
            # a line that raises is never stored, so each occurrence raises
            # at its own line
            instr = self.memo[line] = parse_instruction(line, lineno)
        self.current.instructions.append(instr)

    def finish(self):
        self._close_block()
        if not self.fn.blocks:
            raise MalformedIr(self.lineno, f"function @{self.fn.name} has an empty body")
        self._validate_labels()

    def _validate_labels(self):
        labels = {b.label for b in self.fn.blocks}
        for block in self.fn.blocks:
            for instr in block.instructions:
                for op in instr.operands:
                    if op.kind == OperandKind.LABEL and op.token not in labels:
                        raise MalformedIr(
                            self.lineno,
                            f"branch target %{op.token} does not name a block "
                            f"in @{self.fn.name}")


def parse_instruction(line: str, lineno: int = 0) -> IrInstruction:
    tokens = _tokenize(line)
    if not tokens:
        raise MalformedIr(lineno, "empty instruction")
    result_id = None
    if tokens[0].startswith("%") and len(tokens) > 1 and tokens[1] == "=":
        result_id = tokens[0]
        tokens = tokens[2:]
    i = 0
    while i < len(tokens) and tokens[i] in CALL_PREFIX_WORDS:
        i += 1
    if i >= len(tokens):
        raise MalformedIr(lineno, "missing opcode")
    opcode = tokens[i]
    i += 1
    while i < len(tokens) and tokens[i] in ARITH_FLAGS:
        i += 1
    try:
        instr = _parse_opcode(opcode, tokens[i:])
    except (ValueError, IndexError, TypeError) as exc:
        raise MalformedIr(lineno, f"cannot parse {opcode!r} instruction: {exc}") from exc
    if None in instr.operands:
        raise MalformedIr(lineno, f"{opcode} instruction with a missing operand")
    if result_id is not None:
        if opcode in NO_VALUE or instr.type_str == "void":
            raise MalformedIr(lineno, f"{opcode} assigns a result but has void type")
        return replace(instr, result_id=result_id)
    if instr.type_str != "void":
        # value-producing instruction with an ignored result defines nothing
        return replace(instr, type_str="void")
    return instr


# The line memo maps an instruction line to its IrInstruction, which every
# occurrence of the line shares (instructions are frozen, so no module can
# change the memo), and a define or declare signature, keyed with a newline in
# front (no logical line holds one), to its name and parameters.  It outlives
# each parse_ir call, which empties it first when its keys hold more than
# LINE_MEMO_CHARS characters: between calls it holds at most that many
# characters of keys, plus the lines of the last module parsed.  The bound is
# kept small because lines that never repeat across modules only slow a larger
# memo down; the benchmark's dt-large corpus fills 46,000.
LINE_MEMO_CHARS = 1 << 16
_LINE_MEMO: dict[str, IrInstruction | tuple] = {}


def _parse_opcode(opcode: str, rest: list[str]) -> IrInstruction:
    if opcode == "ret":
        if rest and rest[0] == "void":
            return IrInstruction("ret", "void", ())
        op = _typed_value(rest)
        return IrInstruction("ret", "void", (op,) if op else ())

    if opcode == "br":
        if not rest:
            raise ValueError("br without a target")
        return IrInstruction("br", "void", tuple(map(_typed_value, _split_top_level(rest))))

    if opcode in ("call", "invoke"):
        return _parse_call(opcode, rest)

    if opcode == "load":
        toks = [t for t in rest if t not in ("atomic", "volatile")]
        parts = _split_top_level(toks)
        got = consume_type(parts[0], 0, allow_named=True)
        if got is None:
            raise ValueError("load without a type")
        type_str, j = got
        if j < len(parts[0]):  # old-style `load i32* %p`
            ptr = _typed_value(parts[0][j:]) or _value_operand(parts[0][j])
            if type_str.endswith("*"):
                type_str = type_str[:-1].strip()
            return IrInstruction("load", type_str, (ptr,))
        ptr = _typed_value(parts[1])
        return IrInstruction("load", type_str, (ptr,))

    if opcode == "store":
        toks = [t for t in rest if t not in ("atomic", "volatile")]
        parts = _split_top_level(toks)
        val = _typed_value(parts[0])
        ptr = _typed_value(parts[1])
        return IrInstruction("store", "void", (val, ptr))

    if opcode == "alloca":
        parts = _split_top_level([t for t in rest if t != "inalloca"])
        operands = []
        for extra in parts[1:]:
            op = _typed_value(extra)
            if op:
                operands.append(op)
        return IrInstruction("alloca", "ptr", tuple(operands))

    if opcode == "getelementptr":
        toks = [t for t in rest if t not in ("inbounds", "nuw", "nusw", "inrange")]
        parts = _split_top_level(toks)
        operands = []
        for frag in parts[1:]:
            op = _typed_value(frag)
            if op:
                operands.append(op)
        return IrInstruction("getelementptr", "ptr", tuple(operands))

    if opcode in ("icmp", "fcmp"):
        toks = rest[1:]  # the predicate is not retained
        got = consume_type(toks, 0, allow_named=True)
        _, j = got
        parts = _split_top_level(toks[j:])
        ops = tuple(_value_operand(p[-1]) for p in parts if p)
        return IrInstruction(opcode, "i1", ops)

    if opcode in CAST_OPCODES:
        head, _, tail = _partition(rest, "to")
        src = _typed_value(head)
        got = consume_type(tail, 0, allow_named=True)
        type_str = got[0] if got else "opaque"
        return IrInstruction(opcode, type_str, (src,) if src else ())

    if opcode == "freeze":
        got = consume_type(rest, 0, allow_named=True)
        type_str, j = got
        return IrInstruction("freeze", type_str, (_value_operand(rest[j]),))

    if opcode == "phi":
        got = consume_type(rest, 0, allow_named=True)
        type_str, j = got
        operands: list[Operand] = []
        for pair in _split_top_level(rest[j:]):
            if not pair or pair[0] != "[":
                continue
            inner = pair[1:-1] if pair[-1] == "]" else pair[1:]
            halves = _split_top_level(inner)
            operands.append(_typed_value(halves[0]) or _value_operand(halves[0][-1]))
            operands.append(Operand(OperandKind.LABEL, halves[1][-1].lstrip("%")))
        return IrInstruction("phi", type_str, tuple(operands))

    if opcode == "select":
        parts = _split_top_level(rest)
        cond = _typed_value(parts[0])
        got = consume_type(parts[1], 0, allow_named=True)
        type_str = got[0] if got else "opaque"
        a = _typed_value(parts[1])
        b = _typed_value(parts[2])
        return IrInstruction("select", type_str, (cond, a, b))

    if opcode == "atomicrmw":
        toks = [t for t in rest if t != "volatile"]
        toks = toks[1:]  # drop the rmw operation name
        parts = _split_top_level(toks)
        ptr = _typed_value(parts[0])
        got = consume_type(parts[1], 0, allow_named=True)
        type_str = got[0] if got else "opaque"
        val = _typed_value(parts[1])
        return IrInstruction("atomicrmw", type_str, (ptr, val))

    if opcode == "cmpxchg":
        toks = [t for t in rest if t not in ("volatile", "weak")]
        parts = _split_top_level(toks)
        ptr = _typed_value(parts[0])
        got = consume_type(parts[1], 0, allow_named=True)
        inner = got[0] if got else "opaque"
        cmp = _typed_value(parts[1])
        new = _typed_value(parts[2])
        return IrInstruction("cmpxchg", "{ %s , i1 }" % inner, (ptr, cmp, new))

    return _parse_generic(opcode, rest)


def _parse_call(opcode: str, rest: list[str]) -> IrInstruction:
    toks = [t for t in rest if t not in PARAM_ATTR_WORDS and t not in CALL_PREFIX_WORDS]
    # locate the callee: last %/@ token directly followed by "(" at top level
    callee_idx = None
    for k, t in _top_level(toks):
        if t == "(" and k > 0 and toks[k - 1][0] in "@%":
            callee_idx = k - 1
    if callee_idx is None:
        raise ValueError("call without a callable")
    callee = toks[callee_idx]
    got = consume_type(toks, 0, allow_named=True)
    if got is not None and got[1] <= callee_idx:
        ret_type = got[0]
        if "(" in ret_type:  # full function type: keep only the return part
            ret_type = ret_type.split("(", 1)[0].strip()
    else:
        ret_type = "void"
    arg_end = _consume_group(toks, callee_idx + 1)
    arg_toks = toks[callee_idx + 2:arg_end - 1]
    if callee.startswith("@"):
        fn_operand = Operand(OperandKind.FUNCTION, callee)
        target = callee[1:]
    else:
        fn_operand = Operand(OperandKind.LOCAL, callee)
        target = callee
    operands = [fn_operand]
    for frag in _split_top_level(arg_toks):
        op = _typed_value(frag)
        if op:
            operands.append(op)
    if opcode == "invoke":
        tail = toks[arg_end:]
        for k, t in enumerate(tail):
            if t == "label" and k + 1 < len(tail):
                operands.append(Operand(OperandKind.LABEL, tail[k + 1].lstrip("%")))
    return IrInstruction(opcode, ret_type, tuple(operands), call_target=target)


def _parse_generic(opcode: str, rest: list[str]) -> IrInstruction:
    """Any other opcode: harvest a type (`opaque` if there is none), the
    token after each word `label` as a Label and any other obvious value
    operands, but not the numbers in the type that begins a comma-separated
    operand.  A binary op or fneg needs a type and an operand.
    extractvalue and extractelement get the member type that their indices
    select, shufflevector a vector of its mask's length (`vscale` kept) of
    its first operand's element type, and va_arg its last operand's type."""
    got = consume_type(rest, 0, allow_named=True)
    type_str, j = got if got is not None else ("opaque", 0)
    parts = _split_top_level(rest[j:])
    if got is not None and opcode in ("extractvalue", "extractelement"):
        member = rest[:j]
        for index in parts[1:] if opcode == "extractvalue" else [["0"]]:
            member = _member_type(member, int(index[-1])) if member else None
        if member:
            type_str = " ".join(member)
    elif got is not None and opcode == "shufflevector" and len(parts) == 3:
        mask = consume_type(parts[2], 0)
        mask_type = parts[2][:mask[1]] if mask else []
        element = _member_type(rest[:j], 0)
        if element and mask_type[:1] == ["<"]:
            # keep `<` [`vscale x`] m `x` of the mask's `<m x i32>`
            lanes = mask_type[:-1 - len(_member_type(mask_type, 0))]
            type_str = " ".join(lanes + element + [">"])
    elif got is not None and opcode == "va_arg" and len(parts) == 2:
        arg_type = consume_type(parts[1], 0, allow_named=True)
        if arg_type:
            type_str = arg_type[0]
    operands = []
    for part in parts:
        typed = consume_type(part, 0) if len(part) > 1 else None
        start = typed[1] if typed and typed[1] < len(part) else 0  # skip a value's type
        for k in range(start, len(part)):
            t = part[k]
            if k and part[k - 1] == "label":
                operands.append(Operand(OperandKind.LABEL, t.lstrip("%")))
            elif t[0] in "%@" or _NUMBER_RE.match(t) or t in CONSTANT_WORDS:
                operands.append(_value_operand(t))
    if (got is None or not operands) and (opcode in BINARY_OPCODES or opcode == "fneg"):
        raise ValueError(f"{opcode} without a type or an operand")
    return IrInstruction(opcode, type_str, tuple(operands))


def _member_type(tokens: list[str], index: int) -> list[str] | None:
    """Tokens of the member that `index` selects in an array, vector or
    literal struct type; None for a named struct, whose members are not
    known here, or for an index past a struct's end."""
    if tokens[0] not in ("[", "{", "<"):
        return None
    inner = tokens[1:-1]
    if tokens[0] == "<" and inner[:1] == ["{"]:  # packed struct <{ ... }>
        tokens, inner = inner, inner[1:-1]
    if tokens[0] == "{":
        members = _split_top_level(inner)
        return members[index] if 0 <= index < len(members) else None
    if inner[:1] == ["vscale"]:
        inner = inner[2:]
    return inner[2:]  # [N x T] or <N x T>


def _parse_signature(tokens: list[str], lineno: int) -> tuple[str, list[tuple[str, str]]]:
    """Parse `define`/`declare` token stream into (name, params)."""
    name_idx = None
    for k, t in enumerate(tokens):
        if t.startswith("@") and k + 1 < len(tokens) and tokens[k + 1] == "(":
            name_idx = k
            break
    if name_idx is None:
        raise MalformedIr(lineno, "function signature without @name(...)")
    name = tokens[name_idx][1:]
    if name.startswith('"') and name.endswith('"'):
        name = name[1:-1]
    # linkage, attributes and return type before the name must nest
    depth = 0
    for t in tokens[:name_idx]:
        depth += _DEPTH.get(t, 0)
        if depth < 0:
            break
    if depth:
        raise MalformedIr(lineno, "unbalanced bracket before the function name")
    end = _consume_group(tokens, name_idx + 1)
    param_toks = tokens[name_idx + 2:end - 1]
    params: list[tuple[str, str]] = []
    unnamed = 0
    for raw_frag in _split_top_level(param_toks):
        frag: list[str] = []
        k = 0
        while k < len(raw_frag):
            t = raw_frag[k]
            if t in PARAM_ATTR_WORDS:
                # attributes may carry a numeric or parenthesized argument
                if k + 1 < len(raw_frag) and raw_frag[k + 1] == "(":
                    k = _consume_group(raw_frag, k + 1)
                elif k + 1 < len(raw_frag) and _NUMBER_RE.match(raw_frag[k + 1]):
                    k += 2
                else:
                    k += 1
                continue
            frag.append(t)
            k += 1
        if not frag or frag == ["..."]:
            continue
        got = consume_type(frag, 0, allow_named=False)
        if got is None:
            continue
        type_str, j2 = got
        if j2 < len(frag) and frag[j2].startswith("%"):
            pid = frag[j2]
        else:
            pid = f"%{unnamed}"
            unnamed += 1
        params.append((pid, type_str))
    return name, params


def _line_depth(text: str, define: bool) -> int:
    """Bracket depth of one physical line.  Braces on the lines of a define
    do not count: its body brace opens a body, which may begin on the same
    line, not a bracket."""
    if define:
        text = text.replace("{", "").replace("}", "")
    return _bracket_depth(text)


def _logical_lines(raw_lines: list[str]):
    """Join physical lines while brackets are open, braces on a define's
    lines aside, and the clause lines under an invoke, callbr or
    landingpad."""
    i = 0
    n = len(raw_lines)
    while i < n:
        line = _strip_comment(raw_lines[i]).strip()
        lineno = i + 1
        i += 1
        if not line:
            continue
        define = line.startswith("define")
        depth = _line_depth(line, define)
        clauses = _CLAUSE_HEAD_RE.match(line)
        while i < n and (depth > 0 or clauses and _CLAUSE_RE.match(raw_lines[i])):
            nxt = _strip_comment(raw_lines[i]).strip()
            i += 1
            line = line + " " + nxt
            depth += _line_depth(nxt, define)
        yield lineno, line


_SKIP_PREFIXES = ("target ", "source_filename", "attributes ", "module asm",
                  "uselistorder", "declare_type")


def parse_ir(text: str, name: str = "") -> IrModule:
    """Parse textual LLVM IR into an IrModule.

    Raises MalformedIr on structural problems; unknown opcodes and
    module-level constructs outside the subset degrade gracefully.
    """
    module = IrModule(name=name, functions=[])
    seen: set[str] = set()  # function names, defined or declared
    memo = _LINE_MEMO
    if sum(map(len, memo)) > LINE_MEMO_CHARS:
        memo.clear()
    fn_parser: _FunctionParser | None = None
    for lineno, line in _logical_lines(text.splitlines()):
        if fn_parser is not None:
            if line == "}":
                fn_parser.finish()
                fn_parser = None
            elif line.startswith("define ") or line.startswith("declare "):
                raise MalformedIr(lineno, "function inside function body (unbalanced braces?)")
            else:
                fn_parser.feed(line, lineno)
            continue
        try:
            fn_parser = _module_line(module, seen, memo, line, lineno)
        except (ValueError, IndexError, TypeError) as exc:
            raise MalformedIr(lineno, f"cannot parse {line[:40]!r}: {exc}") from exc
    if fn_parser is not None:
        raise MalformedIr(len(text.splitlines()), "unbalanced braces: unterminated function body")
    return module


def _module_line(module: IrModule, seen: set[str], memo: dict,
                 line: str, lineno: int) -> _FunctionParser | None:
    """Add one line outside any function body to the module; returns the
    parser of a function body the line opens and leaves open."""
    if line == "}":
        raise MalformedIr(lineno, "unmatched '}'")
    if line.startswith("define") and (line.endswith("{") or " {" in line):
        sig = line[len("define"):]
        cut = _body_brace(sig)
        if cut is None:
            raise MalformedIr(lineno, "define without a body brace")
        fn_parser = _FunctionParser(
            _add_function(module, seen, memo, sig[:cut], lineno, False), lineno, memo)
        inline = sig[cut + 1:].strip()
        if inline:
            closed = inline.endswith("}")
            if closed:
                inline = inline[:-1].strip()
            if inline:
                fn_parser.feed(inline, lineno)
            if closed:
                fn_parser.finish()
                return None
        return fn_parser
    if line.startswith("declare"):
        _add_function(module, seen, memo, line[len("declare"):], lineno, True)
        return None
    if line.startswith("define"):
        raise MalformedIr(lineno, "define without a body brace")
    if line.startswith("@"):  # a global: nothing reads it, but it must be whole
        text = _STRING_RE.sub("", line)
        if not _TOKEN_RE.match(line) or _bracket_depth(text) \
                or text.count("{") != text.count("}"):
            raise MalformedIr(lineno, f"unnamed or unbalanced global: {line[:40]!r}")
        return None
    if line.startswith("%") and "= type" in line:
        return None
    if line.startswith("$") or line.startswith("!"):
        return None
    if any(line.startswith(p) for p in _SKIP_PREFIXES):
        return None
    raise MalformedIr(lineno, f"instruction outside a function/block: {line[:40]!r}")


def _body_brace(sig: str) -> int | None:
    """Offset in a define signature of the brace that opens the body: the
    first `{` after the parameter list, since an aggregate return type has
    braces of its own.  Without an @name(...) it is the first `{`."""
    found = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(sig)]
    tokens = [t for t, _ in found]
    for k in range(len(tokens) - 1):
        if tokens[k].startswith("@") and tokens[k + 1] == "(":
            end = _consume_group(tokens, k + 1)
            return next((at for t, at in found[end:] if t == "{"), None)
    return sig.index("{")


def _add_function(module: IrModule, seen: set[str], memo: dict,
                  signature: str, lineno: int, is_declaration: bool) -> IrFunction:
    """Append the function that a define/declare signature names; a name may
    be defined or declared once.  A signature's parse is kept in the line
    memo, and one that raises is not kept.  Function names are unique within
    a module, so only a memo that outlives the call parses fewer of them."""
    key = "\n" + signature
    parsed = memo.get(key)
    if parsed is None:
        parsed = memo[key] = _parse_signature(_tokenize(signature), lineno)
    fname, params = parsed
    if fname in seen:
        raise MalformedIr(lineno, f"duplicate function @{fname}")
    seen.add(fname)
    fn = IrFunction(fname, list(params), [], is_declaration)
    module.functions.append(fn)
    return fn


def successors(block: IrBlock) -> list[str]:
    """Labels of the blocks this block's terminator may branch to."""
    if not block.instructions:
        return []
    term = block.instructions[-1]
    return [op.token for op in term.operands if op.kind == OperandKind.LABEL]
