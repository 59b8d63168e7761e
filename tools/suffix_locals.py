#!/usr/bin/env python3
"""Copy a corpus with every local name and block label made unique.

    python3 tools/suffix_locals.py SRC DST

Every file under SRC is copied to the same place under DST, which must not
exist yet.  In each `.ll` file, every local value (`%x`) and block label
(`x:`) of a function definition gets the suffix `.m<M>f<F>`: M is the
file's position among SRC's `.ll` files in sorted order and F the
function's position among the module's definitions.  So no instruction line
that names a local value or a label repeats across functions; a line that
names neither, such as `ret void`, still does.  Named types (`%struct.S`,
or any `%T = type` of the module), global names and the text of strings and
comments are left as they are, so a copy parses to the same instructions
under other names.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

# a string constant, a comment, or a local name, leftmost first
_PIECE_RE = re.compile(r'c?"[^"]*"|;.*|%("[^"]*"|[-A-Za-z$._0-9]+)')
_LABEL_RE = re.compile(r'^(\s*)("[^"]*"|[-A-Za-z$._0-9]+):')
_TYPE_RE = re.compile(r'^%("[^"]*"|[-A-Za-z$._0-9]+)\s*=\s*type\b', re.M)
_NAMED_TYPE_PREFIXES = ("struct.", "union.", "class.", "opaque.")


def _suffixed(name: str, tag: str) -> str:
    return name[:-1] + tag + '"' if name.startswith('"') else name + tag


def suffix_module(text: str, module: int) -> str:
    """`text` with the locals and labels of its n-th definition suffixed
    `.m<module>f<n>`."""
    types = set(_TYPE_RE.findall(text))

    def local(m: re.Match, tag: str) -> str:
        name = m.group(1)
        if name is None or name in types or name.startswith(_NAMED_TYPE_PREFIXES):
            return m.group()
        return "%" + _suffixed(name, tag)

    lines = text.split("\n")
    function, in_body = -1, False
    for k, line in enumerate(lines):
        code = line.strip()
        if code.startswith("define"):
            function, in_body = function + 1, True
        if not in_body:
            continue
        tag = f".m{module}f{function}"
        label = _LABEL_RE.match(line)
        head = ""
        if label and not code.startswith("define"):
            head = label.group(1) + _suffixed(label.group(2), tag) + ":"
            line = line[label.end():]
        lines[k] = head + _PIECE_RE.sub(lambda m: local(m, tag), line)
        if code == "}" or code.startswith("define") and code.endswith("}"):
            in_body = False
    return "\n".join(lines)


def suffix_corpus(src: Path, dst: Path) -> None:
    shutil.copytree(src, dst)
    for module, path in enumerate(sorted(dst.rglob("*.ll"))):
        path.write_text(suffix_module(path.read_text(), module))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: suffix_locals.py SRC DST", file=sys.stderr)
        return 2
    src, dst = (Path(a) for a in argv)
    if not src.is_dir():
        print(f"not a directory: {src}", file=sys.stderr)
        return 2
    if dst.exists():
        print(f"already exists: {dst}", file=sys.stderr)
        return 2
    suffix_corpus(src, dst)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
