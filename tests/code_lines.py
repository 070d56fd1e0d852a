"""Counts the lines of code in Python modules.

    python -m tests.code_lines [PATH ...]

A line of code holds a token other than a comment, a newline or an
indent (a string that spans lines counts on every line it spans), and is
not part of a module, class or function docstring.  Prints one count per
module and then the total.  With no PATH, counts ``src/mdlsynth/*.py``
under the current directory.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of code in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m tests.code_lines",
        description="Count lines of code, docstrings left out.")
    parser.add_argument("paths", nargs="*",
                        default=sorted(glob.glob("src/mdlsynth/*.py")))
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        print(f"{n:6d} {path}")
        total += n
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
