"""Prolog-style reading of clauses, examples, and directives.

Every input file is read by one small grammar, with ``%`` line comments:

    clause    := atom [":-" atom {"," atom}] "."    arguments are terms
    directive := atom "."                           arguments are dirargs
    atom      := name ["(" arg {"," arg} ")"]
    term      := integer | name | Variable | "[" [value {"," value}] "]"
    value     := a term without variables
    dirarg    := value | "(" dirarg {"," dirarg} [","] ")"

An example is ``pos(atom).``, ``neg(atom).`` or a bare ``atom.``, its
arguments values.  In a directive a list constant is written ``[a,b]``, as
in a clause; the parenthesised tuple that ``type`` takes, with an optional
trailing comma as in ``type(empty,(list,)).``, reads as the same value.
Function symbols other than lists are not supported.  A ``ParseError``
ends with the line and column, counted from 1, where reading failed.
"""

from __future__ import annotations

import re

from .logic import Literal, Rule, Var, canonicalize

__all__ = [
    "ParseError",
    "parse_clauses",
    "parse_ground_atom",
    "parse_examples",
    "parse_directives",
]


class ParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|%[^\n]*)
      | (?P<neck>:-)
      | (?P<punct>[()\[\],.|])
      | (?P<int>-?\d+)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<name>[a-z][A-Za-z0-9_]*)
    """,
    re.X,
)


def _position(line: int, column: int) -> str:
    return f"at line {line}, column {column}"


def _tokenize(text: str):
    """(kind, text, line, column) of each token; lines and columns count
    from 1."""
    pos = 0
    line, line_start = 1, 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} "
                             f"{_position(line, pos - line_start + 1)}")
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), line, pos - line_start + 1))
        elif "\n" in m.group():
            line += m.group().count("\n")
            line_start = text.rindex("\n", pos, m.end()) + 1
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.vars: dict = {}  # the current clause's variables by name

    def eof(self) -> bool:
        return self.i >= len(self.toks)

    def peek(self, ahead: int = 0):
        """(kind, text) of a token, (None, None) past the end."""
        j = self.i + ahead
        return self.toks[j][:2] if j < len(self.toks) else (None, None)

    def error(self, message: str, at: int | None = None) -> ParseError:
        """``message`` at the position of token ``at`` (the next token by
        default), or of the end of the input past the last token."""
        at = self.i if at is None else at
        if at < len(self.toks):
            line, column = self.toks[at][2:]
        else:
            line = self.text.count("\n") + 1
            column = len(self.text) - self.text.rfind("\n")
        return ParseError(f"{message} {_position(line, column)}")

    def take(self, kind=None, value=None):
        if self.eof():
            raise self.error("unexpected end of input")
        k, v = self.peek()
        if kind is not None and k != kind:
            raise self.error(f"expected {kind}, got {v!r}")
        if value is not None and v != value:
            raise self.error(f"expected {value!r}, got {v!r}")
        self.i += 1
        return v

    def accept(self, value: str) -> bool:
        """Take the next token if it is ``value``."""
        if self.peek()[1] != value:
            return False
        self.i += 1
        return True

    def items(self, read, close: str, trailing: bool = False) -> list:
        """``read()`` once and again after each comma, then the ``close``
        token; ``trailing`` allows a comma just before it."""
        out = [read()]
        while self.accept(","):
            if trailing and self.peek()[1] == close:
                break
            out.append(read())
        self.take(value=close)
        return out

    def term(self):
        if self.accept("["):
            return () if self.accept("]") else tuple(self.items(self.value, "]"))
        k, v = self.peek()
        self.take()
        if k == "int":
            return int(v)
        if k == "var":
            return self.vars.setdefault(v, Var(len(self.vars)))
        if k != "name":
            raise self.error(f"expected a term, got {v!r}", self.i - 1)
        if self.peek()[1] == "(":
            raise self.error(f"nested compound term {v!r}(...) is not supported",
                             self.i - 1)
        return v

    def value(self):
        """A term without variables."""
        k, v = self.peek()
        if k == "var":
            raise self.error(f"variable {v} where a ground value is expected")
        return self.term()

    def atom(self, read) -> Literal:
        """A predicate name and the arguments that ``read`` reads."""
        name = self.take("name")
        if not self.accept("("):
            return Literal(name, ())
        return Literal(name, tuple(self.items(read, ")")))

    def clause(self):
        self.vars = {}
        head = self.atom(self.term)
        if not self.accept(":-"):
            self.take(value=".")
            return head, []
        return head, self.items(lambda: self.atom(self.term), ".")

    def directive_arg(self):
        if not self.accept("("):
            return self.value()
        return tuple(self.items(self.directive_arg, ")", trailing=True))


def parse_clauses(text: str) -> list:
    """Parse a program as a list of (head, body-list) pairs; facts have an
    empty body."""
    p = _Parser(text)
    out = []
    while not p.eof():
        out.append(p.clause())
    return out


def parse_rules(text: str) -> list:
    """Parse clauses and canonicalize each into a Rule (facts included, with
    empty bodies)."""
    return [canonicalize(Rule(head, frozenset(body)))
            for head, body in parse_clauses(text)]


def parse_ground_atom(text: str) -> Literal:
    """One ground atom, with or without its closing ``.``."""
    p = _Parser(text)
    atom = p.atom(p.value)
    p.accept(".")
    if not p.eof():
        raise p.error(f"trailing input after atom: {text!r}")
    return atom


def parse_examples(text: str, default_label: str | None = None):
    """Parse an examples file into (positives, negatives).

    Lines are ``pos(atom).`` / ``neg(atom).``; bare ``atom.`` lines take
    ``default_label`` ('pos' or 'neg')."""
    p = _Parser(text)
    out = {"pos": [], "neg": []}
    while not p.eof():
        start = p.i
        if p.peek()[1] in out and p.peek(1) == ("punct", "("):
            label = p.take()
            p.take()
            atom = p.atom(p.value)
            p.take(value=")")
        else:
            label = default_label
            atom = p.atom(p.value)
        p.take(value=".")
        if label not in out:
            raise p.error(f"unlabelled example {atom} and no default label", start)
        out[label].append(atom)
    return out["pos"], out["neg"]


def parse_directives(text: str) -> list:
    """Parse a directive file (e.g. a bias file) into (name, args) pairs;
    zero-arity directives like ``enable_recursion.`` are allowed."""
    p = _Parser(text)
    out = []
    while not p.eof():
        d = p.atom(p.directive_arg)
        p.take(value=".")
        out.append((d.pred, d.args))
    return out
