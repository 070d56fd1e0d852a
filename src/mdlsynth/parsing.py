"""Prolog-style reading and writing of clauses, examples, and directives.

The accepted syntax is deliberately small: facts ``p(a,1).``, rules
``head(A,B):- b1(A,C),b2(C,B).``, ``%`` line comments, integers, lowercase
constant symbols, uppercase variables, and ground lists ``[1,2,3]``.
Function symbols other than lists are not supported.
"""

from __future__ import annotations

import re

from .logic import Literal, Rule, Var, canonicalize, format_rule

__all__ = [
    "ParseError",
    "parse_clauses",
    "parse_ground_atom",
    "parse_examples",
    "parse_directives",
    "format_rule",
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


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append((m.lastgroup, m.group()))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def eof(self) -> bool:
        return self.i >= len(self.toks)

    def peek(self, ahead: int = 0):
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else (None, None)

    def take(self, kind=None, value=None):
        if self.eof():
            raise ParseError("unexpected end of input")
        k, v = self.toks[self.i]
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, got {v!r}")
        if value is not None and v != value:
            raise ParseError(f"expected {value!r}, got {v!r}")
        self.i += 1
        return v

    # ---- terms ----------------------------------------------------------

    def term(self, varmap: dict):
        k, v = self.peek()
        if k == "int":
            self.take()
            return int(v)
        if k == "var":
            self.take()
            if v not in varmap:
                varmap[v] = Var(len(varmap))
            return varmap[v]
        if k == "punct" and v == "[":
            return self.list_term(varmap)
        if k == "name":
            self.take()
            nk, nv = self.peek()
            if nk == "punct" and nv == "(":
                raise ParseError(f"nested compound term {v!r}(...) is not supported")
            return v
        raise ParseError(f"expected a term, got {v!r}")

    def list_term(self, varmap: dict):
        self.take("punct", "[")
        items = []
        k, v = self.peek()
        if k == "punct" and v == "]":
            self.take()
            return ()
        while True:
            t = self.term(varmap)
            if isinstance(t, Var):
                raise ParseError("variables inside list values are not supported")
            items.append(t)
            k, v = self.peek()
            if k == "punct" and v == ",":
                self.take()
                continue
            break
        self.take("punct", "]")
        return tuple(items)

    def atom(self, varmap: dict) -> Literal:
        name = self.take("name")
        k, v = self.peek()
        if not (k == "punct" and v == "("):
            return Literal(name, ())
        self.take()
        args = [self.term(varmap)]
        while True:
            k, v = self.peek()
            if k == "punct" and v == ",":
                self.take()
                args.append(self.term(varmap))
            else:
                break
        self.take("punct", ")")
        return Literal(name, tuple(args))

    def clause(self):
        varmap: dict = {}
        head = self.atom(varmap)
        k, v = self.peek()
        body = []
        if k == "neck":
            self.take()
            body.append(self.atom(varmap))
            while True:
                k, v = self.peek()
                if k == "punct" and v == ",":
                    self.take()
                    body.append(self.atom(varmap))
                else:
                    break
        self.take("punct", ".")
        return head, body

    # ---- directives -----------------------------------------------------

    def directive(self):
        name = self.take("name")
        args = []
        if self.peek() == ("punct", "("):
            self.take()
            args.append(self.directive_arg())
            while self.peek() == ("punct", ","):
                self.take()
                args.append(self.directive_arg())
            self.take("punct", ")")
        self.take("punct", ".")
        return name, tuple(args)

    def directive_arg(self):
        k, v = self.peek()
        if k == "int":
            self.take()
            return int(v)
        if k == "name":
            self.take()
            return v
        if k == "punct" and v == "(":
            self.take()
            items = [self.directive_arg()]
            while self.peek() == ("punct", ","):
                self.take()
                if self.peek() == ("punct", ")"):  # trailing comma: (list,)
                    break
                items.append(self.directive_arg())
            self.take("punct", ")")
            return tuple(items)
        raise ParseError(f"unexpected directive argument {v!r}")


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
    out = []
    for head, body in parse_clauses(text):
        out.append(canonicalize(Rule(head, frozenset(body))))
    return out


def parse_ground_atom(text: str) -> Literal:
    p = _Parser(text)
    varmap: dict = {}
    atom = p.atom(varmap)
    k, v = p.peek()
    if k == "punct" and v == ".":
        p.take()
    if not p.eof():
        raise ParseError(f"trailing input after atom: {text!r}")
    if varmap:
        raise ParseError(f"atom {text!r} is not ground")
    return atom


def parse_examples(text: str, default_label: str | None = None):
    """Parse an examples file into (positives, negatives).

    Lines are ``pos(atom).`` / ``neg(atom).``; bare ``atom.`` lines take
    ``default_label`` ('pos' or 'neg')."""
    p = _Parser(text)
    pos, neg = [], []
    while not p.eof():
        varmap: dict = {}
        label = p.peek()[1]
        if label in ("pos", "neg") and p.peek(1) == ("punct", "("):
            p.take()
            p.take()
            atom = p.atom(varmap)
            p.take("punct", ")")
        else:
            atom = p.atom(varmap)
            label = default_label
        p.take("punct", ".")
        if varmap:
            raise ParseError(f"example {atom} is not ground")
        if label == "pos":
            pos.append(atom)
        elif label == "neg":
            neg.append(atom)
        else:
            raise ParseError(f"unlabelled example {atom} and no default label")
    return pos, neg


def parse_directives(text: str) -> list:
    """Parse a directive file (e.g. a bias file) into (name, args) pairs.

    Args may be names, integers, or parenthesized tuples of names, as in
    ``type(head,(list,int)).``; zero-arity directives like
    ``enable_recursion.`` are allowed."""
    p = _Parser(text)
    out = []
    while not p.eof():
        out.append(p.directive())
    return out
