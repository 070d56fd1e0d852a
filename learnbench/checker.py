"""Independent coverage checker for programs returned by ``mdlsynth.learn``.

Written apart from ``mdlsynth.evaluate``: it reads rules from their printed
text, and it decides entailment by depth-tabled top-down evaluation with
substitutions held in plain dicts, where the package uses destructive
bindings, a trail and step budgets.  It knows ground facts, the list and
integer built-ins of the bundled task families, and recursion whose proof
trees nest at most ``MAX_DEPTH`` rule applications.

A built-in runs only when its inputs are bound (its mode); a body literal
whose built-in cannot run waits until other literals bind its inputs, and a
body in which only such literals remain fails.  The package gives its
built-ins the same modes.
"""

from __future__ import annotations

import re

MAX_DEPTH = 30  # the package's default EvalBudget.max_depth


class CheckerError(ValueError):
    pass


class V:
    """A rule variable, named as printed."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, V) and other.name == self.name

    def __hash__(self):
        return hash(("V", self.name))

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# Reading rules
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(:-|-?\d+|[A-Z_]\w*|[a-z]\w*|[()\[\],.])")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckerError(f"cannot read {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _term(toks, i):
    tok = toks[i]
    if tok == "[":
        items, i = [], i + 1
        if toks[i] == "]":
            return (), i + 1
        while True:
            item, i = _term(toks, i)
            items.append(item)
            if toks[i] == "]":
                return tuple(items), i + 1
            if toks[i] != ",":
                raise CheckerError(f"expected ',' in list, got {toks[i]!r}")
            i += 1
    if tok.lstrip("-").isdigit():
        return int(tok), i + 1
    if tok[0].isupper() or tok[0] == "_":
        return V(tok), i + 1
    if tok[0].islower():
        return tok, i + 1
    raise CheckerError(f"unexpected token {tok!r}")


def _atom(toks, i):
    pred = toks[i]
    if not pred[0].islower():
        raise CheckerError(f"expected a predicate name, got {pred!r}")
    i += 1
    args = []
    if i < len(toks) and toks[i] == "(":
        i += 1
        while True:
            arg, i = _term(toks, i)
            args.append(arg)
            if toks[i] == ")":
                i += 1
                break
            if toks[i] != ",":
                raise CheckerError(f"expected ',' or ')', got {toks[i]!r}")
            i += 1
    return (pred, tuple(args)), i


def parse_rule(text: str):
    """``head:- b1,...,bn.`` as (head, body), each atom a (pred, args)
    pair; variables are ``V`` objects, lists are tuples."""
    toks = _tokens(text)
    head, i = _atom(toks, 0)
    body = []
    if toks[i] == ":-":
        i += 1
        while True:
            lit, i = _atom(toks, i)
            body.append(lit)
            if toks[i] == ".":
                break
            if toks[i] != ",":
                raise CheckerError(f"expected ',' or '.', got {toks[i]!r}")
            i += 1
    if toks[i] != "." or i + 1 != len(toks):
        raise CheckerError(f"trailing input in {text!r}")
    return head, tuple(body)


def parse_program(text: str) -> list:
    """Rules of a program written one clause per line."""
    return [parse_rule(line) for line in text.splitlines() if line.strip()]


def program_size(rules) -> int:
    """Literals in the program: one head plus the body of every rule."""
    return sum(1 + len(body) for _head, body in rules)


# ---------------------------------------------------------------------------
# Built-ins: each takes the call's arguments (None where unbound) and
# returns the solutions as full argument tuples, or None when the mode is
# not met and the call must wait.
# ---------------------------------------------------------------------------

def _is_int(x):
    return type(x) is int


def _head(l, x):
    if l is None:
        return None
    return [(l, l[0])] if isinstance(l, tuple) and l else []


def _tail(l, t):
    if l is None:
        return None
    return [(l, l[1:])] if isinstance(l, tuple) and l else []


def _empty(l):
    return [((),)] if l is None or l == () else []


def _parity(rem):
    def check(x):
        if x is None:
            return None
        return [(x,)] if _is_int(x) and x % 2 == rem else []
    return check


def _constant(value):
    def check(x):
        return [(value,)] if x is None or x == value else []
    return check


def _offset(delta):
    # relation b = a + delta, usable in either direction
    def check(a, b):
        if _is_int(a):
            return [(a, a + delta)]
        if _is_int(b):
            return [(b - delta, b)]
        return None
    return check


def _geq(a, b):
    if a is None or b is None:
        return None
    return [(a, b)] if _is_int(a) and _is_int(b) and a >= b else []


def _append(front, elem, out):
    # out is front with elem added at the end
    if isinstance(front, tuple) and elem is not None:
        return [(front, elem, front + (elem,))]
    if isinstance(out, tuple):
        return [(out[:-1], out[-1], out)] if out else []
    return None


BUILTINS = {
    ("head", 2): _head,
    ("tail", 2): _tail,
    ("empty", 1): _empty,
    ("empty_out", 1): _empty,
    ("even", 1): _parity(0),
    ("odd", 1): _parity(1),
    ("one", 1): _constant(1),
    ("zero", 1): _constant(0),
    ("decrement", 2): _offset(-1),
    ("succ", 2): _offset(1),
    ("geq", 2): _geq,
    ("append", 3): _append,
}


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

class Program:
    """Background facts plus a program's rules; answers queries."""

    def __init__(self, rules, facts=()):
        self.rules: dict = {}
        for head, body in rules:
            self.rules.setdefault((head[0], len(head[1])), []).append((head, body))
        self.facts: dict = {}
        self.index: dict = {}
        for pred, args in facts:
            key = (pred, len(args))
            self.facts.setdefault(key, []).append(args)
            for pos, value in enumerate(args):
                self.index.setdefault((key, pos, value), []).append(args)
        self._table: dict = {}

    def entails(self, pred: str, args: tuple) -> bool:
        return bool(self._answers((pred, len(args)), args, MAX_DEPTH))

    def _answers(self, key, pattern, depth) -> list:
        """Argument tuples (None where left unbound) that prove the call
        ``key`` with the bound values in ``pattern``."""
        memo = (key, pattern, depth)
        found = self._table.get(memo)
        if found is not None:
            return found
        found = set(self._fact_answers(key, pattern))
        if depth > 0:
            for head, body in self.rules.get(key, ()):
                env: dict = {}
                if not _match(head[1], pattern, env):
                    continue
                for env2 in self._solve(list(body), env, depth - 1):
                    found.add(tuple(_value(t, env2) for t in head[1]))
        found = list(found)
        self._table[memo] = found
        return found

    def _fact_answers(self, key, pattern):
        rows = self.facts.get(key)
        if rows is None:
            return ()
        for pos, value in enumerate(pattern):
            if value is not None:
                bucket = self.index.get((key, pos, value), ())
                if len(bucket) < len(rows):
                    rows = bucket
        return [r for r in rows
                if all(v is None or v == x for v, x in zip(pattern, r))]

    def _ready(self, lit, env, depth):
        """Solutions of ``lit`` under ``env``, or None when it must wait."""
        pred, args = lit
        key = (pred, len(args))
        pattern = tuple(_value(t, env) for t in args)
        if key in self.rules or key in self.facts:
            return self._answers(key, pattern, depth)
        builtin = BUILTINS.get(key)
        if builtin is None:
            return []  # unknown predicate: nothing proves it
        return builtin(*pattern)

    def _solve(self, goals, env, depth):
        if not goals:
            yield env
            return
        # run a built-in whose mode is met first, then the literal with
        # most bound arguments
        order = sorted(range(len(goals)), key=lambda i: (
            (goals[i][0], len(goals[i][1])) not in BUILTINS,
            -sum(_value(t, env) is not None for t in goals[i][1])))
        for i in order:
            sols = self._ready(goals[i], env, depth)
            if sols is not None:
                break
        else:
            return  # only waiting built-ins remain
        rest = goals[:i] + goals[i + 1:]
        for sol in sols:
            env2 = dict(env)
            if _match(goals[i][1], sol, env2):
                yield from self._solve(rest, env2, depth)


def _value(term, env):
    if isinstance(term, V):
        return env.get(term)
    return term


def _match(terms, values, env) -> bool:
    """Extend ``env`` so that ``terms`` equal ``values``; None in
    ``values`` leaves a term as it is."""
    for t, v in zip(terms, values):
        if v is None:
            continue
        if isinstance(t, V):
            bound = env.get(t)
            if bound is None:
                env[t] = v
            elif bound != v:
                return False
        elif t != v:
            return False
    return True


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

def coverage(rules, facts, pos, neg) -> dict:
    """tp, fn, fp, tn of ``rules`` over ground example atoms given as
    (pred, args) pairs."""
    prog = Program(rules, facts)
    tp = sum(prog.entails(p, a) for p, a in pos)
    fp = sum(prog.entails(p, a) for p, a in neg)
    return {"tp": tp, "fn": len(pos) - tp, "fp": fp, "tn": len(neg) - fp}


def mdl_cost(rules, cov) -> int:
    return program_size(rules) + cov["fn"] + cov["fp"]


def accuracy(cov) -> float:
    total = cov["tp"] + cov["fn"] + cov["fp"] + cov["tn"]
    return (cov["tp"] + cov["tn"]) / total
