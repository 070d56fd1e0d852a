"""Terms, literals, rules, and hypotheses.

A rule is a definite clause over function-free literals: every argument is
either an integer-indexed variable or a ground constant (an int, a symbol
string, or a tuple standing for a list value).  A hypothesis is a frozenset
of rules.  Everything here is immutable and hashable, so values can be
shared across threads and used as cache keys.

Variable indices within a canonical rule are dense: if index k occurs, all
smaller indices occur too.  ``canonicalize`` produces the unique
representative of a rule up to variable renaming and body-literal order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class Var:
    """A rule variable, identified by a small index (0 prints as A, 1 as B)."""

    idx: int

    def __repr__(self) -> str:
        return var_name(self.idx)


# A term is a Var or a ground constant: int, str, or tuple (a list value).
Term = object


@dataclass(frozen=True, slots=True)
class Literal:
    pred: str
    args: tuple

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(format_term(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class Rule:
    """A definite clause: one head literal and an unordered, duplicate-free body."""

    head: Literal
    body: frozenset

    def __repr__(self) -> str:
        return format_rule(self)


# A hypothesis (program) is a frozenset of rules; the empty frozenset is the
# empty hypothesis.
Hypothesis = frozenset


def var_name(i: int) -> str:
    if 0 <= i < 26:
        return chr(ord("A") + i)
    return f"V{i}"


def format_term(t) -> str:
    if isinstance(t, Var):
        return var_name(t.idx)
    if isinstance(t, tuple):
        return "[" + ",".join(format_term(x) for x in t) + "]"
    return str(t)


def _body_sorted(body: Iterable[Literal]) -> list:
    return sorted(body, key=_literal_sort_key)


def _literal_sort_key(lit: Literal):
    return (lit.pred, len(lit.args),
            tuple((0, a.idx) if isinstance(a, Var) else (1, _const_key(a))
                  for a in lit.args))


def format_rule(rule: Rule) -> str:
    head = repr(rule.head)
    if not rule.body:
        return f"{head}."
    body = ",".join(repr(b) for b in _body_sorted(rule.body))
    return f"{head}:- {body}."


def format_program(h: Hypothesis) -> str:
    return "\n".join(format_rule(r) for r in sorted(h, key=format_rule))


def rule_size(rule: Rule) -> int:
    return 1 + len(rule.body)


def prog_size(h: Hypothesis) -> int:
    """Number of literals in the hypothesis (head plus body, over all rules)."""
    return sum(rule_size(r) for r in h)


def head_preds(h: Hypothesis) -> set:
    return {(r.head.pred, r.head.arity) for r in h}


def is_recursive(h: Hypothesis) -> bool:
    """True iff some rule's head predicate occurs in some rule's body."""
    heads = head_preds(h)
    return any((b.pred, b.arity) in heads for r in h for b in r.body)


def is_separable(h: Hypothesis) -> bool:
    """At least two rules and no head predicate appearing in any body."""
    return len(h) >= 2 and not is_recursive(h)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _const_key(v):
    if isinstance(v, bool):
        return (0, int(v))
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(_const_key(x) for x in v))
    return (3, repr(v))


def _lit_pattern(lit: Literal, mapping: dict, nxt: int):
    """Pattern of ``lit`` under ``mapping``, assigning fresh indices to
    unmapped variables in argument order.  Returns (key, extended mapping,
    next fresh index)."""
    new_map = None
    tokens = []
    for a in lit.args:
        if isinstance(a, Var):
            m = mapping if new_map is None else new_map
            idx = m.get(a)
            if idx is None:
                if new_map is None:
                    new_map = dict(mapping)
                new_map[a] = nxt
                idx = nxt
                nxt += 1
            tokens.append((0, idx))
        else:
            tokens.append((1, _const_key(a)))
    key = (lit.pred, len(lit.args), tuple(tokens))
    return key, (mapping if new_map is None else new_map), nxt


def _rename(lit: Literal, mapping: dict) -> Literal:
    args = tuple(Var(mapping[a]) if isinstance(a, Var) else a for a in lit.args)
    return Literal(lit.pred, args)


def canonicalize(rule: Rule) -> Rule:
    """Canonical representative of ``rule`` up to variable renaming and body
    order: head variables are numbered by first occurrence, then the body
    ordering minimizing the literal-pattern sequence fixes the rest.
    Idempotent."""
    mapping: dict = {}
    for a in rule.head.args:
        if isinstance(a, Var) and a not in mapping:
            mapping[a] = len(mapping)
    nxt = len(mapping)
    best: list | None = None

    def rec(remaining, mp, n, acc):
        nonlocal best
        if best is not None and acc > best[: len(acc)]:
            return
        if not remaining:
            if best is None or acc < best:
                best = acc
            return
        scored = []
        for lit in remaining:
            key, m2, n2 = _lit_pattern(lit, mp, n)
            scored.append((key, lit, m2, n2))
        min_key = min(s[0] for s in scored)
        for key, lit, m2, n2 in scored:
            if key == min_key:
                rec(remaining - {lit}, m2, n2, acc + [key])

    rec(frozenset(rule.body), mapping, nxt, [])
    body = []
    for pred, _ar, tokens in best or []:
        args = tuple(
            Var(tok[1]) if tok[0] == 0 else _key_to_const(tok[1]) for tok in tokens
        )
        body.append(Literal(pred, args))
    head_map = {v: i for v, i in mapping.items()}
    return Rule(_rename(rule.head, head_map), frozenset(body))


def _key_to_const(k):
    tag, v = k
    if tag in (0, 1):
        return v
    if tag == 2:
        return tuple(_key_to_const(x) for x in v)
    raise ValueError(f"cannot rebuild constant from key {k!r}")


# ---------------------------------------------------------------------------
# Theta-subsumption
# ---------------------------------------------------------------------------

def _match_term(pat, tgt, theta: dict) -> bool:
    if isinstance(pat, Var):
        bound = theta.get(pat)
        if bound is None:
            theta[pat] = tgt
            return True
        return bound == tgt
    return pat == tgt


def _match_literal(pat: Literal, tgt: Literal, theta: dict) -> bool:
    if pat.pred != tgt.pred or len(pat.args) != len(tgt.args):
        return False
    for p, t in zip(pat.args, tgt.args):
        if not _match_term(p, t, theta):
            return False
    return True


def clause_subsumes(c1: Rule, c2: Rule) -> bool:
    """True iff some substitution maps every literal of ``c1`` onto a literal
    of ``c2``, head onto head and body into body."""
    theta: dict = {}
    if not _match_literal(c1.head, c2.head, theta):
        return False
    by_pred: dict = {}
    for lit in c2.body:
        by_pred.setdefault((lit.pred, len(lit.args)), []).append(lit)
    todo = []
    for lit in c1.body:
        cands = by_pred.get((lit.pred, len(lit.args)))
        if not cands:
            return False
        todo.append((lit, cands))
    todo.sort(key=lambda x: len(x[1]))

    def rec(i: int, theta: dict) -> bool:
        if i == len(todo):
            return True
        lit, cands = todo[i]
        for tgt in cands:
            t2 = dict(theta)
            if _match_literal(lit, tgt, t2) and rec(i + 1, t2):
                return True
        return False

    return rec(0, theta)
