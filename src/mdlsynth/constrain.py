"""Noise-tolerant pruning constraints and their store.

Testing a hypothesis h yields up to two constraints:

* a specialisation constraint with bound min(tp(h), size(h) + fp(h)):
  no specialisation of h larger than the bound can be optimal;
* a generalisation constraint with bound
  min(|E+| - fp(h), fn(h) + size(h), max_mdl - cost(h) + |E+| + size(h)):
  no generalisation of h larger than the bound can be optimal,
  where max_mdl is the cost of the current best hypothesis.

A constraint (kind, anchor a, bound k) prunes a candidate h2 when
size(h2) > k and h2 is related to a by whole-program theta-subsumption:
a <= h2 for the specialisation kind, h2 <= a for the generalisation kind.
Bounds at or above the search's maximum reachable program size prune
nothing and are dropped.

The generator asks the store about every candidate as it comes up:
``singleton_pruned(r)`` for a single rule r, ``violates`` for a recursive
program.  A specialisation-pruned singleton {r} does not prune a recursive
program that holds r: a base case adds proofs that r lacks alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .logic import (
    Hypothesis,
    Rule,
    clause_subsumes,
    format_rule,
    prog_size,
    rule_size,
)

__all__ = [
    "Kind",
    "NoisyConstraint",
    "SearchBounds",
    "derive",
    "generalisation_fp_threshold",
    "ConstraintStore",
]


class Kind(enum.Enum):
    SPECIALISATION = "spec"
    GENERALISATION = "gen"


@dataclass(frozen=True)
class NoisyConstraint:
    kind: Kind
    anchor: Hypothesis
    bound: int  # prunes related programs of size strictly greater than bound

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("constraint bound must be >= 1")


@dataclass(frozen=True)
class SearchBounds:
    """max_mdl is the cost of the current best hypothesis (at most |E+|)."""

    max_mdl: int
    pos_count: int


def generalisation_fp_threshold(num_pos: int, fp: int) -> int:
    """Size threshold of the fp-based generalisation constraint: prune
    generalisations of size strictly greater than |E+| - fp (the strict
    form; the non-strict variant would also prune size == |E+| - fp, which
    is not covered by the proof)."""
    return num_pos - fp


def derive(h: Hypothesis, cov, bounds: SearchBounds, max_size: int) -> list:
    """Constraints justified by testing ``h``; ``max_size`` is the largest
    program size the generator can reach, used to drop vacuous bounds."""
    size = prog_size(h)
    cost = size + cov.fn + cov.fp
    out = []
    spec_bound = min(cov.tp, size + cov.fp)
    gen_bound = min(
        generalisation_fp_threshold(bounds.pos_count, cov.fp),
        cov.fn + size,
        bounds.max_mdl - cost + bounds.pos_count + size,
    )
    # A bound below 1 is clamped: there are no programs of size 1 (the
    # smallest rule has two literals), so pruning size > 1 equals size > 0.
    if spec_bound < max_size:
        out.append(NoisyConstraint(Kind.SPECIALISATION, h, max(1, spec_bound)))
    if gen_bound < max_size:
        out.append(NoisyConstraint(Kind.GENERALISATION, h, max(1, gen_bound)))
    return out


class _Record:
    __slots__ = ("kind", "anchor_rids", "bound", "anchor")

    def __init__(self, kind, anchor_rids, bound, anchor):
        self.kind = kind
        self.anchor_rids = anchor_rids
        self.bound = bound
        self.anchor = anchor


class ConstraintStore:
    """Accumulates constraints and answers violation queries.

    Anchor rules are interned; per candidate rule the store caches which
    anchor rules subsume it and which it subsumes, extended lazily as new
    anchors arrive.  Queries then reduce to small set operations."""

    def __init__(self):
        self._records: list = []
        self._by_key: dict = {}
        self._rids: dict = {}
        self._rules: list = []
        self._rule_meta: list = []  # (head key, body pred frozenset)
        self._spec_of_rid: dict = {}
        self._gen_of_rid: dict = {}
        # candidate caches: Rule -> [set of rids, processed-upto]
        self._subsumers: dict = {}
        self._subsumees: dict = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def add(self, con: NoisyConstraint) -> bool:
        """Insert; keeps the strongest bound per (kind, anchor).  Returns
        False when an equal-or-stronger constraint is already present."""
        key = (con.kind, con.anchor)
        old = self._by_key.get(key)
        if old is not None and old.bound <= con.bound:
            return False
        rids = frozenset(self._intern(r) for r in con.anchor)
        rec = _Record(con.kind, rids, con.bound, con.anchor)
        idx = len(self._records)
        self._records.append(rec)
        self._by_key[key] = rec
        table = self._spec_of_rid if con.kind is Kind.SPECIALISATION else self._gen_of_rid
        for rid in rids:
            table.setdefault(rid, []).append(idx)
        return True

    def _intern(self, rule: Rule) -> int:
        rid = self._rids.get(rule)
        if rid is None:
            rid = len(self._rules)
            self._rids[rule] = rid
            self._rules.append(rule)
            self._rule_meta.append((
                (rule.head.pred, rule.head.arity),
                frozenset((b.pred, b.arity) for b in rule.body),
            ))
        return rid

    # ---- candidate-rule relation caches ----------------------------------

    def _subsumers_of(self, rule: Rule) -> set:
        """Anchor rule ids that theta-subsume ``rule``."""
        entry = self._subsumers.get(rule)
        if entry is None:
            entry = [set(), 0]
            self._subsumers[rule] = entry
        rids, upto = entry
        n = len(self._rules)
        if upto < n:
            hkey = (rule.head.pred, rule.head.arity)
            bpreds = frozenset((b.pred, b.arity) for b in rule.body)
            for rid in range(upto, n):
                mh, mb = self._rule_meta[rid]
                # note: subsumption may merge literals, so no length filter
                if mh == hkey and mb <= bpreds:
                    if clause_subsumes(self._rules[rid], rule):
                        rids.add(rid)
            entry[1] = n
        return rids

    def _subsumees_of(self, rule: Rule) -> set:
        """Anchor rule ids that ``rule`` theta-subsumes."""
        entry = self._subsumees.get(rule)
        if entry is None:
            entry = [set(), 0]
            self._subsumees[rule] = entry
        rids, upto = entry
        n = len(self._rules)
        if upto < n:
            hkey = (rule.head.pred, rule.head.arity)
            bpreds = frozenset((b.pred, b.arity) for b in rule.body)
            for rid in range(upto, n):
                mh, mb = self._rule_meta[rid]
                if mh == hkey and bpreds <= mb:
                    if clause_subsumes(rule, self._rules[rid]):
                        rids.add(rid)
            entry[1] = n
        return rids

    # ---- queries ----------------------------------------------------------

    def violates(self, h, size: int) -> bool:
        """True iff some stored constraint prunes ``h`` of program size
        ``size`` (whole-program relation check, sizes strictly greater
        than the bound)."""
        rules = tuple(h)
        if not rules:
            return False
        return self._spec_hit(rules, size) or self._gen_hit(rules, size)

    def _spec_hit(self, rules, size) -> bool:
        # anchor <= h: every rule of h subsumed by some anchor rule
        subs = [self._subsumers_of(r) for r in rules]
        if any(not s for s in subs):
            return False
        smallest = min(subs, key=len)
        seen = set()
        for rid in smallest:
            for idx in self._spec_of_rid.get(rid, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                rec = self._records[idx]
                if rec.bound >= size:
                    continue
                if all(s & rec.anchor_rids for s in subs):
                    return True
        return False

    def _gen_hit(self, rules, size) -> bool:
        # h <= anchor: every anchor rule subsumed by some rule of h
        union = set()
        for r in rules:
            union |= self._subsumees_of(r)
        if not union:
            return False
        seen = set()
        for rid in union:
            for idx in self._gen_of_rid.get(rid, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                rec = self._records[idx]
                if rec.bound >= size:
                    continue
                if rec.anchor_rids <= union:
                    return True
        return False

    def singleton_pruned(self, rule: Rule) -> bool:
        """``violates((rule,), rule_size(rule))``: True iff some stored
        constraint prunes the singleton program {rule}."""
        # not through violates, so that learnbench's tracer, which wraps
        # both, counts each query once
        size = rule_size(rule)
        return self._spec_hit((rule,), size) or self._gen_hit((rule,), size)

    def dump(self) -> str:
        lines = []
        for rec in self._records:
            tag = "spec" if rec.kind is Kind.SPECIALISATION else "gen"
            anchor = " ; ".join(sorted(format_rule(r) for r in rec.anchor))
            lines.append(f"{tag} {rec.bound} {anchor}")
        return "\n".join(lines)
