"""Noise-tolerant pruning constraints and their store.

Testing a hypothesis h yields up to two constraints:

* a specialisation constraint with bound min(tp(h), size(h) + fp(h)):
  no specialisation of h larger than the bound can be optimal;
* a generalisation constraint with bound
  min(|E+| - fp(h), fn(h) + size(h), best_cost - cost(h) + |E+| + size(h)):
  no generalisation of h larger than the bound can be optimal,
  where best_cost is the cost of the current best hypothesis.

A constraint (kind, anchor a, bound k) prunes a candidate h2 when
size(h2) > k and h2 is related to a by whole-program theta-subsumption:
a <= h2 for the specialisation kind, h2 <= a for the generalisation kind.
Bounds at or above the search's maximum reachable program size prune
nothing and are dropped.

The generator asks the store about every candidate as it comes up:
``singleton_pruned(r)`` for a single rule r, ``violates`` for a recursive
program.  A specialisation-pruned singleton {r} does not prune a recursive
program that holds r: a base case adds proofs that r lacks alone.

Both kinds share one code path in the store.  Per rule of a candidate,
``_related`` gives the anchor rules related to it: those that subsume it
(specialisation) or those it subsumes (generalisation).  ``_hit`` then
walks the records of that kind reachable from those anchor rules and
tests each anchor against the candidate's related sets: every rule of the
candidate has a subsumer in the anchor (specialisation), or the anchor's
rules all lie in the union of the candidate's subsumees (generalisation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .logic import (
    Hypothesis,
    Rule,
    clause_subsumes,
    prog_size,
    rule_size,
)

__all__ = [
    "Kind",
    "NoisyConstraint",
    "derive",
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


def derive(h: Hypothesis, cov, best_cost: int, num_pos: int,
           max_size: int) -> list:
    """Constraints justified by testing ``h``, of coverage ``cov``, while
    the best hypothesis so far costs ``best_cost`` (at most ``num_pos``,
    the number of positive examples); ``max_size`` is the largest program
    size the generator can reach, used to drop vacuous bounds."""
    size = prog_size(h)
    cost = size + cov.fn + cov.fp
    out = []
    spec_bound = min(cov.tp, size + cov.fp)
    # The fp term is strict: it prunes generalisations of size greater than
    # |E+| - fp.  The non-strict variant would also prune size == |E+| - fp,
    # which the proof does not cover.
    gen_bound = min(num_pos - cov.fp, cov.fn + size,
                    best_cost - cost + num_pos + size)
    # A bound below 1 is clamped: there are no programs of size 1 (the
    # smallest rule has two literals), so pruning size > 1 equals size > 0.
    if spec_bound < max_size:
        out.append(NoisyConstraint(Kind.SPECIALISATION, h, max(1, spec_bound)))
    if gen_bound < max_size:
        out.append(NoisyConstraint(Kind.GENERALISATION, h, max(1, gen_bound)))
    return out


def _meta(rule: Rule) -> tuple:
    """The subsumption prefilter key: head key and body predicate set."""
    return ((rule.head.pred, rule.head.arity),
            frozenset((b.pred, b.arity) for b in rule.body))


class ConstraintStore:
    """Accumulates constraints and answers violation queries.

    Anchor rules are interned to ids.  A record (anchor ids, bound) is
    indexed under its kind and each of its anchor ids.  Per candidate rule
    and kind, ``_related`` caches the ids of the anchor rules related to
    the rule, extended lazily as new anchors arrive; ``_hit`` then walks
    the records reachable from those ids.  A tighter bound for a (kind,
    anchor) adds a record and leaves the old one in place: the old one
    prunes a subset of what the new one prunes."""

    def __init__(self):
        self._records: list = []  # (anchor ids, bound)
        # kind -> anchor rule id -> record positions
        self._index: dict = {kind: {} for kind in Kind}
        self._bound: dict = {}  # (kind, anchor) -> its tightest bound
        self._id_of: dict = {}
        self._rules: list = []
        self._rule_meta: list = []
        self._related_ids: dict = {}  # (rule, kind) -> [ids, anchors scanned]

    def __len__(self) -> int:
        return len(self._bound)

    def add(self, con: NoisyConstraint) -> bool:
        """Insert; keeps the strongest bound per (kind, anchor).  Returns
        False when an equal-or-stronger constraint is already present."""
        key = (con.kind, con.anchor)
        if self._bound.get(key, con.bound + 1) <= con.bound:
            return False
        self._bound[key] = con.bound
        ids = frozenset(self._intern(r) for r in con.anchor)
        for i in ids:
            self._index[con.kind].setdefault(i, []).append(len(self._records))
        self._records.append((ids, con.bound))
        return True

    def _intern(self, rule: Rule) -> int:
        i = self._id_of.get(rule)
        if i is None:
            i = self._id_of[rule] = len(self._rules)
            self._rules.append(rule)
            self._rule_meta.append(_meta(rule))
        return i

    def _related(self, rule: Rule, kind: Kind) -> set:
        """Ids of the anchor rules that theta-subsume ``rule`` (specialisation
        kind) or that ``rule`` theta-subsumes (generalisation kind)."""
        entry = self._related_ids.get((rule, kind))
        if entry is None:
            entry = self._related_ids[(rule, kind)] = [set(), 0]
        ids, upto = entry
        n = len(self._rules)
        if upto < n:
            head, preds = _meta(rule)
            spec = kind is Kind.SPECIALISATION
            for i in range(upto, n):
                anchor_head, anchor_preds = self._rule_meta[i]
                if anchor_head != head:
                    continue
                # the subsumer's body predicates are a subset of the
                # subsumee's; subsumption may merge literals, so no length
                # filter
                if spec:
                    related = (anchor_preds <= preds
                               and clause_subsumes(self._rules[i], rule))
                else:
                    related = (preds <= anchor_preds
                               and clause_subsumes(rule, self._rules[i]))
                if related:
                    ids.add(i)
            entry[1] = n
        return ids

    # ---- queries ----------------------------------------------------------

    def violates(self, h, size: int) -> bool:
        """True iff some stored constraint prunes ``h`` of program size
        ``size`` (whole-program relation check, sizes strictly greater
        than the bound)."""
        rules = tuple(h)
        if not rules:
            return False
        return self._spec_hit(rules, size) or self._gen_hit(rules, size)

    def singleton_pruned(self, rule: Rule) -> bool:
        """``violates((rule,), rule_size(rule))``: True iff some stored
        constraint prunes the singleton program {rule}."""
        # not through violates, so that learnbench's tracer, which wraps
        # both, counts each query once
        size = rule_size(rule)
        return self._spec_hit((rule,), size) or self._gen_hit((rule,), size)

    def _hit(self, kind: Kind, ids, size: int, prunes) -> bool:
        """True iff some record of ``kind`` indexed under one of ``ids``
        has a bound below ``size`` and ``prunes`` its anchor ids."""
        index = self._index[kind]
        seen = set()
        for i in ids:
            for pos in index.get(i, ()):
                if pos not in seen:
                    seen.add(pos)
                    anchor_ids, bound = self._records[pos]
                    if bound < size and prunes(anchor_ids):
                        return True
        return False

    def _spec_hit(self, rules, size) -> bool:
        # anchor <= h: every rule of h is subsumed by some anchor rule
        subs = [self._related(r, Kind.SPECIALISATION) for r in rules]
        if not all(subs):
            return False
        return self._hit(Kind.SPECIALISATION, min(subs, key=len), size,
                         lambda anchor_ids: all(not s.isdisjoint(anchor_ids)
                                                for s in subs))

    def _gen_hit(self, rules, size) -> bool:
        # h <= anchor: every anchor rule is subsumed by some rule of h
        union = set().union(*(self._related(r, Kind.GENERALISATION) for r in rules))
        return self._hit(Kind.GENERALISATION, union, size, union.issuperset)
