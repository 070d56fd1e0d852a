"""Exact selection of a minimum-cost union of promising rules.

The pool holds tested rules that cover at least one positive example and do
not call their own head; the generator yields no non-recursive program of
more than one rule.  Background never defines a target (see ``search``), so
a rule that calls a target proves nothing alone and never enters the pool.
A union of pool rules is therefore not recursive, and its coverage is the
union of the rules' coverages, which is what lets the optimizer reason
about combinations without re-running the evaluator.

The objective over a selection S of rules is

    sum of size(r) for r in S
    + number of positive examples no selected rule covers
    + number of negative examples some selected rule covers

which mirrors a weighted MaxSAT encoding: a selection variable p_r with
soft clause (not p_r, weight size(r)), a coverage variable c_e per example
with soft clauses (c_e, weight 1) for positives and (not c_e, weight 1)
for negatives, hard clauses c_e -> OR p_r over coverers for positives and
p_r -> c_e for each negative covered by r.  ``solve`` optimizes the same
objective directly by depth-first branch and bound over the selection
variables with bitset coverage and an admissible lower bound, so the
returned cost is provably minimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .logic import Hypothesis, Rule, is_recursive, rule_size
from .evaluate import Coverage, ExampleSet, check_deadline

__all__ = [
    "PoolEntry",
    "PromisingPool",
    "CombineResult",
    "solve",
    "decode",
]


@dataclass(frozen=True)
class PoolEntry:
    rule: Rule
    cov: Coverage
    size: int


class PromisingPool:
    """Dominance-pruned promising rules, in arrival order.

    An entry is dominated when another entry covers at least the same
    positives, at most the same negatives, and is no larger.  Dominated
    entries never change the optimal combination cost, so a new rule is
    dropped when some entry dominates it (the first arrival is kept among
    equals), and the entries it dominates are evicted."""

    def __init__(self):
        self.entries: list = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, rule: Rule, cov: Coverage) -> bool:
        """Insert; returns False when rejected as dominated.
        Raises ValueError when the gate conditions fail (caller bug)."""
        if cov.tp == 0:
            raise ValueError("promising rules must cover a positive example")
        if is_recursive(frozenset((rule,))):
            raise ValueError("recursive rules cannot enter the pool")
        new = PoolEntry(rule, cov, rule_size(rule))
        if any(_dominates(e, new) for e in self.entries):
            return False
        # no entry equals the new one, so these are strictly dominated
        self.entries = [e for e in self.entries if not _dominates(new, e)]
        self.entries.append(new)
        return True


def _dominates(a: PoolEntry, b: PoolEntry) -> bool:
    """True when ``a`` is at least as good as ``b``: it covers every
    positive ``b`` covers, only negatives ``b`` covers, and is no larger."""
    return (a.cov.pos_mask | b.cov.pos_mask == a.cov.pos_mask
            and a.cov.neg_mask & b.cov.neg_mask == a.cov.neg_mask
            and a.size <= b.size)


@dataclass(frozen=True)
class CombineResult:
    selected: tuple  # of PoolEntry
    cost: int


def solve(pool: PromisingPool, examples: ExampleSet, ub: int,
          deadline: float = math.inf):
    """Minimum-cost selection from the pool, or None when every selection
    (including the empty one, whose cost is |E+|) costs more than ``ub``.
    Exact and deterministic.  The ``time.perf_counter()`` ``deadline`` is
    checked on the first node and then once every 1,024 nodes; passing it
    raises ``SearchTimeout``."""
    num_pos = examples.num_pos
    if ub < 0:
        return None
    # entries that cannot be in any selection of cost <= ub
    entries = [e for e in pool.entries if e.size + e.cov.fp <= ub]
    # deterministic branch order: most attractive first, ties in arrival
    # order (a stable sort of the pool's arrival-ordered entries)
    entries.sort(key=lambda e: (e.size + e.cov.fp - e.cov.tp, e.size))
    n = len(entries)
    suffix_pos = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_pos[i] = suffix_pos[i + 1] | entries[i].cov.pos_mask

    best_cost = ub + 1
    best_sel: tuple | None = None
    empty_cost = num_pos
    if empty_cost < best_cost:
        best_cost = empty_cost
        best_sel = ()

    sel: list = []
    nodes = 0

    def rec(start: int, pos: int, neg: int, ssum: int):
        nonlocal best_cost, best_sel, nodes
        if not nodes & 1023:
            check_deadline(deadline)
        nodes += 1
        cur = ssum + (num_pos - pos.bit_count()) + neg.bit_count()
        if cur < best_cost:
            best_cost = cur
            best_sel = tuple(sel)
        for j in range(start, n):
            e = entries[j]
            pos2 = pos | e.cov.pos_mask
            neg2 = neg | e.cov.neg_mask
            ssum2 = ssum + e.size
            lb = ssum2 + neg2.bit_count() + (
                num_pos - (pos2 | suffix_pos[j + 1]).bit_count())
            if lb >= best_cost:
                continue
            sel.append(e)
            rec(j + 1, pos2, neg2, ssum2)
            sel.pop()

    rec(0, 0, 0, 0)
    if best_sel is None or best_cost > ub:
        return None
    return CombineResult(best_sel, best_cost)


def decode(result: CombineResult) -> Hypothesis:
    """The program made of the selected rules."""
    return frozenset(e.rule for e in result.selected)
