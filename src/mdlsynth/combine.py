"""Exact selection of a minimum-cost union of promising programs.

The pool holds tested programs that cover at least one positive example and
are not recursive.  Every rule the generator builds has a target head, so
only for such programs does the coverage of a union equal the union of
coverages, which is what lets the optimizer reason about combinations
without re-running the evaluator.

The objective over a selection S is

    sum of size(h) for h in S
    + number of positive examples no selected program covers
    + number of negative examples some selected program covers

which mirrors a weighted MaxSAT encoding: a selection variable p_h with
soft clause (not p_h, weight size(h)), a coverage variable c_e per example
with soft clauses (c_e, weight 1) for positives and (not c_e, weight 1)
for negatives, hard clauses c_e -> OR p_h over coverers for positives and
p_h -> c_e for each negative covered by h.  ``to_wcnf`` dumps that
encoding; ``solve`` optimizes the same objective directly by depth-first
branch and bound over the selection variables with bitset coverage and an
admissible lower bound, so the returned cost is provably minimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .logic import Hypothesis, is_recursive, prog_size
from .evaluate import Coverage, ExampleSet, check_deadline

__all__ = [
    "PoolEntry",
    "PromisingPool",
    "CombineInstance",
    "CombineResult",
    "build_instance",
    "solve",
    "decode",
]


@dataclass(frozen=True)
class PoolEntry:
    h: Hypothesis
    cov: Coverage
    size: int
    seq: int  # insertion order, for deterministic solving


class PromisingPool:
    """Deduplicated, dominance-pruned promising programs.

    An entry is dominated when another entry covers at least the same
    positives, at most the same negatives, and is no larger, with one of
    the three strict.  Dominated entries never change the optimal
    combination cost, so they are dropped on arrival and evicted when a
    new entry dominates them."""

    def __init__(self):
        self.entries: list = []
        self._keys: set = set()
        self._seq = 0

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, h: Hypothesis, cov: Coverage) -> bool:
        """Insert; returns False when rejected as duplicate or dominated.
        Raises ValueError when the gate conditions fail (caller bug)."""
        if cov.tp == 0:
            raise ValueError("promising programs must cover a positive example")
        if is_recursive(h):
            raise ValueError("recursive programs cannot enter the pool")
        size = prog_size(h)
        key = (cov.pos_mask, cov.neg_mask, size)
        if key in self._keys:
            return False
        for e in self.entries:
            if _dominates(e.cov, e.size, cov, size):
                return False
        survivors = []
        for e in self.entries:
            if _dominates(cov, size, e.cov, e.size):
                self._keys.discard((e.cov.pos_mask, e.cov.neg_mask, e.size))
            else:
                survivors.append(e)
        self.entries = survivors
        self.entries.append(PoolEntry(h, cov, size, self._seq))
        self._seq += 1
        self._keys.add(key)
        return True


def _dominates(a_cov: Coverage, a_size: int, b_cov: Coverage, b_size: int) -> bool:
    """True when (a_cov, a_size) is at least as good as (b_cov, b_size) and
    strictly better somewhere."""
    if not (a_cov.pos_mask | b_cov.pos_mask == a_cov.pos_mask
            and a_cov.neg_mask & b_cov.neg_mask == a_cov.neg_mask
            and a_size <= b_size):
        return False
    return (a_cov.pos_mask != b_cov.pos_mask or a_cov.neg_mask != b_cov.neg_mask
            or a_size < b_size)


@dataclass(frozen=True)
class CombineResult:
    selected: tuple  # of PoolEntry
    cost: int


@dataclass(frozen=True)
class CombineInstance:
    entries: tuple
    num_pos: int
    num_neg: int

    def to_wcnf(self) -> str:
        """Weighted-CNF text form: hard clauses carry the top weight.
        Variables 1..n are selections p_h, then positives' c_e, then
        negatives' c_e."""
        n = len(self.entries)
        pvar = lambda i: i + 1
        cpos = lambda e: n + e + 1
        cneg = lambda e: n + self.num_pos + e + 1
        soft = []
        hard = []
        for i, entry in enumerate(self.entries):
            soft.append((entry.size, (-pvar(i),)))
        for e in range(self.num_pos):
            soft.append((1, (cpos(e),)))
            coverers = [pvar(i) for i, en in enumerate(self.entries)
                        if (en.cov.pos_mask >> e) & 1]
            hard.append((-cpos(e), *coverers))
        for e in range(self.num_neg):
            soft.append((1, (-cneg(e),)))
            for i, en in enumerate(self.entries):
                if (en.cov.neg_mask >> e) & 1:
                    hard.append((-pvar(i), cneg(e)))
        top = sum(w for w, _ in soft) + 1
        nvars = n + self.num_pos + self.num_neg
        lines = [f"c mdlsynth combine instance: {n} programs, "
                 f"{self.num_pos} pos, {self.num_neg} neg",
                 f"p wcnf {nvars} {len(hard) + len(soft)} {top}"]
        for clause in hard:
            lines.append(" ".join(map(str, (top, *clause, 0))))
        for w, clause in soft:
            lines.append(" ".join(map(str, (w, *clause, 0))))
        return "\n".join(lines) + "\n"


def build_instance(pool: PromisingPool, examples: ExampleSet) -> CombineInstance:
    return CombineInstance(tuple(pool.entries), examples.num_pos, examples.num_neg)


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
    # deterministic branch order: most attractive first
    entries.sort(key=lambda e: (e.size + e.cov.fp - e.cov.tp, e.size, e.seq))
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
    """Union of the selected programs' rules (shared rules merge, so the
    union can be smaller than the sum of sizes; callers re-test it)."""
    out: frozenset = frozenset()
    for e in result.selected:
        out |= e.h
    return out
