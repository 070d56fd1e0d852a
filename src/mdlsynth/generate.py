"""Candidate enumeration: a declarative bias induces a finite rule space,
and programs are yielded in strata of exactly the requested total size.

A stratum of size S holds two kinds of program.  First come the usable
rules of size S that call no target, each alone, in pool order.  Then,
only when some body literal can call a target, come the recursive programs
of 2..max_rules distinct usable rules whose sizes sum to S (partitions by
number of parts, then part by part), at least one of which calls no
target.  A separable program, one where no rule calls another, is never
yielded: its coverage is the union of its rules' coverages, so the search
builds every such union from the tested single rules with
``combine.solve``, which is exact.  Within a rule pool the order puts rules
that use every head variable, more distinct variables, and more distinct
predicates first; the order is deterministic for a fixed bias.

A program in which every rule calls a target is skipped, alone or as a
pick, before any store query.  The background neither defines nor calls
a target (``search.learn`` rejects background with a fact, rule or built-in
for a target, or a rule that calls one), so such a program's least model
holds no target atom: it proves nothing, and its cost, its size plus
the number of positive examples, is above the empty program's.  Skipping
it therefore never changes the optimum.  Whether a rule calls a target is
computed once per rule of a usable pool, so the skip leaves every other
candidate in its place in the order.

A rule is usable unless it calls a target with an unbound argument.  The
bound variables are those of ``evaluate.mode_closure`` over the body
literals that call no target: it starts from the head's variables, a
built-in with input modes (see ``evaluate.BUILTINS``) runs once the
``+`` positions of one of its modes are bound, and any other predicate
always runs.  A rule with a target literal is usable only when every
variable of every target literal is bound; any other rule is usable.  So
``evens(A):- evens(B),tail(C,A),tail(C,B).`` is never yielded, though it
stays in its pool, which is the parent set of the next size.  This narrows
the bias space.  The rules it drops call their target with a free
argument, and SLD resolution of such a call often recurses to the depth
bound on every example.  A rule with a built-in that never runs, such as
``dropk(A,B,C):- tail(D,C).``, stays usable: it proves nothing, and
``Evaluator`` decides that without a proof.

Constraint filtering happens at yield time, with one store query per
candidate: ``singleton_pruned`` for a single rule, ``violates`` for a
recursive program.  A specialisation-pruned singleton does not prune a
recursive program that holds its rule: a base case adds proofs that no
constituent has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, permutations, product

from .constrain import ConstraintStore
from .evaluate import check_deadline, mode_closure
from .logic import Literal, Rule, Var, _literal_sort_key, format_term, is_separable
# bound here so that a profiler can patch generate.canonicalize; the pool
# build computes canonical forms on template indices instead
from .logic import canonicalize  # noqa: F401
from .parsing import ParseError, parse_directives

__all__ = ["Bias", "BiasError", "GeneratorState", "enumerate_rules", "usable"]


class BiasError(ValueError):
    pass


# each bias directive: how it is written, and the type of each argument
_DIRECTIVES = {
    "head_pred": ("head_pred(Name,Arity) with an integer Arity", (str, int)),
    "body_pred": ("body_pred(Name,Arity) with an integer Arity", (str, int)),
    "type": ("type(Name,(Type,...))", (str, (str, tuple))),
    "constant": ("constant(Type,Value)", (str, object)),
    "max_vars": ("max_vars(N) with an integer N", (int,)),
    "max_body": ("max_body(N) with an integer N", (int,)),
    "max_rules": ("max_rules(N) with an integer N", (int,)),
    "enable_recursion": ("enable_recursion with no arguments", ()),
}


@dataclass
class Bias:
    targets: list
    body_preds: list
    max_vars: int = 5
    max_body: int = 5
    max_rules: int = 2
    allow_recursion: bool = False
    constants: dict = field(default_factory=dict)  # type label -> list of values
    arg_types: dict = field(default_factory=dict)  # (name, arity) -> tuple of labels

    def __post_init__(self):
        if not self.targets:
            raise BiasError("bias declares no head predicate")
        declared = [*self.targets, *self.body_preds]
        for name, arity in declared:
            if arity < 0:
                raise BiasError(f"predicate {name} has negative arity {arity}")
        for (name, arity), types in self.arg_types.items():
            if (name, arity) not in declared or len(types) != arity:
                raise BiasError(f"type of {name} with {len(types)} arguments matches "
                                f"no head_pred or body_pred")
        if self.max_body < 1 or self.max_rules < 1:
            raise BiasError("max_body and max_rules must be at least 1")
        if self.max_vars < max(a for _, a in self.targets):
            raise BiasError("max_vars is smaller than the target arity")

    @property
    def max_rule_size(self) -> int:
        return 1 + self.max_body

    @property
    def max_program_size(self) -> int:
        return self.max_rules * self.max_rule_size

    @classmethod
    def from_directives(cls, directives) -> "Bias":
        targets, body_preds = [], []
        kwargs: dict = {}
        constants: dict = {}
        arg_types: dict = {}

        # a repeated declaration adds nothing, and a type or a setting that
        # contradicts an earlier one is an error
        def add(seen, value):
            if value not in seen:
                seen.append(value)

        def setting(table, key, value):
            if table.setdefault(key, value) != value:
                raise BiasError(f"bias directive {Literal(name, args)!r} contradicts "
                                f"an earlier {name} directive")

        for name, args in directives:
            if name not in _DIRECTIVES:
                raise BiasError(f"unknown bias directive {name!r}")
            usage, kinds = _DIRECTIVES[name]
            if len(args) != len(kinds) or not all(map(isinstance, args, kinds)):
                raise BiasError(
                    f"bad bias directive {Literal(name, args)!r}: expected {usage}")
            if name == "head_pred":
                add(targets, args)
            elif name == "body_pred":
                add(body_preds, args)
            elif name == "constant":
                add(constants.setdefault(args[0], []), args[1])
            elif name == "type":
                pred, types = args
                types = (types,) if isinstance(types, str) else tuple(types)
                setting(arg_types, (pred, len(types)), types)
            elif name == "enable_recursion":
                setting(kwargs, "allow_recursion", True)
            else:
                setting(kwargs, name, args[0])
        return cls(targets, body_preds, constants=constants,
                   arg_types=arg_types, **kwargs)

    @classmethod
    def from_source(cls, text: str) -> "Bias":
        try:
            return cls.from_directives(parse_directives(text))
        except ParseError as e:
            raise BiasError(str(e)) from e

    def to_source(self) -> str:
        lines = [f"head_pred({n},{a})." for n, a in self.targets]
        lines += [f"body_pred({n},{a})." for n, a in self.body_preds]
        for (n, _a), types in sorted(self.arg_types.items()):
            lines.append(f"type({n},({','.join(map(format_term, types))})).")
        for ty, vals in sorted(self.constants.items()):
            lines += [f"constant({ty},{format_term(v)})." for v in vals]
        lines.append(f"max_vars({self.max_vars}).")
        lines.append(f"max_body({self.max_body}).")
        lines.append(f"max_rules({self.max_rules}).")
        if self.allow_recursion:
            lines.append("enable_recursion.")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rule enumeration
# ---------------------------------------------------------------------------

def literal_templates(bias: Bias) -> list:
    """Body literal candidates over variables 0..max_vars-1; constants
    appear only at positions whose declared type has declared constants."""
    vars_ = [Var(i) for i in range(bias.max_vars)]
    preds = list(bias.body_preds)
    if bias.allow_recursion:
        preds += [t for t in bias.targets if t not in preds]
    out = []
    for name, arity in preds:
        types = bias.arg_types.get((name, arity), (None,) * arity)
        per_pos = []
        for ty in types:
            cands: list = list(vars_)
            if ty is not None:
                cands += list(bias.constants.get(ty, ()))
            per_pos.append(cands)
        for args in product(*per_pos):
            if not any(isinstance(a, Var) for a in args):
                continue
            out.append(Literal(name, tuple(args)))
    return out


def _var_types(bias: Bias, lits):
    """Declared type of each variable index of ``lits``, or None when one
    variable is declared with two types."""
    seen: dict = {}
    for lit in lits:
        types = bias.arg_types.get((lit.pred, len(lit.args)))
        if types is None:
            continue
        for a, ty in zip(lit.args, types):
            if isinstance(a, Var) and seen.setdefault(a.idx, ty) != ty:
                return None
    return seen


def _extends(lit: Literal, n: int) -> bool:
    """True iff ``lit`` shares a variable with a rule over variables
    0..n-1 and numbers its other variables n, n+1, ... in order of first
    appearance."""
    nxt = n
    shared = False
    for a in lit.args:
        if isinstance(a, Var):
            if a.idx < n:
                shared = True
            elif a.idx == nxt:
                nxt += 1
            elif a.idx > nxt:
                return False
    return shared


def _num_vars(rule: Rule) -> int:
    return 1 + max((a.idx for lit in (rule.head, *rule.body)
                    for a in lit.args if isinstance(a, Var)), default=-1)


def _pool_order_key(keydata, canon):
    """Order key of the canonical rule ``canon``, a head number followed by
    its body's template indices in increasing order, from the per-head and
    per-template data ``keydata`` built by ``enumerate_rules``.  It puts
    likely-useful rules first: no variable occurring just once, every head
    variable used in the body, many distinct predicates, and then the
    rule's text; purely an iteration order, the stratum content is
    unaffected."""
    heads, masks, texts = keydata
    once, head_text = heads[canon[0]]
    head_vars = once
    more = used = preds = 0
    body = canon[1:]
    for t in body:
        vars_, twice, pred = masks[t]
        more |= (once & vars_) | twice
        once |= vars_
        used |= vars_
        preds |= pred
    return (
        (once & ~more).bit_count(),
        0 if head_vars & ~used == 0 else 1,
        -preds.bit_count(),
        head_text + ",".join([texts[t] for t in body]) + ".",
    )


def enumerate_rules(bias: Bias, rule_size: int, parents=None,
                    deadline: float = math.inf) -> list:
    """Every canonical rule of exactly ``rule_size`` literals admitted by the
    bias: target head with distinct fresh variables, head-connected body
    without duplicate literals, at most max_vars variables, type-consistent,
    and no body literal equal to the head.  Deterministically ordered.

    ``parents`` is the pool one size smaller (built here when not given);
    the ``time.perf_counter()`` ``deadline`` is checked once per parent
    rule, and every 1,024 rules while their order keys are computed.

    Each rule is a parent extended by one template literal, which is
    complete: in a head-connected body, a leaf of a breadth-first tree
    from the head is a literal whose removal leaves the body connected,
    and removing a literal keeps every other condition (no duplicate, no
    head literal, types, variable count).  So every rule of this size is,
    up to renaming, a canonical parent plus one literal.  The parent's
    variables are 0..n-1, and the literal's variables that the parent lacks
    can be renamed freely, so only the renaming that numbers them n, n+1,
    ... in order of first appearance is tried: the others would give the
    same rules again, and this one uses an index below max_vars exactly
    when the rule has at most max_vars variables.

    A body arises from every pair whose parent is the body less one
    literal, exactly as it stands in the pool, and whose literal passes
    the numbering rule above.  Only the pair with the highest template
    index of the literal canonicalizes it, so no body is canonicalized
    twice and no set of raw bodies is kept.

    Bodies are sets of template indices, and the templates are numbered in
    ``logic._literal_sort_key`` order.  The canonical form of a rule with
    head arity a and n variables is the least sorted index tuple over the
    (n - a)! permutations of its non-head variables a..n-1, each applied
    through a table of renamed template indices built once per (a, n).
    It equals ``logic.canonicalize``: that picks, over all body orders, the
    least sequence of literal keys, numbering fresh variables by first
    appearance; a literal's key can only grow as the renaming extends, so
    the least sequence is non-decreasing, and it is therefore the least
    sorted key tuple over all renamings.  (n - a)! is at most 6 for every
    bundled bias.  The order key (see ``_pool_order_key``) is built from
    per-template data too, and a ``Rule`` is made only for each rule kept,
    after the order is fixed."""
    k = rule_size - 1
    if k < 1 or k > bias.max_body:
        return []
    if k == 1:
        parents = [Rule(Literal(name, tuple(Var(i) for i in range(arity))),
                        frozenset())
                   for name, arity in bias.targets]
    elif parents is None:
        parents = enumerate_rules(bias, rule_size - 1, None, deadline)
    lits, lit_types = [], []
    for lit in sorted(literal_templates(bias), key=_literal_sort_key):
        types = _var_types(bias, (lit,))
        if types is not None:
            lits.append(lit)
            lit_types.append(tuple(types.items()))
    index = {lit: i for i, lit in enumerate(lits)}
    fits = [{n for n in range(bias.max_vars + 1) if _extends(lit, n)}
            for lit in lits]
    by_n = {n: [i for i in range(len(lits)) if n in fits[i]]
            for n in range(bias.max_vars + 1)}
    tops = [1 + max(a.idx for a in lit.args if isinstance(a, Var))
            for lit in lits]
    renamings: dict = {}

    def renaming(arity: int, n: int):
        # per permutation of the variables arity..n-1, each template's
        # renamed index; None when no two variables can swap
        if n - arity < 2:
            return None
        tables = renamings.get((arity, n))
        if tables is None:
            tables = renamings[(arity, n)] = []
            for image in permutations(range(arity, n)):
                to = dict(zip(range(arity, n), image))
                tables.append([index[Literal(lit.pred, tuple(
                    Var(to.get(a.idx, a.idx)) if isinstance(a, Var) else a
                    for a in lit.args))] for lit in lits])
        return tables

    heads: dict = {}  # head literal -> its number in canonical tuples
    # head -> body as template indices -> variable count, for each parent
    known: dict = {}
    for p in parents:
        heads.setdefault(p.head, len(heads))
        ids = frozenset(index[m] for m in p.body)
        known.setdefault(p.head, {})[ids] = _num_vars(p)
    out = []
    seen = set()
    for parent in parents:
        check_deadline(deadline)
        head, body = parent.head, parent.body
        h = heads[head]
        arity = len(head.args)
        head_id = index.get(head)
        siblings = known[head]
        ids = frozenset(index[m] for m in body)
        n = siblings[ids]
        types = _var_types(bias, (head, *body))
        for i in by_n[n]:
            if i in ids or i == head_id:
                continue
            if any(types.get(v, ty) != ty for v, ty in lit_types[i]):
                continue
            new_ids = ids | {i}
            if any(j > i and siblings.get(new_ids - {j}, 0) in fits[j]
                   for j in ids):
                continue
            tables = renaming(arity, max(n, tops[i]))
            if tables is None:
                canon = (h, *sorted(new_ids))
            else:
                canon = (h, *min(sorted([t[j] for j in new_ids])
                                 for t in tables))
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
    del seen, known, renamings
    masks = []
    pred_bits: dict = {}
    for lit in lits:
        vars_ = twice = 0
        for a in lit.args:
            if isinstance(a, Var):
                bit = 1 << a.idx
                twice |= vars_ & bit
                vars_ |= bit
        pred = 1 << pred_bits.setdefault(lit.pred, len(pred_bits))
        masks.append((vars_, twice, pred))
    head_lits = list(heads)
    keydata = ([((1 << len(hd.args)) - 1, f"{hd!r}:- ") for hd in head_lits],
               masks, [repr(lit) for lit in lits])
    keyed = count()

    def key(canon):
        # nearly all of the sort's time goes to its keys: seconds for a
        # pool of millions of rules
        if next(keyed) % 1024 == 0:
            check_deadline(deadline)
        return _pool_order_key(keydata, canon)

    out.sort(key=key)
    # each index tuple is freed as its rule replaces it; the pool shares
    # the template literals, not copies
    for x, canon in enumerate(out):
        out[x] = Rule(head_lits[canon[0]],
                      frozenset([lits[t] for t in canon[1:]]))
    return out


def _index_combos(n: int, m: int, s: int, start: int = 0):
    """Strictly increasing m-tuples from range(start, n) with index sum s,
    in lexicographic order; m >= 1."""
    if m == 1:
        if start <= s < n:
            yield (s,)
        return
    hi = (m - 1) * (2 * n - m) // 2  # the largest sum of m-1 indices below n
    for i in range(max(start, s - hi), n - m + 1):
        if s - i < (m - 1) * (i + 1) + (m - 1) * (m - 2) // 2:
            break
        for rest in _index_combos(n, m - 1, s - i, i + 1):
            yield (i, *rest)


def _diagonal_picks(groups):
    """Index selections across pools in increasing order of total index sum,
    so well-ranked rules pair up early.  ``groups`` is a list of (pool
    length, multiplicity); each selection is one strictly-increasing index
    tuple per group.  Exhaustive: every selection appears exactly once."""
    spans = [(m * (m - 1) // 2, m * (2 * n - m - 1) // 2) for n, m in groups]
    tails = [(0, 0)]  # index-sum span of groups[gi:], built from the end
    for lo, hi in reversed(spans):
        tails.append((tails[-1][0] + lo, tails[-1][1] + hi))
    tails.reverse()

    def rec(gi: int, s: int):
        if gi == len(groups):
            yield ()
            return
        (n, m), (g_lo, g_hi) = groups[gi], spans[gi]
        tail_lo, tail_hi = tails[gi + 1]
        for sg in range(max(g_lo, s - tail_hi), min(g_hi, s - tail_lo) + 1):
            for combo in _index_combos(n, m, sg):
                for rest in rec(gi + 1, s - sg):
                    yield (combo, *rest)

    for s in range(tails[0][0], tails[0][1] + 1):
        yield from rec(0, s)


def _partitions(total: int, max_rules: int, min_size: int, max_size: int):
    """Rule-size partitions of ``total`` into two parts or more, as
    non-decreasing tuples, by number of parts and then part by part."""
    res = []

    def rec(remaining, parts, lo):
        if remaining == 0:
            if len(parts) > 1:
                res.append(tuple(parts))
            return
        if len(parts) == max_rules:
            return
        for s in range(lo, min(remaining, max_size) + 1):
            if remaining - s != 0 and remaining - s < s:
                continue
            parts.append(s)
            rec(remaining - s, parts, s)
            parts.pop()

    rec(total, [], min_size)
    res.sort(key=lambda p: (len(p), p))
    return res


def usable(rule: Rule, targets, modes) -> bool:
    """True iff every variable of every target literal in the body of
    ``rule`` is bound by the ``evaluate.mode_closure`` of the other body
    literals (see the module docstring).  ``modes`` maps a predicate key to
    its modes, as ``BackgroundKnowledge.modes`` reads them off
    ``evaluate.BUILTINS``; a predicate without modes binds all of its
    arguments."""
    calls = [b for b in rule.body if (b.pred, len(b.args)) in targets]
    if not calls:
        return True
    bound, _ = mode_closure(
        rule.head, [b for b in rule.body if b not in calls], modes)
    return all(a in bound for b in calls for a in b.args if isinstance(a, Var))


class GeneratorState:
    """Iterates the program space stratum by stratum, skipping hypotheses
    pruned by the constraint store at yield time.  The store may grow
    between yields; each candidate is checked against the store as it
    stands when the candidate comes up.

    ``deadline`` is a ``time.perf_counter()`` value, checked once per
    parent rule of a pool build, every 1,024 rules while that pool is
    ordered and filtered for usable rules, and once per candidate.
    ``candidates_skipped`` counts the candidates in which every rule calls
    a target; they count in ``candidates_seen`` and ``candidates_pruned``
    too.  ``modes`` holds the built-ins' input modes, as given by
    ``BackgroundKnowledge.modes``; by default every predicate binds all of
    its arguments."""

    def __init__(self, bias: Bias, store: ConstraintStore,
                 deadline: float = math.inf, modes=None):
        self.bias = bias
        self.store = store
        self.deadline = deadline
        self.modes = modes or {}
        templates = set(bias.body_preds)
        if bias.allow_recursion:
            templates.update(bias.targets)
        self._calls = set(bias.targets) & templates
        self._pools: dict = {}
        self._usable: dict = {}
        self._calls_target: dict = {}  # size -> a flag per usable rule
        self._iter = None
        self._iter_size = None
        self.candidates_seen = 0
        self.candidates_pruned = 0
        self.candidates_skipped = 0  # every rule calls a target

    def pool(self, rule_sz: int):
        pool = self._pools.get(rule_sz)
        if pool is None:
            parents = self.pool(rule_sz - 1) if rule_sz > 2 else None
            pool = enumerate_rules(self.bias, rule_sz, parents, self.deadline)
            self._pools[rule_sz] = pool
        return pool

    def usable_pool(self, rule_sz: int):
        """The usable rules of ``pool(rule_sz)``, in pool order: the pool
        itself when no body literal can call a target.  The filter checks
        the deadline every 1,024 rules."""
        out = self._usable.get(rule_sz)
        if out is None:
            out = pool = self.pool(rule_sz)
            flags = bytearray()
            if self._calls:
                calls = self._calls
                out = []
                for i, rule in enumerate(pool):
                    if i % 1024 == 0:
                        check_deadline(self.deadline)
                    if usable(rule, calls, self.modes):
                        out.append(rule)
                        flags.append(any((b.pred, len(b.args)) in calls
                                         for b in rule.body))
            self._usable[rule_sz] = out
            self._calls_target[rule_sz] = flags
        return out

    def next_program(self, size: int):
        """Next unseen consistent hypothesis of total size exactly ``size``,
        or None when the stratum is exhausted."""
        if self._iter_size != size:
            self._iter = self._stratum(size)
            self._iter_size = size
        return next(self._iter, None)

    def _skip(self, h) -> None:
        """Counts ``h``, dropped before any store query because every rule
        calls a target; a skip counts as pruned too."""
        self.candidates_skipped += 1
        self.candidates_pruned += 1

    def _stratum(self, size: int):
        bias = self.bias
        singles = self.usable_pool(size)
        calls_target = self._calls_target[size]  # empty without recursion
        for i, rule in enumerate(singles):
            self.candidates_seen += 1
            check_deadline(self.deadline)
            if calls_target and calls_target[i]:
                self._skip(frozenset((rule,)))
            elif self.store.singleton_pruned(rule):
                self.candidates_pruned += 1
            else:
                yield frozenset((rule,))
        if not self._calls:
            return
        for parts in _partitions(size, bias.max_rules, 2, bias.max_rule_size):
            groups: list = []
            ok = True
            last = None
            for s in parts:
                if last is not None and s == last[0]:
                    last[1] += 1
                else:
                    last = [s, 1]
                    groups.append(last)
            pools = []
            for s, mult in groups:
                p = self.usable_pool(s)
                if len(p) < mult:
                    ok = False
                    break
                pools.append((p, mult, self._calls_target[s]))
            if not ok:
                continue
            for pick in _diagonal_picks([(len(p), m) for p, m, _ in pools]):
                self.candidates_seen += 1
                check_deadline(self.deadline)
                rules = []
                base = False
                for (pool, _, flags), idxs in zip(pools, pick):
                    for i in idxs:
                        rules.append(pool[i])
                        base = base or not flags[i]
                h = frozenset(rules)
                if not base:
                    self._skip(h)
                elif is_separable(h) or self.store.violates(rules, size):
                    self.candidates_pruned += 1
                else:
                    yield h
