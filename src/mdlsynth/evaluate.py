"""Entailment testing: does background knowledge plus a hypothesis derive an
example?

The decision procedure is top-down SLD-style resolution with:

* one resolution step, ``_resolve``, that tries the facts and then the
  clauses of a goal and solves the remaining goals under each resolvent,
* destructive variable bindings undone through a trail,
* memoization of ground calls (successes globally, failures per remaining
  depth): a ground goal is resolved on its own, with nothing left to solve,
  and only then is its continuation run,
* one proof per example, bounded in depth and charged against a
  per-example inference-step budget (exhaustion counts as non-coverage and
  is tallied, never raised to the caller),
* the list and arithmetic built-ins of ``BUILTINS``, each run in the first
  of its modes whose inputs are bound.  A built-in with no such mode is
  deferred until other goals have bound more variables; if no goal can
  run, the branch fails,
* a wall-clock deadline (none by default), read before each example is
  proven and every 4,096 steps of a proof by the same countdown that
  enforces the step budget, so a passed deadline stops a test however
  short its proofs are; passing it raises ``SearchTimeout`` and caches no
  partial coverage.

``BUILTINS`` declares each built-in once, by its modes: a ``+`` position
must be bound and a ``-`` position may be free, and each mode has a
function that gives the one ground solution, or None, once its ``+``
positions are bound; every built-in is a function of its inputs.
``_solve`` runs a built-in exactly when one of its modes has them bound,
and binds the solution's terms to the call's free arguments in place.

How each call runs is fixed when a program is compiled (``_dispatch``).
A predicate that the background or the hypothesis defines is resolved
against facts and clauses, and shadows a built-in of the same name and
arity.  A call to a built-in holds the built-in's row of ``_RUN``, which
gives the mode to run for each bitmask of bound arguments.  Any other
predicate resolves against nothing, so it fails.  The example goal is
dispatched the same way.  The body goals of a resolvent share one
environment of terms, which their compiled arguments index, so a goal's
arguments are looked up only once it is selected.  A body is ordered when
it is compiled: each call to the clause's own head comes after every other
literal, so the literals that bind its inputs run first and the call is
ground, and memoized, whenever they can ground it; the other literals go
most connected to the bound variables first, built-ins first among equals.
``BackgroundKnowledge.modes`` gives the modes of the built-ins that the
background does not shadow.  ``mode_closure`` runs a rule's body under
these modes, starting with the head variables bound: it gives the
variables that can ever be bound and the literals that can never run.  The
generator reads it to drop recursive rules that would call themselves with
an unbound argument, and ``Evaluator`` to skip proofs that cannot succeed.
So the generator and the tester read the same fact about when a literal
can run.

One loop, ``_cover``, proves examples.  Each rule's coverage is computed
alone and cached, and a program's coverage starts as the union of its rules'
coverages.  That is exact for a non-recursive program, because no rule can
feed another (no head predicate occurs in any body, and background clauses
never call hypothesis heads).  For a recursive program of several rules it
is a sound lower bound, and only the examples it leaves are proven against
the whole program.

Some coverages are decided with no proof, when the background neither
defines, runs nor calls a head predicate of the program.  A rule with a literal
that never runs can never complete, since the deferral rule never selects
that literal; it is dropped.  If every rule left calls a head predicate, no
head atom has a proof, so a lone recursive rule covers nothing, and neither
does a program whose only base rule never runs.  If no rule left calls
one, what remains is not recursive and the union of the rules' own
coverages is exact.  ``proofs_skipped`` counts these decisions.  The
coverages are the ones the proofs would give, so the search is unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .logic import Hypothesis, Literal, Rule, Var, head_preds, is_recursive, prog_size

__all__ = [
    "EngineError",
    "EvalBudget",
    "ExampleSet",
    "Coverage",
    "BackgroundKnowledge",
    "Evaluator",
    "mdl_cost",
    "BUILTINS",
    "mode_closure",
    "SearchTimeout",
    "check_deadline",
]


class EngineError(ValueError):
    """A malformed query: unknown predicate or wrong arity."""


class SearchTimeout(Exception):
    """The search's wall-clock deadline passed."""


def check_deadline(deadline: float) -> None:
    """Raises ``SearchTimeout`` once ``time.perf_counter()`` has passed
    ``deadline``.  Every stage of the search takes its deadline in this
    form; ``math.inf`` means none."""
    if time.perf_counter() > deadline:
        raise SearchTimeout


@dataclass(frozen=True)
class EvalBudget:
    """The bounds on the one proof of an example: ``max_depth`` nested
    clause resolutions, and ``max_steps`` resolution steps (one per selected
    goal), exactly the number of steps that one example may be charged."""

    max_depth: int = 30
    max_steps: int = 1_000_000

    def __post_init__(self):
        # with no depth or no step no proof can finish, and every example
        # would count as an exhaustion instead of as a coverage
        for name in ("max_depth", "max_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True)
class ExampleSet:
    pos: tuple
    neg: tuple

    def __post_init__(self):
        overlap = set(self.pos) & set(self.neg)
        if overlap:
            raise ValueError(f"examples appear with both labels: {sorted(map(repr, overlap))[:3]}")

    @property
    def num_pos(self) -> int:
        return len(self.pos)

    @property
    def num_neg(self) -> int:
        return len(self.neg)

    def __len__(self) -> int:
        return len(self.pos) + len(self.neg)


@dataclass(frozen=True)
class Coverage:
    """Bitsets over example ids; bit i set means example i is entailed."""

    pos_mask: int
    neg_mask: int
    num_pos: int
    num_neg: int

    @property
    def tp(self) -> int:
        return self.pos_mask.bit_count()

    @property
    def fn(self) -> int:
        return self.num_pos - self.tp

    @property
    def fp(self) -> int:
        return self.neg_mask.bit_count()

    @property
    def tn(self) -> int:
        return self.num_neg - self.fp


def mdl_cost(h: Hypothesis, cov: Coverage) -> int:
    """size(h) + fn + fp: the description length of h plus its exceptions."""
    return prog_size(h) + cov.fn + cov.fp


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


class _FVar:
    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None

    def __repr__(self):  # pragma: no cover - debug aid
        return f"_{id(self) & 0xFFFF:x}"


# Each built-in's modes, in the order they are tried.  In a mode a "+"
# position must be bound and a "-" position may be free.  A mode's function
# runs once its "+" positions are bound: it takes the walked arguments and
# returns the one ground solution tuple to bind against the call, or None
# for failure.  One tuple is all a mode can return, since every built-in
# is a function of its inputs.
BUILTINS = {
    ("head", 2): {"+-": lambda l, x: (l, l[0]) if isinstance(l, tuple) and l else None},
    ("tail", 2): {"+-": lambda l, x: (l, l[1:]) if isinstance(l, tuple) and l else None},
    ("empty", 1): {"-": lambda l: ((),)},
    ("empty_out", 1): {"-": lambda l: ((),)},
    ("even", 1): {"+": lambda x: (x,) if isinstance(x, int) and x % 2 == 0 else None},
    ("odd", 1): {"+": lambda x: (x,) if isinstance(x, int) and x % 2 == 1 else None},
    ("one", 1): {"-": lambda x: (1,)},
    ("zero", 1): {"-": lambda x: (0,)},
    ("decrement", 2): {"+-": lambda a, b: (a, a - 1) if isinstance(a, int) else None,
                       "-+": lambda a, b: (b + 1, b) if isinstance(b, int) else None},
    ("succ", 2): {"+-": lambda a, b: (a, a + 1) if isinstance(a, int) else None,
                  "-+": lambda a, b: (b - 1, b) if isinstance(b, int) else None},
    ("geq", 2): {"++": lambda a, b: (a, b) if isinstance(a, int) and isinstance(b, int)
                 and a >= b else None},
    # append(Front, Elem, Out): Out is Front with Elem appended
    ("append", 3): {"++-": lambda f, e, o: (f, e, f + (e,)) if isinstance(f, tuple) else None,
                    "--+": lambda f, e, o: (o[:-1], o[-1], o) if isinstance(o, tuple) and o
                    else None},
}

# Each built-in's row: indexed by the bitmask of the bound argument
# positions (bit i for argument i), the function of the first mode whose
# "+" positions are bound, or None when there is none.  A compiled call to
# a built-in holds its row, so ``_solve`` picks a mode with one index.
_RUN = {key: tuple(next((fn for mode, fn in modes.items()
                         if all(m == "-" or mask >> i & 1 for i, m in enumerate(mode))),
                        None)
                   for mask in range(1 << key[1]))
        for key, modes in BUILTINS.items()}


def _runs(lit: Literal, bound, modes) -> bool:
    """True iff ``lit`` can run once ``bound`` are bound: it has no modes,
    or one of its modes has each "+" argument bound or constant."""
    lit_modes = modes.get((lit.pred, len(lit.args)))
    return lit_modes is None or any(
        all(m == "-" or not isinstance(a, Var) or a in bound
            for m, a in zip(mode, lit.args))
        for mode in lit_modes)


def mode_closure(head: Literal, body, modes):
    """Runs the literals of ``body`` in any order the modes allow, starting
    with the variables of ``head`` bound.  ``modes`` maps a predicate key to
    its modes, as ``BackgroundKnowledge.modes`` does: such a literal runs
    once the "+" positions of one of its modes are bound.  Any other literal (a fact, a
    background rule, a target) runs at once, and a literal that runs binds
    all of its variables.  Returns the variables bound at the fixpoint and
    the literals that never run.

    The bound set holds every variable that a proof can bind, since a
    built-in that ``_solve`` selects has the "+" positions of a mode bound,
    so a literal left over is never selected and no proof through the rule
    completes."""
    bound = {a for a in head.args if isinstance(a, Var)}
    waiting = list(body)
    ran = True
    while ran:
        ran = [lit for lit in waiting if _runs(lit, bound, modes)]
        for lit in ran:
            waiting.remove(lit)
            bound.update(a for a in lit.args if isinstance(a, Var))
    return bound, waiting


# ---------------------------------------------------------------------------
# Background knowledge
# ---------------------------------------------------------------------------

class BackgroundKnowledge:
    """Ground facts and definite rules, over the built-ins of ``BUILTINS``.

    A predicate defined by facts or rules shadows a built-in of the same
    name and arity."""

    def __init__(self, facts=(), rules=()):
        self.facts = list(facts)
        self.rules = list(rules)
        self._facts_by_pred: dict = {}
        self._facts_by_first: dict = {}
        self._rules_by_pred: dict = {}
        for f in self.facts:
            key = (f.pred, len(f.args))
            self._facts_by_pred.setdefault(key, []).append(f.args)
            if f.args:
                self._facts_by_first.setdefault((key, f.args[0]), []).append(f.args)
        for r in self.rules:
            key = (r.head.pred, len(r.head.args))
            self._rules_by_pred.setdefault(key, []).append(r)

    @classmethod
    def from_source(cls, text: str) -> "BackgroundKnowledge":
        from .parsing import parse_clauses

        facts, rules = [], []
        for head, body in parse_clauses(text):
            if body:
                rules.append(Rule(head, frozenset(body)))
            elif any(isinstance(a, Var) for a in head.args):
                rules.append(Rule(head, frozenset()))
            else:
                facts.append(head)
        return cls(facts, rules)

    def defines(self, key) -> bool:
        return key in self._facts_by_pred or key in self._rules_by_pred

    def known_predicates(self) -> set:
        return set(self._facts_by_pred) | set(self._rules_by_pred) | set(BUILTINS)

    def modes(self) -> dict:
        """The modes of every built-in that the background does not define.
        Any other predicate binds all of its arguments."""
        return {key: tuple(modes) for key, modes in BUILTINS.items()
                if not self.defines(key)}


class _Budget(Exception):
    pass


_CHECK_EVERY = 4096  # steps between two looks at the clock


def _walk(t):
    while type(t) is _FVar:
        r = t.ref
        if r is None:
            return t
        t = r
    return t


class Evaluator:
    """Tests hypotheses against a fixed example set under a fixed budget.

    Per-rule coverages are cached, so re-testing shared rules across
    candidate programs is free; ``covers`` compiles each hypothesis once,
    however many examples it is asked about.  Deterministic: identical
    hypotheses yield identical coverages."""

    def __init__(self, bk: BackgroundKnowledge, examples: ExampleSet,
                 budget: EvalBudget | None = None, deadline: float = math.inf):
        self.bk = bk
        self.examples = examples
        self.budget = budget or EvalBudget()
        self.deadline = deadline  # a time.perf_counter() value
        self.budget_exhausted = 0
        self.proofs_skipped = 0  # coverages decided without a proof
        self._rule_cov: dict = {}
        self._programs: dict = {}  # hypothesis -> compiled, for covers
        self._known = bk.known_predicates()
        self._facts_by_pred = bk._facts_by_pred
        self._facts_by_first = bk._facts_by_first
        self._user_keys = set(bk._facts_by_pred) | set(bk._rules_by_pred)
        self._modes = bk.modes()
        # predicates that the background defines, runs or calls
        self._bk_keys = self._known | {
            (b.pred, len(b.args)) for r in bk.rules for b in r.body}

    # ---- public API ------------------------------------------------------

    def with_background(self, bk: BackgroundKnowledge) -> "Evaluator":
        """An Evaluator of the same examples, budget and deadline over
        ``bk``.  A compiled program depends on the background only through
        its rules and the built-ins it shadows; when ``bk`` has the same of
        both, the two share their compiled programs, so ``covers`` compiles
        each hypothesis once for both."""
        ev = Evaluator(bk, self.examples, self.budget, self.deadline)
        if ev.bk.rules == self.bk.rules and ev._modes == self._modes:
            ev._programs = self._programs
        return ev

    def covers(self, h: Hypothesis, example: Literal) -> bool:
        """B union h |= example, within budget.  Raises EngineError when the
        example's predicate/arity is unknown."""
        self._check_example(example, h)
        prog = self._programs.get(h)
        if prog is None:
            prog = self._programs[h] = self._compile(h)
        return self._prove(prog, example, (set(), {}))

    def test(self, h: Hypothesis) -> Coverage:
        """Coverage bitsets of ``h`` over the example set."""
        pos = neg = 0
        for rule in h:
            p, n = self._rule_coverage(rule)
            pos |= p
            neg |= n
        if len(h) > 1 and is_recursive(h):
            calls = self._live_calls(h)
            if calls is None or (any(calls) and not all(calls)):
                # the union of solo coverages is a sound lower bound; prove
                # only the examples it leaves
                pos, neg = self._cover(self._compile(h), pos, neg)
            else:
                self.proofs_skipped += 1
        ex = self.examples
        return Coverage(pos, neg, ex.num_pos, ex.num_neg)

    # ---- internals -------------------------------------------------------

    def _check_example(self, example: Literal, h: Hypothesis) -> None:
        key = (example.pred, len(example.args))
        if key not in self._known and all(
            (r.head.pred, len(r.head.args)) != key for r in h
        ):
            raise EngineError(f"unknown example predicate {key[0]}/{key[1]}")

    def _rule_coverage(self, rule: Rule):
        cov = self._rule_cov.get(rule)
        if cov is None:
            h = frozenset((rule,))
            calls = self._live_calls(h)
            if calls is not None and all(calls):
                # it never runs, or it calls its own head and nothing else
                # defines that
                self.proofs_skipped += 1
                cov = (0, 0)
            else:
                cov = self._cover(self._compile(h), 0, 0)
            self._rule_cov[rule] = cov
        return cov

    def _live_calls(self, h: Hypothesis):
        """None when the background defines, runs as a built-in or calls a
        head predicate of ``h``.  Otherwise, for each rule of ``h`` whose
        every body literal can run (see ``mode_closure``), whether that rule
        calls a head predicate."""
        heads = head_preds(h)
        if not heads.isdisjoint(self._bk_keys):
            return None
        return [any((b.pred, len(b.args)) in heads for b in r.body)
                for r in h if not mode_closure(r.head, r.body, self._modes)[1]]

    def _cover(self, prog, pos: int, neg: int):
        """Adds to the masks ``pos``/``neg`` every example ``prog`` proves
        among those they leave unset."""
        ex = self.examples
        memo = (set(), {})
        for i, e in enumerate(ex.pos):
            if not (pos >> i) & 1 and self._prove(prog, e, memo):
                pos |= 1 << i
        for i, e in enumerate(ex.neg):
            if not (neg >> i) & 1 and self._prove(prog, e, memo):
                neg |= 1 << i
        return pos, neg

    def _compile(self, h: Hypothesis):
        """Compiled program: pred key -> list of compiled clauses (see
        ``_compile_rule``).  Hypothesis rules come before background rules of
        the same predicate; bodies are ordered by bound-variable flood-fill
        from the head, calls to the rule's own head last and built-ins
        first among equally connected literals."""
        heads = head_preds(h)
        rules_by_pred: dict = {}
        for rule in [*sorted(h, key=lambda r: (r.head.pred, len(r.head.args),
                                                len(r.body), repr(r))),
                     *self.bk.rules]:
            key = (rule.head.pred, len(rule.head.args))
            rules_by_pred.setdefault(key, []).append(self._compile_rule(rule, heads))
        return rules_by_pred

    def _dispatch(self, key, heads):
        """How a call to ``key`` runs in a program whose hypothesis defines
        ``heads``: the ``_RUN`` row of a built-in, or None when it resolves
        against facts and clauses.  A predicate that the background or the
        hypothesis defines shadows a built-in, and an unknown predicate
        resolves against nothing, so it fails."""
        return None if key in self._user_keys or key in heads else _RUN.get(key)

    def _compile_rule(self, rule: Rule, heads):
        """A clause as (head, fresh, consts, body).  A resolvent's
        environment holds a term for each variable of the clause and then
        ``consts``.  ``body`` holds each body literal as a goal's code: its
        key, its dispatch (see ``_dispatch``) and the environment index of
        each argument.  When the head's arguments are distinct variables,
        ``head`` is None and they come first, so the goal's walked arguments
        are their terms and the variables of ``fresh`` start free.
        Otherwise every variable starts free and ``head`` gives the index
        that each head argument unifies with."""
        # order body: every call to the rule's own head comes after every
        # other literal, so the literals that ground its inputs run first;
        # among the rest, repeatedly pick the literal most connected to
        # bound vars, preferring built-ins
        head_pred = (rule.head.pred, len(rule.head.args))
        bound = set(a for a in rule.head.args if isinstance(a, Var))
        remaining = sorted(rule.body, key=repr)
        ordered = []

        def score(lit):
            key = (lit.pred, len(lit.args))
            shared = sum(1 for a in lit.args if isinstance(a, Var) and a in bound)
            return (key == head_pred, -shared, key not in self._modes)

        while remaining:
            # min keeps the first of equal scores: the least by text
            best = min(remaining, key=score)
            remaining.remove(best)
            ordered.append(best)
            bound.update(a for a in best.args if isinstance(a, Var))
        varids: dict = {}
        for a in (*rule.head.args, *(a for lit in ordered for a in lit.args)):
            if isinstance(a, Var):
                varids.setdefault(a, len(varids))
        consts: list = []

        def code(term):
            if isinstance(term, Var):
                return varids[term]
            consts.append(term)
            return len(varids) + len(consts) - 1

        head = tuple(code(a) for a in rule.head.args)
        if len(head) <= len(varids) and head == tuple(range(len(head))):
            head, fresh = None, range(len(head), len(varids))
        else:
            fresh = range(len(varids))
        body = []
        for lit in ordered:
            key = (lit.pred, len(lit.args))
            body.append((key, self._dispatch(key, heads), tuple(map(code, lit.args))))
        return head, fresh, tuple(consts), tuple(body)

    def _prove(self, prog, example: Literal, memo) -> bool:
        # memo = (success set, failure dict keyed by remaining depth); tables
        # are per compiled program and shared across its examples.  The
        # clock is read here as well as by the countdown, which a short
        # proof never runs down.
        check_deadline(self.deadline)
        succ, fail = memo
        # a goal is its code and its environment (see ``_compile_rule``):
        # the example's arguments are their own environment
        key = (example.pred, len(example.args))
        goal = ((key, self._dispatch(key, prog), range(len(example.args))), example.args)
        # [countdown to the next check, steps held in reserve]
        first = min(_CHECK_EVERY, self.budget.max_steps)
        steps = [first, self.budget.max_steps - first]
        try:
            return self._solve(prog, (goal,), self.budget.max_depth, [], succ, fail, steps)
        except _Budget:
            self.budget_exhausted += 1
            return False

    def _solve(self, prog, goals, depth, trail, succ, fail, steps) -> bool:
        if not goals:
            return True
        if not steps[0]:
            self._check(steps)
        steps[0] -= 1
        # select the first ready goal: a resolved goal is always ready, a
        # built-in once the "+" positions of one of its modes are bound
        for i, ((key, run, codes), env) in enumerate(goals):
            walked = []
            bound = 0  # bit j set when argument j is bound
            bit = 1
            for j in codes:
                a = env[j]
                while type(a) is _FVar:
                    r = a.ref
                    if r is None:
                        break
                    a = r
                else:
                    bound |= bit
                walked.append(a)
                bit += bit
            if run is None:
                break
            fn = run[bound]
            if fn is not None:
                break
        else:
            return False  # only deferred built-ins remain
        rest = goals[1:] if i == 0 else goals[:i] + goals[i + 1:]

        if run is not None:
            sol = fn(*walked)
            if sol is None:
                return False
            # the walked arguments are dereferenced and the solution is
            # ground, so each position is the same term, a free variable
            # to bind, or a mismatch; a variable can recur in one call
            mark = len(trail)
            for a, s in zip(walked, sol):
                if a is s:
                    continue
                if type(a) is _FVar:
                    if a.ref is None:
                        a.ref = s
                        trail.append(a)
                        continue
                    a = a.ref
                if a != s:
                    break
            else:
                if self._solve(prog, rest, depth, trail, succ, fail, steps):
                    return True
            self._undo(trail, mark)
            return False

        walked = tuple(walked)
        if bound != bit - 1:  # some argument is free
            return self._resolve(prog, key, walked, rest, depth, trail, succ, fail, steps)
        # a ground goal is proven in isolation: no bindings escape, so
        # success/failure can be memoized independently of the continuation
        gkey = (key, walked)
        if gkey not in succ:
            if fail.get(gkey, -1) >= depth:
                return False
            mark = len(trail)
            if not self._resolve(prog, key, walked, (), depth, trail, succ, fail, steps):
                # nested calls store only lower depths: this never lowers it
                fail[gkey] = depth
                return False
            self._undo(trail, mark)
            succ.add(gkey)
        return self._solve(prog, rest, depth, trail, succ, fail, steps)

    def _check(self, steps) -> None:
        """Runs when a countdown ends: the budget is spent when nothing is
        left in reserve, and the search is over when the deadline has
        passed; otherwise the next countdown starts."""
        if steps[1] <= 0:
            raise _Budget
        check_deadline(self.deadline)
        n = min(_CHECK_EVERY, steps[1])
        steps[0] = n
        steps[1] -= n

    def _resolve(self, prog, key, walked, rest, depth, trail, succ, fail, steps) -> bool:
        """Resolves the goal ``key(walked)`` against the facts, then the
        clauses, and solves ``rest`` under each resolvent."""
        facts = self._facts_by_pred.get(key, ())
        if facts and walked and type(walked[0]) is not _FVar:
            facts = self._facts_by_first.get((key, walked[0]), ())
        for fact_args in facts:
            mark = len(trail)
            if self._unify_tuple(walked, fact_args, trail):
                if self._solve(prog, rest, depth, trail, succ, fail, steps):
                    return True
            self._undo(trail, mark)
        clauses = prog.get(key, ())
        if clauses and depth > 0:
            unify = self._unify
            for head, fresh, consts, body in clauses:
                mark = len(trail)
                env = list(walked) if head is None else []
                for _ in fresh:
                    env.append(_FVar())
                env += consts
                if head is None or all(unify(env[j], a, trail) for j, a in zip(head, walked)):
                    goals = tuple([(c, env) for c in body])
                    if self._solve(prog, goals + rest, depth - 1, trail, succ, fail, steps):
                        return True
                self._undo(trail, mark)
        return False

    @staticmethod
    def _unify(a, b, trail) -> bool:
        a = _walk(a)
        b = _walk(b)
        if a is b:
            return True
        if type(a) is _FVar:
            a.ref = b
            trail.append(a)
            return True
        if type(b) is _FVar:
            b.ref = a
            trail.append(b)
            return True
        return a == b

    def _unify_tuple(self, args, sol, trail) -> bool:
        for a, s in zip(args, sol):
            if not self._unify(a, s, trail):
                return False
        return True

    @staticmethod
    def _undo(trail, mark) -> None:
        while len(trail) > mark:
            trail.pop().ref = None
