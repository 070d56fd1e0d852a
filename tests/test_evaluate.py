import math
import random
import time
from itertools import combinations

import pytest

from mdlsynth import evaluate
from mdlsynth.constrain import ConstraintStore
from mdlsynth.evaluate import (
    BUILTINS,
    BackgroundKnowledge,
    Coverage,
    EngineError,
    EvalBudget,
    Evaluator,
    ExampleSet,
    SearchTimeout,
    mdl_cost,
    mode_closure,
)
from mdlsynth.generate import GeneratorState, usable
from mdlsynth.logic import Literal, Rule, Var, is_recursive, prog_size
from mdlsynth.parsing import parse_ground_atom, parse_rules

from mdlsynth.tasks import _GT, generate_task

from .helpers import program_subsumes, random_hypothesis, tiny_task
from .oracles import (
    OracleGaveUp,
    fixpoint_coverage,
    naive_mode_runs,
    naive_sld_coverage,
    naive_usable,
)


def prog(text):
    return frozenset(parse_rules(text))


def atom(text):
    return parse_ground_atom(text)


@pytest.fixture
def three_example_setup():
    bk = BackgroundKnowledge()
    ex = ExampleSet(
        pos=(atom("f([1,3])"), atom("f([3,0])"), atom("f([3,1])")),
        neg=(),
    )
    return bk, ex


H1 = "f(A):- head(A,1)."
H2 = "f(A):- head(A,0).  f(A):- tail(A,B),f(B)."


class TestCovers:
    def test_h1_covers_first_example(self, three_example_setup):
        bk, ex = three_example_setup
        ev = Evaluator(bk, ex)
        assert ev.covers(prog(H1), atom("f([1,3])"))

    def test_h2_covers_second_example_via_recursion(self, three_example_setup):
        bk, ex = three_example_setup
        ev = Evaluator(bk, ex)
        assert ev.covers(prog(H2), atom("f([3,0])"))
        assert not ev.covers(prog(H2), atom("f([3,1])"))

    def test_union_covers_example_neither_part_covers(self, three_example_setup):
        bk, ex = three_example_setup
        ev = Evaluator(bk, ex)
        union = prog(H1) | prog(H2)
        assert not ev.covers(prog(H1), atom("f([3,1])"))
        assert not ev.covers(prog(H2), atom("f([3,1])"))
        assert ev.covers(union, atom("f([3,1])"))

    def test_unknown_predicate_is_an_error(self, three_example_setup):
        bk, ex = three_example_setup
        ev = Evaluator(bk, ex)
        with pytest.raises(EngineError):
            ev.covers(prog(H1), atom("nosuch(3)"))

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The hypotheses that ``Evaluator._compile`` is called on."""
        compiled = []
        compile_ = Evaluator._compile

        def counting(self, h):
            compiled.append(h)
            return compile_(self, h)

        monkeypatch.setattr(Evaluator, "_compile", counting)
        return compiled

    def test_each_hypothesis_compiled_once(self, three_example_setup, compiled):
        # task generation asks one evaluator about hundreds of atoms with
        # the same target program
        bk, ex = three_example_setup
        ev = Evaluator(bk, ex)
        got = [ev.covers(prog(h), e) for h in (H1, H2, H1, H2)
               for e in ex.pos]
        assert got == [True, False, False, False, True, False] * 2
        assert compiled == [prog(H1), prog(H2)]

    def test_backgrounds_share_compiled_programs(self, compiled):
        # zendo scenes are labelled against their own facts with one
        # compiled target; a background that shadows a built-in compiles
        # its own
        h = prog("f(A):- p(A,B),even(B).")
        ev = Evaluator(BackgroundKnowledge(), ExampleSet((), ()))
        scenes = [ev.with_background(BackgroundKnowledge.from_source(f"p(a,{n}).p(b,3)."))
                  for n in (2, 3)]
        assert [s.covers(h, atom(f"f({c})")) for s in scenes for c in "ab"] == [
            True, False, False, False]
        assert compiled == [h]
        shadowing = ev.with_background(BackgroundKnowledge.from_source("p(a,3). even(3)."))
        assert shadowing.covers(h, atom("f(a)"))
        assert compiled == [h, h]


class TestTest:
    def test_empty_hypothesis_covers_nothing(self, three_example_setup):
        bk, ex = three_example_setup
        cov = Evaluator(bk, ex).test(frozenset())
        assert cov.pos_mask == 0 and cov.neg_mask == 0
        assert cov.fn == ex.num_pos and cov.fp == 0

    def test_h1_has_tp_1(self, three_example_setup):
        bk, ex = three_example_setup
        cov = Evaluator(bk, ex).test(prog(H1))
        assert cov.tp == 1

    def test_union_coverage_counterexample_triple(self, three_example_setup):
        bk, ex = three_example_setup
        ev = Evaluator(bk, ex)
        c1, c2 = ev.test(prog(H1)), ev.test(prog(H2))
        cu = ev.test(prog(H1) | prog(H2))
        assert c1.tp == 1 and c2.tp == 1 and cu.tp == 3
        # and hence coverage of a recursive union is NOT the union of
        # coverages: the property licensing combine fails here
        assert cu.pos_mask != c1.pos_mask | c2.pos_mask

    def test_against_fixpoint_oracle(self):
        rng = random.Random(23)
        for _ in range(120):
            bk, ex, bias, consts = tiny_task(rng)
            ev = Evaluator(bk, ex)
            for _ in range(8):
                h = random_hypothesis(
                    rng, preds=[("p", 1), ("q", 2), ("f", 1)], max_vars=3)
                cov = ev.test(h)
                want_pos, want_neg = fixpoint_coverage(
                    bk.facts, bk.rules, h, ex, consts)
                assert cov.pos_mask == want_pos, h
                assert cov.neg_mask == want_neg, h

    def test_determinism(self, three_example_setup):
        bk, ex = three_example_setup
        h = prog(H2)
        c1 = Evaluator(bk, ex).test(h)
        c2 = Evaluator(bk, ex).test(h)
        assert (c1.pos_mask, c1.neg_mask) == (c2.pos_mask, c2.neg_mask)


class TestMdlCost:
    def test_empty_hypothesis_cost_is_num_pos(self):
        cov = Coverage(0, 0, 139, 0)
        assert mdl_cost(frozenset(), cov) == 139

    def test_size18_fn36_fp5_is_59(self):
        h = prog("""
            next_score(A,B,C):- does(A,D,E),does(A,B,E),my_true_score(A,B,C),different(D,B).
            next_score(A,B,C):- my_true_score(A,G,C),beats(D,E),different(G,F),does(A,F,D),does(A,B,E).
            next_score(A,B,C):- my_true_score(A,B,E),beats(D,G),does(A,F,G),player(F),does(A,B,D),my_succ(E,C).
        """)
        assert prog_size(h) == 18
        cov = Coverage((1 << 103) - 1, (1 << 5) - 1, 139, 325)
        assert cov.tp == 103 and cov.fn == 36 and cov.fp == 5 and cov.tn == 320
        assert mdl_cost(h, cov) == 59

    def test_size2_fn63_fp40_is_105(self):
        h = prog("next_score(A,B,C):- my_true_score(A,B,C).")
        assert prog_size(h) == 2
        cov = Coverage((1 << 76) - 1, (1 << 40) - 1, 139, 325)
        assert cov.fn == 63 and cov.fp == 40
        assert mdl_cost(h, cov) == 105


class TestProperties:
    def test_tp_fn_and_fp_tn_identities(self):
        rng = random.Random(29)
        cases = 0
        for _ in range(150):
            bk, ex, bias, consts = tiny_task(rng)
            ev = Evaluator(bk, ex)
            for _ in range(8):
                h = random_hypothesis(
                    rng, preds=[("p", 1), ("q", 2), ("f", 1)])
                cov = ev.test(h)
                assert cov.tp + cov.fn == ex.num_pos
                assert cov.fp + cov.tn == ex.num_neg
                cases += 1
        assert cases >= 1000

    def test_union_coverage_equals_union_for_nonrecursive(self):
        rng = random.Random(31)
        cases = 0
        for _ in range(150):
            bk, ex, bias, consts = tiny_task(rng)
            ev = Evaluator(bk, ex)
            for _ in range(8):
                h1 = random_hypothesis(rng, preds=[("p", 1), ("q", 2)])
                h2 = random_hypothesis(rng, preds=[("p", 1), ("q", 2)])
                c1, c2 = ev.test(h1), ev.test(h2)
                cu = ev.test(h1 | h2)
                assert cu.pos_mask == c1.pos_mask | c2.pos_mask
                assert cu.neg_mask == c1.neg_mask | c2.neg_mask
                cases += 1
        assert cases >= 1000

    def test_fn_subadditivity_on_nonrecursive_unions(self):
        # fn(h1 u h2) >= fn(h1) + fn(h2) - |E+| wherever union coverage
        # holds; the recursive counterexample above is excluded by design
        rng = random.Random(37)
        cases = 0
        for _ in range(150):
            bk, ex, bias, consts = tiny_task(rng)
            ev = Evaluator(bk, ex)
            for _ in range(8):
                h1 = random_hypothesis(rng, preds=[("p", 1), ("q", 2)])
                h2 = random_hypothesis(rng, preds=[("p", 1), ("q", 2)])
                cu = ev.test(h1 | h2)
                fn1, fn2 = ev.test(h1).fn, ev.test(h2).fn
                assert cu.fn >= fn1 + fn2 - ex.num_pos
                cases += 1
        assert cases >= 1000

    def test_recursive_union_violates_fn_subadditivity(self, three_example_setup):
        bk, ex = three_example_setup
        ev = Evaluator(bk, ex)
        fn1, fn2 = ev.test(prog(H1)).fn, ev.test(prog(H2)).fn
        fnu = ev.test(prog(H1) | prog(H2)).fn
        assert fnu < fn1 + fn2 - ex.num_pos

    def test_subsumption_coverage_monotonicity(self):
        rng = random.Random(41)
        cases = 0
        while cases < 1000:
            bk, ex, bias, consts = tiny_task(rng)
            ev = Evaluator(bk, ex)
            for _ in range(12):
                h1 = random_hypothesis(rng, preds=[("p", 1), ("q", 2), ("f", 1)])
                # build a specialisation: extend bodies and maybe add rules
                h2 = set()
                for r in h1:
                    extra = random_hypothesis(rng, max_rules=1,
                                              preds=[("p", 1), ("q", 2)])
                    (extra_rule,) = extra
                    from mdlsynth.logic import Rule, canonicalize

                    h2.add(canonicalize(Rule(r.head, r.body | extra_rule.body)))
                h2 = frozenset(h2)
                if not program_subsumes(h1, h2):
                    continue
                c1, c2 = ev.test(h1), ev.test(h2)
                assert c2.pos_mask & ~c1.pos_mask == 0
                assert c2.neg_mask & ~c1.neg_mask == 0
                cases += 1


class TestBudget:
    @pytest.mark.parametrize("field", ["max_depth", "max_steps"])
    def test_empty_budget_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            EvalBudget(**{field: 0})

    def test_budget_exhaustion_counts_not_raises(self):
        bk = BackgroundKnowledge()
        ex = ExampleSet((atom("f([1,2])"),), ())
        ev = Evaluator(bk, ex, EvalBudget(max_depth=30, max_steps=5))
        # the base rule runs but never succeeds: a list is never its own tail
        h = prog("f(A):- tail(A,B),f(B),head(A,C),one(C).  f(A):- tail(A,A).")
        cov = ev.test(h)
        assert cov.tp == 0
        # the lone recursive rule is never proven and the base rule alone
        # stays inside the budget; only the whole program runs out, once
        assert ev.budget_exhausted == 1

    @pytest.mark.parametrize("background, h, example, covered", [
        ("p(a). q(a).", "f(A):- p(A),q(A).", "f(a)", True),
        ("p(a). p(b). q(a).", "f(A):- p(A),q(A).", "f(b)", False),
        # its odd element is its 21st, past the reach of a proof bounded at depth 8
        ("", _GT["evens"], f"evens([{'2,' * 20}1])", False),
        # 8,000 chains, so the countdown runs down and restarts
        (" ".join(f"q({a},{b})." for a in range(20) for b in range(20)),
         "f(A):- q(A,B),q(B,C),q(C,D),q(D,x).", "f(0)", False),
    ], ids=["proof", "failure", "recursive failure", "long failure"])
    def test_one_proof_per_example_charged_at_most_max_steps(
            self, background, h, example, covered):
        bk = BackgroundKnowledge.from_source(background)
        h, example = prog(h), atom(example)
        ex = ExampleSet((), ())
        # k steps, counted as tests.search_record counts them, over the
        # proofs run, each of which starts with a fresh trail
        ev = Evaluator(bk, ex)
        solve, steps, trails = ev._solve, [0], {}

        def counting_solve(prog, goals, depth, trail, *args):
            steps[0] += bool(goals)
            trails[id(trail)] = trail  # held, so no id is reused
            return solve(prog, goals, depth, trail, *args)

        ev._solve = counting_solve
        assert (ev.covers(h, example), len(trails)) == (covered, 1)
        k = steps[0]
        ev = Evaluator(bk, ex, EvalBudget(max_steps=k))
        assert ev.covers(h, example) == covered and ev.budget_exhausted == 0
        ev = Evaluator(bk, ex, EvalBudget(max_steps=k - 1))
        assert not ev.covers(h, example) and ev.budget_exhausted == 1
        assert not hasattr(EvalBudget, "depth_schedule")

    def test_recursive_program_proves_only_uncovered_examples(self):
        bk = BackgroundKnowledge()
        ex = ExampleSet((atom("f([0,1])"), atom("f([1,0])"), atom("f([1,1])")), ())
        ev = Evaluator(bk, ex)
        proven = []
        prove = ev._prove

        def counting_prove(compiled, example, memo):
            proven.append((len(compiled[("f", 1)]), example))
            return prove(compiled, example, memo)

        ev._prove = counting_prove
        cov = ev.test(prog(H2))
        assert cov.pos_mask == 0b011
        # f([0,1]) is covered by the base rule alone, so the two-rule
        # program is run only on the other two examples
        assert [e for n, e in proven if n == 2] == [atom("f([1,0])"), atom("f([1,1])")]

    def test_depth_bound_cuts_unbounded_recursion(self):
        bk = BackgroundKnowledge()
        ex = ExampleSet((atom("f([1,2])"),), ())
        ev = Evaluator(bk, ex, EvalBudget(max_depth=12, max_steps=100_000))
        # the recursive call precedes any list destructuring, so only the
        # depth bound stops the descent
        h = prog("f(A):- succ(B,C),f(A),head(A,B).")
        cov = ev.test(h)
        assert cov.tp == 0

    def test_insufficiently_instantiated_builtin_is_noncoverage(self):
        bk = BackgroundKnowledge()
        ex = ExampleSet((atom("f([1,2])"),), ())
        ev = Evaluator(bk, ex)
        # geq can never run: B is never bound
        h = prog("f(A):- head(A,B),geq(B,C).")
        assert ev.test(h).tp == 0


LIST_FAMILIES = ["evens", "dropk", "sorted", "reverse"]


def family_rules(family, sizes=(2, 3, 4)):
    task = generate_task(family, 10, 0)
    gen = GeneratorState(task.bias, ConstraintStore(), modes=task.bk.modes())
    return task, [r for size in sizes for r in gen.pool(size)]


def counting_proofs(ev):
    """Patches ``ev`` to record the example of each proof it runs."""
    proven = []
    prove = ev._prove

    def counting(compiled, example, memo):
        proven.append(example)
        return prove(compiled, example, memo)

    ev._prove = counting
    return proven


def reference(ev, h):
    """Masks of ``h`` with every example proven against the whole program."""
    return ev._cover(ev._compile(h), 0, 0)


def masks(cov):
    return cov.pos_mask, cov.neg_mask


class TestModeClosure:
    @pytest.mark.parametrize("family", LIST_FAMILIES)
    def test_matches_naive_oracles(self, family):
        # every rule of the pools, usable or not, against an enumeration of
        # body orders; usable reads the same closure
        task, rules = family_rules(family)
        modes = task.bk.modes()
        targets = set(task.bias.targets)
        stuck_rules = 0
        for rule in rules:
            bound, stuck = mode_closure(rule.head, rule.body, modes)
            want_bound, ran = naive_mode_runs(rule, modes)
            assert set(stuck) == set(rule.body) - ran, rule
            assert bound == want_bound, rule
            assert usable(rule, targets, modes) == naive_usable(
                rule, targets, modes), rule
            stuck_rules += bool(stuck)
        assert 0 < stuck_rules < len(rules)


class TestProofShortcuts:
    BUDGET = EvalBudget(max_depth=12, max_steps=500)

    @pytest.mark.parametrize("family", LIST_FAMILIES)
    def test_random_programs_match_whole_program_proofs(self, family):
        task, rules = family_rules(family)
        targets = set(task.bias.targets)
        calling, base = [], []
        for r in rules:
            calls = any((b.pred, b.arity) in targets for b in r.body)
            (calling if calls else base).append(r)
        rng = random.Random(LIST_FAMILIES.index(family))
        programs = [frozenset((r,)) for r in rng.sample(rules, 50)]
        # half of the pairs with a rule that calls no target
        programs += [h for h in (frozenset((rng.choice(calling),
                                            rng.choice(rules if i % 2 else base)))
                                 for i in range(100)) if len(h) == 2]
        assert all(is_recursive(h) for h in programs[50:])
        ev = Evaluator(task.bk, task.train, self.BUDGET)
        ref = Evaluator(task.bk, task.train, self.BUDGET)
        off = Evaluator(task.bk, task.train, self.BUDGET)
        off._live_calls = lambda h: None  # proves every program
        compared = 0
        for h in programs:
            got = masks(ev.test(h))
            # without the shortcut: the same masks, budget or not
            assert got == masks(off.test(h)), h
            before = ref.budget_exhausted
            want = reference(ref, h)
            # a proof that runs out of budget may miss what a rule alone proves
            if ref.budget_exhausted == before:
                assert got == want, h
                compared += 1
        assert ev.proofs_skipped > 0
        assert compared >= len(programs) // 2

    def test_rule_that_never_runs(self):
        # tail needs its first argument, and D is never bound
        task = generate_task("dropk", 20, 0)
        ev = Evaluator(task.bk, task.train)
        proven = counting_proofs(ev)
        h = prog("dropk(A,B,C):- tail(D,C).")
        assert masks(ev.test(h)) == (0, 0) == reference(Evaluator(task.bk, task.train), h)
        assert proven == [] and ev.proofs_skipped == 1
        ev.test(h)  # cached
        assert ev.proofs_skipped == 1

    def test_program_whose_base_rule_never_runs(self):
        task = generate_task("dropk", 20, 0)
        ev = Evaluator(task.bk, task.train)
        proven = counting_proofs(ev)
        h = prog("dropk(A,B,C):- decrement(B,D),dropk(A,D,C)."
                 "dropk(A,B,C):- tail(D,A).")
        assert masks(ev.test(h)) == (0, 0)
        assert reference(Evaluator(task.bk, task.train), h) == (0, 0)
        # two lone rules and the program
        assert proven == [] and ev.proofs_skipped == 3

    def test_program_whose_recursive_rule_never_runs(self):
        # what is left is the base rule, whose own coverage is exact
        task = generate_task("dropk", 20, 0)
        ev = Evaluator(task.bk, task.train)
        base = prog("dropk(A,B,C):- tail(A,C),one(B).")
        h = base | prog("dropk(A,B,C):- dropk(A,D,C),tail(E,D).")
        want = masks(ev.test(base))
        assert want[0]
        proven = counting_proofs(ev)
        assert masks(ev.test(h)) == want == reference(
            Evaluator(task.bk, task.train), h)
        assert proven == [] and ev.proofs_skipped == 2

    def test_no_shortcut_when_the_background_defines_a_head(self):
        bk = BackgroundKnowledge.from_source("f([]).")
        ex = ExampleSet((atom("f([1,2])"), atom("f([3])")), (atom("g(1)"),))
        ev = Evaluator(bk, ex)
        cov = ev.test(prog("f(A):- tail(A,B),f(B)."))
        assert cov.tp == 2 and ev.proofs_skipped == 0

    def test_no_shortcut_for_a_head_named_as_a_built_in(self):
        # the program's clauses for tail/2 replace the built-in: its
        # recursive call runs, though the built-in's modes say it cannot
        ex = ExampleSet((atom("tail(0,1)"), atom("tail(1,0)")), (atom("tail(0,2)"),))
        ev = Evaluator(BackgroundKnowledge(), ex)
        h = prog("tail(A,B):- tail(C,A),one(B).  tail(A,B):- one(A),zero(B).")
        assert masks(ev.test(h)) == (0b11, 0) == reference(ev, h)
        assert ev.proofs_skipped == 0

    def test_no_shortcut_when_the_background_calls_a_head(self):
        # the recursive rule never runs, and the rest reaches f only
        # through the background rule
        bk = BackgroundKnowledge.from_source("g(A):- tail(A,B),f(B).")
        ex = ExampleSet((atom("f([])"), atom("f([1])"), atom("f([1,2])")), ())
        ev = Evaluator(bk, ex)
        h = prog("f(A):- empty(A).  f(A):- g(A).  f(A):- f(B),tail(C,B).")
        assert masks(ev.test(h)) == (0b111, 0) == reference(ev, h)
        assert ev.proofs_skipped == 0


class TestAgainstNaiveSLD:
    BUDGET = EvalBudget(max_depth=8, max_steps=2000)

    @pytest.mark.parametrize("family", LIST_FAMILIES)
    def test_random_programs_match_naive_sld(self, family):
        # lone rules, and a rule that calls the target with one that does
        # not, so that some programs recurse, and the family's target
        _, rules = family_rules(family)
        task = generate_task(family, 20, 0)
        targets = set(task.bias.targets)
        calling = {r for r in rules if any((b.pred, b.arity) in targets for b in r.body)}
        calls = [r for r in rules if r in calling]
        base = [r for r in rules if r not in calling]
        rng = random.Random(101 + LIST_FAMILIES.index(family))
        programs = [frozenset((rng.choice(rules),)) if i % 2 else
                    frozenset((rng.choice(calls), rng.choice(base))) for i in range(50)]
        programs.append(prog(_GT[family]))
        ev = Evaluator(task.bk, task.train, self.BUDGET)
        compared = covering = 0
        for h in programs:
            before = ev.budget_exhausted
            got = masks(ev.test(h))
            try:
                want = naive_sld_coverage(task.bk.facts, task.bk.rules, h, task.train,
                                          self.BUDGET.max_depth, max_steps=1000)
            except OracleGaveUp:
                continue  # a program that calls its head twice
            if ev.budget_exhausted == before:
                assert got == want, h
                compared += 1
                covering += want != (0, 0)
        assert compared >= 45 and covering >= 3
        assert masks(ev.test(prog(_GT[family]))) == (2**10 - 1, 0)


class TestDeadline:
    def test_stops_a_program_that_exhausts_every_budget(self):
        # the recursive rule calls its head with free arguments in any body
        # order, so SLD resolution runs every example to its step budget;
        # the base rule runs but never succeeds, so the program must be
        # proven
        task = generate_task("dropk", 40, 0)
        h = prog("dropk(A,B,C):- dropk(A,D,E),dropk(E,D,C)."
                 "dropk(A,B,C):- decrement(B,B).")
        ev = Evaluator(task.bk, task.train, EvalBudget(max_steps=2000))
        ev.test(h)
        assert ev.budget_exhausted == len(task.train)
        deadline = time.perf_counter() + 0.5
        ev = Evaluator(task.bk, task.train, deadline=deadline)
        with pytest.raises(SearchTimeout):
            ev.test(h)
        assert time.perf_counter() < deadline + 0.5

    def test_passed_deadline_stops_short_proofs(self):
        # no proof of evens' target reaches 4,096 steps, so only the clock
        # read before each example sees the deadline
        task = generate_task("evens", 200, 0)
        h = prog(_GT["evens"])
        assert Evaluator(task.bk, task.train).test(h).tp == 100
        ev = Evaluator(task.bk, task.train, deadline=time.perf_counter() - 1)
        with pytest.raises(SearchTimeout):
            ev.test(h)

    @staticmethod
    def _join_task():
        # a three-hop join over 20 x 20 facts takes 8,000 steps an example
        consts = range(20)
        facts = [Literal("q", (a, b)) for a in consts for b in consts]
        bk = BackgroundKnowledge(facts + [Literal("p", ("x",))])
        ex = ExampleSet((atom("f(0)"), atom("f(1)")), (atom("f(2)"),))
        return bk, ex, prog("f(A):- q(A,B),q(B,C),q(C,D),p(D).")

    def test_timeout_caches_no_partial_coverage(self):
        bk, ex, h = self._join_task()
        ev = Evaluator(bk, ex, deadline=time.perf_counter() - 1)
        with pytest.raises(SearchTimeout):
            ev.test(h)
        ev.deadline = math.inf
        assert ev.test(h) == Evaluator(bk, ex).test(h)

    def test_clock_checks_keep_the_step_budget(self, monkeypatch):
        # the budget ends at the same step however often the clock is read
        bk, ex, h = self._join_task()

        def exhausted(max_steps):
            ev = Evaluator(bk, ExampleSet(ex.pos[:1], ()),
                           EvalBudget(max_depth=8, max_steps=max_steps),
                           deadline=time.perf_counter() + 60)
            ev.test(h)
            return ev.budget_exhausted

        monkeypatch.setattr(evaluate, "_CHECK_EVERY", 10**9)
        lo, hi = 1, 20_000  # the last budget that runs out, the first that does not
        assert exhausted(lo) and not exhausted(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if exhausted(mid) else (lo, mid)
        assert hi > 4096
        for every in (1, 7, 4096):
            monkeypatch.setattr(evaluate, "_CHECK_EVERY", every)
            assert exhausted(lo) == 1 and exhausted(hi) == 0, every


class TestModes:
    # ground arguments each built-in accepts, one per position
    SAMPLES = {
        ("head", 2): ((1, 2), 1),
        ("tail", 2): ((1, 2), (2,)),
        ("empty", 1): ((),),
        ("empty_out", 1): ((),),
        ("even", 1): (2,),
        ("odd", 1): (1,),
        ("one", 1): (1,),
        ("zero", 1): (0,),
        ("decrement", 2): (3, 2),
        ("succ", 2): (2, 3),
        ("geq", 2): (3, 2),
        ("append", 3): ((1,), 2, (1, 2)),
    }

    def test_modes_agree_with_functions(self):
        # f(<bound positions of the sample>):- key(<sample, free elsewhere>)
        # proves its example exactly when a mode has its "+" positions bound
        assert set(BUILTINS) == set(self.SAMPLES)
        ev = Evaluator(BackgroundKnowledge(), ExampleSet((), ()))
        for key, modes in BUILTINS.items():
            sample = self.SAMPLES[key]
            assert all(len(m) == key[1] and set(m) <= {"+", "-"} for m in modes)
            # a built-in is a function of its inputs: each mode gives the one
            # solution, which on a true sample is the sample itself
            for fn in modes.values():
                sol = fn(*sample)
                assert type(sol) is tuple and len(sol) == key[1], key
                assert sol == sample, key
            for n in range(key[1] + 1):
                for bound in combinations(range(key[1]), n):
                    head = Literal("f", tuple(Var(i) for i in bound))
                    body = Literal(key[0], tuple(Var(i) for i in range(key[1])))
                    example = Literal("f", tuple(sample[i] for i in bound))
                    runs = any(all(i in bound for i, m in enumerate(mode) if m == "+")
                               for mode in modes)
                    h = frozenset((Rule(head, frozenset((body,))),))
                    assert ev.covers(h, example) == runs, (key, bound)

    @pytest.mark.parametrize("call", ["head(5,B)", "decrement([1],B)", "append(3,1,B)"])
    def test_ill_typed_bound_call_fails_at_once(self, call):
        # the call runs in the mode its bound inputs meet, and fails; were it
        # deferred, each of the 100 q facts would be tried first, and the
        # 50-step budget would run out
        bk = BackgroundKnowledge([Literal("q", (i,)) for i in range(100)])
        ev = Evaluator(bk, ExampleSet((), ()), EvalBudget(max_steps=50))
        assert not ev.covers(prog(f"f(A):- {call},q(C)."), atom("f(a)"))
        assert ev.budget_exhausted == 0

    def test_modes_only_for_default_builtins_that_run(self):
        assert BackgroundKnowledge().modes() == {
            key: tuple(modes) for key, modes in BUILTINS.items()}
        shadowed = BackgroundKnowledge(facts=[Literal("tail", ((1,), ()))])
        assert ("tail", 2) not in shadowed.modes()
        assert ("head", 2) in shadowed.modes()
        ruled = BackgroundKnowledge.from_source("head(A,B):- tail(A,B).")
        assert ("head", 2) not in ruled.modes()


class TestDispatch:
    def test_example_goal_runs_a_built_in(self):
        ev = Evaluator(BackgroundKnowledge(), ExampleSet((), ()))
        assert ev.covers(frozenset(), atom("even(4)"))
        assert not ev.covers(frozenset(), atom("even(3)"))

    @pytest.mark.parametrize("source", ["even(3).", "even(A):- odd(A)."])
    def test_background_shadows_a_built_in(self, source):
        # as the example goal and as a body literal, even/1 is the
        # background's: true of 3 and not of 4
        ev = Evaluator(BackgroundKnowledge.from_source(source), ExampleSet((), ()))
        h = prog("f(A):- even(A).")
        assert ev.covers(frozenset(), atom("even(3)"))
        assert not ev.covers(frozenset(), atom("even(4)"))
        assert ev.covers(h, atom("f(3)"))
        assert not ev.covers(h, atom("f(4)"))

    @pytest.mark.parametrize("unknown", ["nosuch(A)", "nosuch(B)"])
    def test_unknown_body_predicate_fails_its_branch(self, unknown):
        # geq waits for B, so the unknown call is selected after it
        ev = Evaluator(BackgroundKnowledge(), ExampleSet((), ()))
        h = prog(f"f(A):- geq(A,B),{unknown}.")
        ((_, _, _, body),) = ev._compile(h)[("f", 1)]
        assert [key for key, _, _ in body] == [("geq", 2), ("nosuch", 1)]
        assert not ev.covers(h, atom("f(1)"))
        assert ev.covers(h | prog("f(A):- one(A)."), atom("f(1)"))
        assert ev.budget_exhausted == 0


class TestBodyOrder:
    @staticmethod
    def body_keys(ev, rule):
        ((_, _, _, body),) = ev._compile(frozenset((rule,)))[
            (rule.head.pred, len(rule.head.args))]
        return [key for key, _, _ in body]

    def test_target_grounds_its_recursive_call_first(self):
        task = generate_task("dropk", 10, 0)
        ev = Evaluator(task.bk, task.train)
        (rule,) = prog("dropk(A,B,C):- decrement(B,E),tail(A,D),dropk(D,E,C).")
        assert self.body_keys(ev, rule) == [("decrement", 2), ("tail", 2), ("dropk", 3)]

    @pytest.mark.parametrize("family", LIST_FAMILIES)
    def test_head_calls_come_last(self, family):
        task, rules = family_rules(family)
        ev = Evaluator(task.bk, task.train)
        recursive = 0
        for rule in rules:
            head = (rule.head.pred, len(rule.head.args))
            calls = [key == head for key in self.body_keys(ev, rule)]
            assert calls == sorted(calls), rule
            recursive += any(calls) and not all(calls)
        assert recursive > 0

    def test_slow_program_exhausts_no_budget(self):
        # run before decrement(B,D), the call dropk(A,D,C) has D free, gets
        # no memo and recurses to the depth bound: 34 of these 100 examples
        # then run out of their step budget
        h = prog("dropk(A,B,C):- decrement(B,D),dropk(A,B,A),dropk(A,D,C)."
                 "dropk(A,B,C):- tail(C,D).")
        task = generate_task("dropk", 100, 0)
        ev = Evaluator(task.bk, task.train, EvalBudget(max_steps=20_000))
        ev.test(h)
        assert ev.budget_exhausted == 0
        task = generate_task("dropk", 20, 0)
        budget = EvalBudget(max_depth=4)
        ev = Evaluator(task.bk, task.train, budget)
        got = masks(ev.test(h))
        assert ev.budget_exhausted == 0 and got != (0, 0)
        assert got == naive_sld_coverage(task.bk.facts, task.bk.rules, h, task.train,
                                         budget.max_depth)


class TestBuiltins:
    def test_list_builtins(self):
        bk = BackgroundKnowledge()
        ex = ExampleSet((atom("f([1,2,3])"),), ())
        ev = Evaluator(bk, ex)
        assert ev.covers(prog("f(A):- head(A,1)."), atom("f([1,2,3])"))
        assert ev.covers(prog("f(A):- tail(A,B),head(B,2)."), atom("f([1,2,3])"))
        assert not ev.covers(prog("f(A):- empty(A)."), atom("f([1,2,3])"))
        assert ev.covers(prog("f(A):- empty(A)."), atom("f([])"))

    def test_arithmetic_builtins(self):
        bk = BackgroundKnowledge()
        ex = ExampleSet((atom("g(3,2)"),), ())
        ev = Evaluator(bk, ex)
        assert ev.covers(prog("g(A,B):- decrement(A,B)."), atom("g(3,2)"))
        assert ev.covers(prog("g(A,B):- geq(A,B)."), atom("g(3,2)"))
        assert not ev.covers(prog("g(A,B):- geq(B,A)."), atom("g(3,2)"))
        assert ev.covers(prog("g(A,B):- succ(B,A)."), atom("g(3,2)"))

    def test_append_both_modes(self):
        bk = BackgroundKnowledge()
        ex = ExampleSet((atom("r([1,2],[2,1])"),), ())
        ev = Evaluator(bk, ex)
        h = prog("""
            r(A,B):- empty(A),empty_out(B).
            r(A,B):- head(A,D),tail(A,E),r(E,C),append(C,D,B).
        """)
        assert ev.covers(h, atom("r([1,2],[2,1])"))
        assert not ev.covers(h, atom("r([1,2],[1,2])"))

    def test_a_variable_twice_in_one_call_takes_one_value(self):
        # append(A,A,B) runs in its "--+" mode, and A cannot be both the
        # front of B and its last element
        ev = Evaluator(BackgroundKnowledge(), ExampleSet((), ()))
        assert not ev.covers(prog("f(B):- append(A,A,B)."), atom("f([1,2])"))
        assert ev.covers(prog("f(B):- append(A,C,B)."), atom("f([1,2])"))

    def test_bk_facts_shadow_builtins(self):
        bk = BackgroundKnowledge(facts=[Literal("head", ("a", "b"))])
        ex = ExampleSet((atom("f(a)"),), ())
        ev = Evaluator(bk, ex)
        assert ev.covers(prog("f(A):- head(A,b)."), atom("f(a)"))


class TestBackgroundRules:
    def test_bk_rules_participate(self):
        bk = BackgroundKnowledge.from_source("""
            % grandparent via two parent hops
            parent(a,b). parent(b,c).
            grand(A,B):- parent(A,C),parent(C,B).
        """)
        ex = ExampleSet((atom("f(a)"),), ())
        ev = Evaluator(bk, ex)
        assert ev.covers(prog("f(A):- grand(A,B)."), atom("f(a)"))
        assert not ev.covers(prog("f(A):- grand(A,a)."), atom("f(a)"))

    def test_heads_with_constants_and_repeated_variables(self):
        bk = BackgroundKnowledge.from_source(
            "same(A,A).  first(a,B):- one(B).  last(A,a):- g(A).  p(a):- q(b).  "
            "r(a):- q(c).  g(x).  h(a).  k(b).  q(b).")
        ev = Evaluator(bk, ExampleSet((), ()))
        assert ev.covers(frozenset(), atom("same(3,3)"))
        assert not ev.covers(frozenset(), atom("same(3,4)"))
        # a constant after the head variables, with no other body variable
        assert ev.covers(frozenset(), atom("last(x,a)"))
        assert not ev.covers(frozenset(), atom("last(x,b)"))
        h = prog("f(A):- last(A,B),h(B).")
        assert ev.covers(h, atom("f(x)"))
        h = prog("f(A):- last(A,B),k(B).")
        assert not ev.covers(h, atom("f(x)"))
        # a constant head and a constant body literal
        assert ev.covers(frozenset(), atom("p(a)"))
        assert not ev.covers(frozenset(), atom("p(b)"))
        assert not ev.covers(frozenset(), atom("r(a)"))
        h = prog("f(A):- first(A,B).")
        assert ev.covers(h, atom("f(a)")) and not ev.covers(h, atom("f(b)"))
        h = prog("f(A,B):- same(A,C),same(C,B).")
        assert ev.covers(h, atom("f(2,2)")) and not ev.covers(h, atom("f(2,3)"))
