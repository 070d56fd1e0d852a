import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mdlsynth
from mdlsynth.constrain import ConstraintStore
from mdlsynth.generate import GeneratorState
from mdlsynth.evaluate import BackgroundKnowledge, EvalBudget, Evaluator, ExampleSet, mdl_cost
from mdlsynth.generate import Bias
from mdlsynth.logic import Literal, is_recursive, prog_size
from mdlsynth.parsing import parse_ground_atom, parse_rules
from mdlsynth.search import SearchConfig, learn
from mdlsynth.tasks import generate_task

from . import search_record
from .helpers import tiny_task, union_task
from .oracles import exhaustive_min_cost, exhaustive_space, fixpoint_coverage, naive_has_base_case


def prog(text):
    return frozenset(parse_rules(text))


def atom(text):
    return parse_ground_atom(text)


def fixpoint_cost(bk, ex, h, consts):
    """The MDL cost of ``h`` on ``ex``, by fixpoint evaluation."""
    pos, neg = fixpoint_coverage(bk.facts, bk.rules, h, ex, consts)
    return prog_size(h) + ex.num_pos - pos.bit_count() + neg.bit_count()


class TestLearnBasics:
    def test_empty_hypothesis_optimal(self):
        # two positives that no single bias rule can cover: any rule costs
        # at least its size and covers nothing, so the empty hypothesis
        # (cost 2) wins
        bk = BackgroundKnowledge(facts=[Literal("p", ("a",))])
        bias = Bias(targets=[("f", 1)], body_preds=[("p", 1)],
                    max_vars=2, max_body=2, max_rules=1)
        ex = ExampleSet((atom("f(b)"), atom("f(c)")), ())
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=10))
        assert h == frozenset()
        assert stats.best_cost == 2
        assert stats.completed

    def test_single_rule_solution(self):
        bk = BackgroundKnowledge(
            facts=[Literal("p", (c,)) for c in "abd"])
        bias = Bias(targets=[("f", 1)], body_preds=[("p", 1)],
                    max_vars=2, max_body=2, max_rules=1)
        ex = ExampleSet((atom("f(a)"), atom("f(b)"), atom("f(d)")),
                        (atom("f(c)"),))
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=10))
        assert h == prog("f(A):- p(A).")
        assert stats.best_cost == 2

    def test_equal_cost_tie_keeps_first_found(self):
        # with two positives, a perfect size-2 rule only ties the empty
        # hypothesis (cost 2), and the first-found solution is kept
        bk = BackgroundKnowledge(
            facts=[Literal("p", ("a",)), Literal("p", ("b",))])
        bias = Bias(targets=[("f", 1)], body_preds=[("p", 1)],
                    max_vars=2, max_body=2, max_rules=1)
        ex = ExampleSet((atom("f(a)"), atom("f(b)")), (atom("f(c)"),))
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=10))
        assert h == frozenset()
        assert stats.best_cost == 2

    def test_recursive_solution_found_by_generate_stage(self):
        # the three-example task: the best compression uses recursion
        bk = BackgroundKnowledge()
        bias = Bias.from_source("""
            head_pred(f,1).
            body_pred(head,2). body_pred(tail,2).
            type(f,(list,)). type(head,(list,int)). type(tail,(list,list)).
            constant(int,0). constant(int,1).
            max_vars(2). max_body(2). max_rules(2). enable_recursion.
        """)
        pos = tuple(atom(s) for s in (
            "f([0])", "f([1,0])", "f([2,0])", "f([1,1,0])", "f([2,2,0])",
            "f([1,2,0])", "f([9,8,0])", "f([4,0])"))
        neg = tuple(atom(s) for s in (
            "f([1])", "f([2,1])", "f([1,2])", "f([2])", "f([9,8])", "f([])"))
        ex = ExampleSet(pos, neg)
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=60))
        # ground truth: f(A):- head(A,0) ; f(A):- tail(A,B),f(B)
        gt = prog("f(A):- head(A,0).  f(A):- tail(A,B),f(B).")
        ev = Evaluator(bk, ex)
        assert stats.best_cost == mdl_cost(gt, ev.test(gt)) == 5
        cov = ev.test(h)
        assert mdl_cost(h, cov) == 5

    def test_anytime_trajectory_monotone(self):
        rng = random.Random(73)
        checks = 0
        for _ in range(40):
            bk, ex, bias, _ = tiny_task(rng)
            h, stats = learn(bk, ex, bias, SearchConfig(timeout=10))
            costs = [c for _, c in stats.trajectory]
            assert costs == sorted(costs, reverse=True)
            assert all(b < a for a, b in zip(costs, costs[1:]))
            checks += len(costs)
        assert checks >= 40

    def test_determinism(self):
        rng = random.Random(79)
        for _ in range(10):
            bk, ex, bias, _ = tiny_task(rng)
            h1, s1 = learn(bk, ex, bias, SearchConfig(timeout=10))
            h2, s2 = learn(bk, ex, bias, SearchConfig(timeout=10))
            assert h1 == h2
            assert [c for _, c in s1.trajectory] == [c for _, c in s2.trajectory]
            assert s1.programs_tested == s2.programs_tested

    # the in-process test above cannot see an order that follows string
    # hashes, since both of its runs share one PYTHONHASHSEED; the records
    # hold each tested program, its masks and the budget exhaustions, and
    # the last line their digest and the resolution steps charged
    @pytest.mark.parametrize("family, n, noise", [("zendo1", 20, 0.0),
                                                  ("evens", 40, 0.1)])
    def test_search_independent_of_hash_seed(self, family, n, noise):
        root = Path(__file__).resolve().parent.parent
        src = str(Path(mdlsynth.__file__).resolve().parent.parent)
        procs = [subprocess.Popen(
            [sys.executable, "-m", "tests.search_record", family, str(n),
             str(noise)], stdout=subprocess.PIPE, text=True, cwd=root,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
            for seed in ("1", "2")]
        outs = [proc.communicate(timeout=120)[0].splitlines() for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        runs = [json.loads(out[-1]) for out in outs]
        assert runs[0]["completed"] and runs[0]["tests"] > 50
        assert len(outs[0]) == runs[0]["tests"] + 1
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_config_rejects_a_timeout_that_is_not_positive(self, timeout):
        # a NaN deadline is never passed, so the search would never time out
        with pytest.raises(ValueError, match="timeout"):
            SearchConfig(timeout=timeout)

    def test_validation_rejects_mismatched_examples(self):
        bk = BackgroundKnowledge()
        bias = Bias(targets=[("f", 1)], body_preds=[("p", 1)])
        ex = ExampleSet((atom("g(a)"),), ())
        with pytest.raises(ValueError):
            learn(bk, ex, bias)

    def test_validation_rejects_bk_calling_target(self):
        bk = BackgroundKnowledge.from_source("p(A):- f(A).")
        bias = Bias(targets=[("f", 1)], body_preds=[("p", 1)])
        ex = ExampleSet((atom("f(a)"),), ())
        with pytest.raises(ValueError):
            learn(bk, ex, bias)

    @pytest.mark.parametrize("source,target", [
        ("f(0).", "f(a)"),
        ("f(A):- p(A).", "f(a)"),
        ("", "succ(1,2)"),
    ])
    def test_validation_rejects_bk_defining_target(self, source, target):
        # with f(0) in the background, f(A):- succ(B,A),f(B). would prove
        # every positive example though its only rule calls the target; a
        # target named as a built-in is defined by that built-in
        bk = BackgroundKnowledge.from_source(source)
        example = atom(target)
        key = (example.pred, len(example.args))
        bias = Bias(targets=[key], body_preds=[("p", 1)])
        ex = ExampleSet((example,), ())
        with pytest.raises(ValueError, match=f"defines target {key[0]}/{key[1]}"):
            learn(bk, ex, bias)

    def test_validation_accepts_bk_with_target_name_at_another_arity(self):
        bk = BackgroundKnowledge.from_source("f(a,b).")
        bias = Bias(targets=[("f", 1)], body_preds=[("f", 2)])
        ex = ExampleSet((atom("f(a)"),), ())
        learn(bk, ex, bias, SearchConfig(timeout=5))


class TestOracleEquality:
    def test_learn_matches_exhaustive_minimum(self):
        rng = random.Random(83)
        for trial in range(25):
            bk, ex, bias, consts = tiny_task(rng)
            h, stats = learn(bk, ex, bias, SearchConfig(timeout=30))
            assert stats.completed, "tiny task should terminate"
            want = exhaustive_min_cost(bias, bk.facts, bk.rules, ex, consts)
            assert stats.best_cost == want, (trial, h)
            # and the returned hypothesis really has that cost
            ev = Evaluator(bk, ex)
            assert mdl_cost(h, ev.test(h)) == stats.best_cost
            assert fixpoint_cost(bk, ex, h, consts) == stats.best_cost
            assert stats.trajectory[-1][1] == stats.best_cost

    def test_learn_matches_exhaustive_minimum_on_recursive_optimum(self):
        # reachability along the chain a->b->c->d->e: only a base rule plus
        # a recursive rule covers all ten reachable pairs and nothing else
        nodes = "abcde"
        facts = [Literal("edge", (x, y)) for x, y in zip(nodes, nodes[1:])]
        bk = BackgroundKnowledge(facts=facts)
        ex = ExampleSet(
            tuple(Literal("path", (x, y)) for i, x in enumerate(nodes)
                  for y in nodes[i + 1:]),
            tuple(Literal("path", (x, y)) for i, x in enumerate(nodes)
                  for y in nodes[:i + 1]))
        bias = Bias(targets=[("path", 2)], body_preds=[("edge", 2)],
                    max_vars=3, max_body=2, max_rules=2, allow_recursion=True)
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=30))
        assert stats.completed
        assert stats.best_cost == 5
        assert stats.best_cost == exhaustive_min_cost(bias, bk.facts, bk.rules,
                                                      ex, tuple(nodes))
        assert len(h) == 2 and is_recursive(h)

    @pytest.mark.parametrize("pos, neg, cost", [
        ("c0 c1 c2 c3 c4 c5", "c6 c7", 4),
        # f(c6) flipped from negative to positive: no rule covers it
        ("c0 c1 c2 c3 c4 c5 c6", "c7", 5),
    ], ids=["clean", "flipped"])
    def test_learn_matches_exhaustive_minimum_on_two_rule_optimum(
            self, pos, neg, cost):
        # p holds on c0-c2 and r on c3-c5, so only the union of
        # f(A):- p(A). and f(A):- r(A). covers every positive; the bias has
        # no recursion, so generate yields single rules only and the union
        # can come only from combine
        consts = tuple(f"c{i}" for i in range(8))
        facts = [Literal("p", (c,)) for c in consts[:3]]
        facts += [Literal("r", (c,)) for c in consts[3:6]]
        bk = BackgroundKnowledge(facts=facts)
        ex = ExampleSet(tuple(atom(f"f({c})") for c in pos.split()),
                        tuple(atom(f"f({c})") for c in neg.split()))
        bias = Bias(targets=[("f", 1)], body_preds=[("p", 1), ("r", 1)],
                    max_vars=2, max_body=2, max_rules=2)
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=30))
        assert stats.completed
        assert stats.best_cost == cost == exhaustive_min_cost(
            bias, bk.facts, bk.rules, ex, consts)
        assert h == prog("f(A):- p(A).  f(A):- r(A).")
        assert stats.combine_calls > 0
        # the union combine returns, re-tested from first principles
        assert fixpoint_cost(bk, ex, h, consts) == stats.best_cost
        assert stats.trajectory[-1][1] == stats.best_cost

    def test_learn_matches_exhaustive_minimum_on_union_past_max_rules(self):
        # p, q and r each hold on three of nine positives: the union of the
        # three rules costs 6, and any two of them cost 7.  Combine's unions
        # are not bounded by max_rules, so the union is in the space
        consts = tuple(f"c{i}" for i in range(9))
        facts = [Literal("pqr"[i // 3], (c,)) for i, c in enumerate(consts)]
        bk = BackgroundKnowledge(facts=facts)
        ex = ExampleSet(tuple(atom(f"f({c})") for c in consts), ())
        bias = Bias(targets=[("f", 1)],
                    body_preds=[("p", 1), ("q", 1), ("r", 1)],
                    max_vars=1, max_body=1, max_rules=2)
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=30))
        assert stats.completed
        assert h == prog("f(A):- p(A).  f(A):- q(A).  f(A):- r(A).")
        assert stats.best_cost == 6 == exhaustive_min_cost(
            bias, bk.facts, bk.rules, ex, consts)
        assert fixpoint_cost(bk, ex, h, consts) == stats.best_cost

    def test_learn_matches_exhaustive_minimum_on_union_tasks(self):
        rng = random.Random(7)
        past_max_rules = 0
        for trial in range(150):
            bk, ex, bias, consts = union_task(rng)
            h, stats = learn(bk, ex, bias, SearchConfig(timeout=30))
            assert stats.completed
            want = exhaustive_min_cost(bias, bk.facts, bk.rules, ex, consts)
            assert stats.best_cost == want, (trial, h)
            assert fixpoint_cost(bk, ex, h, consts) == stats.best_cost
            narrow = min(fixpoint_cost(bk, ex, g, consts)
                         for g in exhaustive_space(bias, ex.num_pos - 1)
                         if len(g) <= bias.max_rules)
            past_max_rules += narrow > want
        # some draws need more than max_rules rules
        assert past_max_rules > 0

    def test_constraints_do_not_change_the_result(self):
        rng = random.Random(89)
        for trial in range(15):
            bk, ex, bias, consts = tiny_task(rng)
            h_on, s_on = learn(bk, ex, bias,
                               SearchConfig(timeout=30))
            h_off, s_off = learn(bk, ex, bias,
                                 SearchConfig(timeout=30,
                                              enable_noisy_constraints=False))
            assert s_on.best_cost == s_off.best_cost, trial
            assert s_on.programs_tested <= s_off.programs_tested


class TestPrunedCandidates:
    @staticmethod
    def learn_recording_pruned(monkeypatch, bk, ex, bias):
        """learn, every candidate the store pruned during it, and every
        candidate the generator skipped because each of its rules calls a
        target."""
        pruned, skipped = [], []
        singleton_pruned = ConstraintStore.singleton_pruned
        violates = ConstraintStore.violates
        skip = GeneratorState._skip

        def record_singleton(store, rule):
            hit = singleton_pruned(store, rule)
            if hit:
                pruned.append(frozenset((rule,)))
            return hit

        def record_program(store, h, size):
            hit = violates(store, h, size)
            if hit:
                pruned.append(frozenset(h))
            return hit

        def record_skip(gen, h):
            skipped.append(h)
            skip(gen, h)

        monkeypatch.setattr(ConstraintStore, "singleton_pruned", record_singleton)
        monkeypatch.setattr(ConstraintStore, "violates", record_program)
        monkeypatch.setattr(GeneratorState, "_skip", record_skip)
        _, stats = learn(bk, ex, bias, SearchConfig(timeout=30))
        monkeypatch.undo()
        assert stats.completed
        assert stats.candidates_skipped == len(skipped)
        # the skip comes before any store query, and only without a base case
        targets = set(bias.targets)
        assert all(naive_has_base_case(h, targets) for h in pruned)
        assert not any(naive_has_base_case(h, targets) for h in skipped)
        return stats, pruned, skipped

    @staticmethod
    def assert_none_cheaper(bk, ex, stats, pruned):
        ev = Evaluator(bk, ex)
        for h in pruned:
            assert mdl_cost(h, ev.test(h)) >= stats.best_cost, h

    def test_tiny_tasks(self, monkeypatch):
        # neither the noisy constraints nor the base-case skip ever drops
        # a program cheaper than the one returned, single rules and
        # recursive programs alike
        rng = random.Random(101)
        total = recursive = 0
        for _ in range(200):
            bk, ex, bias, _ = tiny_task(rng)
            stats, pruned, skipped = self.learn_recording_pruned(
                monkeypatch, bk, ex, bias)
            self.assert_none_cheaper(bk, ex, stats, pruned + skipped)
            total += len(pruned)
            recursive += sum(map(is_recursive, pruned + skipped))
        assert total >= 100 and recursive >= 1

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_evens(self, monkeypatch, noise):
        task = generate_task("evens", 20, 0).with_noise(noise, 0)
        stats, pruned, skipped = self.learn_recording_pruned(
            monkeypatch, task.bk, task.train, task.bias)
        self.assert_none_cheaper(task.bk, task.train, stats, pruned + skipped)
        assert any(map(is_recursive, pruned + skipped))


class TestBaseCase:
    def test_evens_never_tests_a_program_without_one(self, monkeypatch):
        # a program in which every rule calls a target proves nothing
        task = generate_task("evens", 20, 0)
        tested = []
        test = Evaluator.test

        def record(ev, h):
            tested.append(h)
            return test(ev, h)

        monkeypatch.setattr(Evaluator, "test", record)
        _, stats = learn(task.bk, task.train, task.bias, SearchConfig(timeout=30))
        assert stats.completed and stats.candidates_skipped > 0
        assert len(tested) >= stats.programs_tested
        targets = set(task.bias.targets)
        assert all(naive_has_base_case(h, targets) for h in tested if h)


class TestProofShortcuts:
    @pytest.mark.parametrize("family, n", [("evens", 40), ("sorted", 20)])
    def test_same_search_without_them(self, monkeypatch, family, n):
        # a coverage decided without a proof is the one the proofs give, so
        # learn tests the same programs in the same order at the same costs
        task = generate_task(family, n, 0)
        test = Evaluator.test

        def run():
            tested = []

            def record(ev, h):
                cov = test(ev, h)
                tested.append((h, mdl_cost(h, cov)))
                return cov

            monkeypatch.setattr(Evaluator, "test", record)
            h, stats = learn(task.bk, task.train, task.bias,
                             SearchConfig(timeout=120))
            assert stats.completed
            return tested, h, stats

        tested, h, stats = run()
        assert stats.proofs_skipped > 0
        monkeypatch.setattr(Evaluator, "_live_calls", lambda ev, h: None)
        tested_off, h_off, stats_off = run()
        assert stats_off.proofs_skipped == 0
        assert tested == tested_off
        assert (h, stats.best_cost) == (h_off, stats_off.best_cost)


class TestSameSearch:
    # the digest of every test (program, masks, budget exhaustions) of four
    # small searches.  A change to the evaluator or the search that should
    # leave the search alone has to leave these alone; the resolution steps
    # are not pinned, so proving the same coverages with less work passes
    @pytest.mark.parametrize("family, n, noise, max_tests, sha256, tests", [
        ("evens", 50, 0.0, None,
         "ca2470b1fdf2e4c1fb8cb029183d7dee80f5f72dcc851cbbe11bad2804550409", 51),
        ("zendo1", 20, 0.0, None,
         "1704c1a0ca9675284d49165a286367674a34aa9d2b7057d5d804d7c7d7a24ced", 71),
        ("sorted", 10, 0.0, None,
         "d5bdf1d74381065f0102125ae480b1b700d511f8211d3111141866864aaa153d", 39),
        ("dropk", 30, 0.1, 100,
         "d729536b57756b401a904687f26eed2ad4b6fc6718ff23e119d77608ce467e6b", 100),
    ])
    def test_digest_is_pinned(self, family, n, noise, max_tests, sha256, tests):
        _, summary = search_record.record(family, n, noise, max_tests=max_tests)
        assert (summary["sha256"], summary["tests"]) == (sha256, tests)


class TestTimeout:
    def test_timeout_returns_best_so_far(self):
        rng = random.Random(97)
        bk, ex, bias, _ = tiny_task(rng)
        h, stats = learn(bk, ex, bias, SearchConfig(timeout=1e-6))
        assert stats.timed_out
        assert stats.best_cost <= ex.num_pos

    @pytest.mark.parametrize("family", ["dropk", "sorted", "reverse", "evens",
                                        "zendo1", "zendo2"])
    def test_timeout_bounds_pool_build_and_assembly(self, family):
        # these calls spend the first seconds building rule pools,
        # assembling candidates, testing and combining, which all check
        # the deadline; the list families have 40 clean examples, and zendo
        # has 100 with 10% of the labels flipped
        n, noise = (100, 0.1) if family.startswith("zendo") else (40, 0.0)
        task = generate_task(family, n, 0).with_noise(noise, 0)
        t0 = time.perf_counter()
        learn(task.bk, task.train, task.bias, SearchConfig(timeout=1))
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("family, n, noise, timeout", [
        ("evens", 30, 0.1, 2),
        ("dropk", 40, 0.0, 2),
        ("dropk", 100, 0.1, 2),
        ("reverse", 100, 0.1, 2),
        ("sorted", 100, 0.1, 2),
    ])
    def test_timeout_bounds_test(self, family, n, noise, timeout):
        # these calls reach programs whose test can run every example to
        # its step budget, so only the deadline inside SLD resolution stops
        # them (evens ran past 20 s when test did not check it); the last
        # three rows complete the list families at 10% noise
        task = generate_task(family, n, 0).with_noise(noise, 0)
        t0 = time.perf_counter()
        learn(task.bk, task.train, task.bias, SearchConfig(timeout=timeout))
        assert time.perf_counter() - t0 < timeout + 0.5
