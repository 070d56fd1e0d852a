import random

import pytest

from mdlsynth.logic import (
    Literal,
    Rule,
    Var,
    canonicalize,
    clause_subsumes,
    is_recursive,
    is_separable,
    prog_size,
)
from mdlsynth.parsing import parse_rules

from .helpers import program_subsumes, random_hypothesis, random_rule
from .oracles import brute_alpha_equivalent, brute_clause_subsumes, brute_program_subsumes


def rules(text):
    return parse_rules(text)


def prog(text):
    return frozenset(parse_rules(text))


class TestSize:
    def test_empty_hypothesis(self):
        assert prog_size(frozenset()) == 0

    def test_single_rule(self):
        assert prog_size(prog("f(A):- head(A,1).")) == 2

    def test_three_rule_program_with_bodies_four_five_six(self):
        h = prog("""
            next_score(A,B,C):- does(A,D,E),does(A,B,E),my_true_score(A,B,C),different(D,B).
            next_score(A,B,C):- my_true_score(A,G,C),beats(D,E),different(G,F),does(A,F,D),does(A,B,E).
            next_score(A,B,C):- my_true_score(A,B,E),beats(D,G),does(A,F,G),player(F),does(A,B,D),my_succ(E,C).
        """)
        assert len(h) == 3
        assert prog_size(h) == 18

    def test_additive_over_disjoint_union(self):
        rng = random.Random(7)
        for _ in range(200):
            h1 = random_hypothesis(rng)
            h2 = frozenset(
                r for r in random_hypothesis(rng, preds=[("r", 2), ("s", 1)])
            )
            if h1 & h2:
                continue
            assert prog_size(h1 | h2) == prog_size(h1) + prog_size(h2)


class TestClauseSubsumes:
    def test_identity_substitution_subset_body(self):
        c1 = rules("f(A):- head(A,1).")[0]
        c2 = rules("f(A):- head(A,1),tail(A,B).")[0]
        assert clause_subsumes(c1, c2)

    def test_cannot_shrink(self):
        c1 = rules("f(A):- head(A,1),tail(A,B).")[0]
        c2 = rules("f(A):- head(A,1).")[0]
        assert not clause_subsumes(c1, c2)

    def test_variable_merging_allowed(self):
        c1 = rules("f(A):- q(A,B).")[0]
        c2 = rules("f(A):- q(A,A).")[0]
        assert clause_subsumes(c1, c2)
        assert not clause_subsumes(c2, c1)

    def test_against_substitution_enumeration_oracle(self):
        rng = random.Random(11)
        agree = 0
        for _ in range(400):
            c1 = random_rule(rng, max_body=2, max_vars=3)
            c2 = random_rule(rng, max_body=3, max_vars=3)
            got = clause_subsumes(c1, c2)
            want = brute_clause_subsumes(c1, c2)
            assert got == want, (c1, c2)
            agree += got
        assert agree > 0  # the sample hits positive cases


class TestProgramSubsumes:
    def test_reflexive(self):
        rng = random.Random(3)
        for _ in range(100):
            h = random_hypothesis(rng)
            assert program_subsumes(h, h)

    def test_specialisation_example(self):
        h1 = prog("f(A):- head(A,1).")
        h2 = prog("f(A):- head(A,1),tail(A,B).")
        assert program_subsumes(h1, h2)

    def test_empty_program_subsumes_nothing_nonempty(self):
        h = prog("f(A):- head(A,1).")
        assert not program_subsumes(frozenset(), h)
        assert program_subsumes(h, frozenset())
        assert program_subsumes(frozenset(), frozenset())

    def test_transitive(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(800):
            h1 = random_hypothesis(rng)
            h2 = random_hypothesis(rng)
            h3 = random_hypothesis(rng)
            if program_subsumes(h1, h2) and program_subsumes(h2, h3):
                checked += 1
                assert program_subsumes(h1, h3)
        assert checked > 5

    def test_against_oracle(self):
        rng = random.Random(13)
        for _ in range(150):
            h1 = random_hypothesis(rng, max_rules=2, max_body=2)
            h2 = random_hypothesis(rng, max_rules=2, max_body=2)
            assert program_subsumes(h1, h2) == brute_program_subsumes(h1, h2)


class TestStructuralPredicates:
    def test_single_rule_not_separable(self):
        assert not is_separable(prog("f(A):- head(A,0)."))

    def test_recursive_pair_not_separable(self):
        h = prog("f(A):- head(A,0).  f(A):- tail(A,B),f(B).")
        assert not is_separable(h)
        assert is_recursive(h)

    def test_two_nonrecursive_rules_separable(self):
        h = prog("f(A):- head(A,0).  f(A):- head(A,1).")
        assert is_separable(h)
        assert not is_recursive(h)

    def test_nonrecursive_single(self):
        assert not is_recursive(prog("f(A):- head(A,1)."))


class TestCanonicalize:
    def test_alpha_variants_collapse(self):
        r1 = rules("f(X):- tail(X,Y).")[0]
        r2 = rules("f(B):- tail(B,Q).")[0]
        assert r1 == r2

    def test_body_order_irrelevant(self):
        r1 = rules("f(A):- head(A,1),tail(A,B).")[0]
        r2 = rules("f(A):- tail(A,B),head(A,1).")[0]
        assert r1 == r2

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(500):
            r = random_rule(rng)
            assert canonicalize(r) == canonicalize(canonicalize(r))

    def test_equal_exactly_for_alpha_equivalent(self):
        rng = random.Random(19)
        pairs = 0
        for _ in range(400):
            r1 = random_rule(rng, max_body=2, max_vars=3)
            r2 = random_rule(rng, max_body=2, max_vars=3)
            want = brute_alpha_equivalent(r1, r2)
            got = canonicalize(r1) == canonicalize(r2)
            assert got == want, (r1, r2)
            pairs += want
        assert pairs > 0

    def test_symmetric_bodies(self):
        r1 = rules("f(A):- q(A,B),q(A,C),p(B).")[0]
        r2 = rules("f(A):- q(A,C),q(A,B),p(C).")[0]
        assert canonicalize(r1) == canonicalize(r2)


class TestSubsumptionEntailment:
    def test_subsuming_clause_covers_at_least_as_much(self):
        # checked at the evaluator level in test_evaluate; here the pure
        # structural claim: subsumption implies body-subset under theta
        c1 = rules("f(A):- q(A,B).")[0]
        c2 = rules("f(A):- q(A,B),p(B).")[0]
        assert clause_subsumes(c1, c2)
