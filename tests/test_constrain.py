import random

import pytest

from mdlsynth.constrain import (
    ConstraintStore,
    Kind,
    NoisyConstraint,
    derive,
)
from mdlsynth.evaluate import Coverage
from mdlsynth.logic import prog_size, rule_size
from mdlsynth.parsing import parse_rules

from .helpers import connected_random_rule, random_hypothesis


def prog(text):
    return frozenset(parse_rules(text))


H = prog("f(A):- head(A,1).")
BIG = 1000  # a max size that keeps every derived bound non-vacuous


def cov(tp, fn, fp, tn):
    return Coverage((1 << tp) - 1, (1 << fp) - 1, tp + fn, fp + tn)


def bounds_of(cons):
    return {c.kind: c.bound for c in cons}


class TestDerive:
    def test_worked_example(self):
        # tp=3 fp=0 size=2 |E+|=10 fn=7 best cost so far 10
        c = cov(tp=3, fn=7, fp=0, tn=5)
        got = bounds_of(derive(H, c, best_cost=10, num_pos=10, max_size=BIG))
        assert got[Kind.SPECIALISATION] == min(3, 2 + 0) == 2
        assert got[Kind.GENERALISATION] == min(10 - 0, 7 + 2, 10 - 9 + 10 + 2) == 9

    def test_totally_incomplete_prunes_all_specialisations(self):
        c = cov(tp=0, fn=10, fp=0, tn=5)
        got = bounds_of(derive(H, c, 10, 10, BIG))
        # bound clamps to 1; no program of size 1 exists, so this prunes
        # every proper specialisation
        assert got[Kind.SPECIALISATION] == 1

    def test_consistent_complete_generalisation_bound_is_size(self):
        c = cov(tp=10, fn=0, fp=0, tn=5)
        got = bounds_of(derive(H, c, 10, 10, BIG))
        assert got[Kind.GENERALISATION] == prog_size(H) == 2

    def test_vacuous_bounds_dropped(self):
        c = cov(tp=9, fn=1, fp=3, tn=2)
        # spec bound = min(9, 2+3) = 5; with max size 5 it prunes nothing
        cons = derive(H, c, 10, 10, max_size=5)
        assert Kind.SPECIALISATION not in bounds_of(cons)

    def test_strictness_policy_instance(self):
        # |E+|=10, fp=4: prune generalisations of size >= 7, i.e. > 6; the
        # other two terms, fn + size = 7 and 10 - 11 + 10 + 2 = 11, are looser
        c = cov(tp=5, fn=5, fp=4, tn=1)
        assert bounds_of(derive(H, c, 10, 10, BIG))[Kind.GENERALISATION] == 6

    def test_strictness_policy_all_fp(self):
        # |E+| - fp = 0, clamped to 1: every proper generalisation is pruned
        c = cov(tp=5, fn=5, fp=10, tn=0)
        assert bounds_of(derive(H, c, 10, 10, BIG))[Kind.GENERALISATION] == 1

    def test_monotonicity_in_tp_and_fp(self):
        rng = random.Random(51)
        for _ in range(300):
            npos, nneg = rng.randint(2, 20), rng.randint(2, 20)
            tp1 = rng.randint(0, npos)
            tp2 = rng.randint(tp1, npos)
            fp = rng.randint(0, nneg)
            c1 = cov(tp1, npos - tp1, fp, nneg - fp)
            c2 = cov(tp2, npos - tp2, fp, nneg - fp)
            d1 = bounds_of(derive(H, c1, npos, npos, BIG))
            d2 = bounds_of(derive(H, c2, npos, npos, BIG))
            # specialisation bound is non-decreasing in tp
            assert d1[Kind.SPECIALISATION] <= d2[Kind.SPECIALISATION]
            fp1 = rng.randint(0, nneg)
            fp2 = rng.randint(fp1, nneg)
            tp = rng.randint(0, npos)
            c3 = cov(tp, npos - tp, fp1, nneg - fp1)
            c4 = cov(tp, npos - tp, fp2, nneg - fp2)
            d3 = bounds_of(derive(H, c3, npos, npos, BIG))
            d4 = bounds_of(derive(H, c4, npos, npos, BIG))
            # the fp-family generalisation bound is non-increasing in fp
            assert d4[Kind.GENERALISATION] <= d3[Kind.GENERALISATION]

    def test_bound_invariant(self):
        rng = random.Random(53)
        for _ in range(200):
            npos, nneg = rng.randint(1, 15), rng.randint(0, 15)
            tp = rng.randint(0, npos)
            fp = rng.randint(0, nneg)
            c = cov(tp, npos - tp, fp, nneg - fp)
            best = rng.randint(1, npos)
            for con in derive(H, c, best, npos, rng.randint(3, 30)):
                assert con.bound >= 1


class TestNoisyConstraint:
    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            NoisyConstraint(Kind.SPECIALISATION, H, 0)


class TestStore:
    def test_duplicate_keeps_strongest(self):
        store = ConstraintStore()
        assert store.add(NoisyConstraint(Kind.SPECIALISATION, H, 5))
        assert not store.add(NoisyConstraint(Kind.SPECIALISATION, H, 7))
        assert store.add(NoisyConstraint(Kind.SPECIALISATION, H, 3))
        spec = prog("f(A):- head(A,1),tail(A,B),tail(B,C).")  # size 4
        assert store.violates(spec, prog_size(spec))

    def test_program_at_bound_never_pruned(self):
        store = ConstraintStore()
        store.add(NoisyConstraint(Kind.SPECIALISATION, H, prog_size(H)))
        assert not store.violates(H, prog_size(H))

    def test_generalisation_pruned_singleton_prunes_every_program_holding_it(self):
        # a generalisation constraint (anchor a, bound k) prunes {r} when r
        # subsumes every rule of a and size(r) > k; any program h holding r
        # then subsumes a too, and size(h) > size(r) > k
        rng = random.Random(61)
        hits = 0
        for _ in range(200):
            store = ConstraintStore()
            for _ in range(rng.randint(1, 4)):
                store.add(NoisyConstraint(Kind.GENERALISATION,
                                          random_hypothesis(rng),
                                          rng.randint(1, 4)))
            for _ in range(10):
                r = connected_random_rule(rng, max_body=2)
                if not store.violates((r,), rule_size(r)):
                    continue
                hits += 1
                for _ in range(5):
                    h, n = {r}, rng.randint(2, 3)
                    while len(h) < n:
                        h.add(connected_random_rule(rng))
                    h = frozenset(h)
                    assert store.violates(h, prog_size(h)), (r, h)
        assert hits >= 100
