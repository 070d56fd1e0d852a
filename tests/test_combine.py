import random
import time

import pytest

from mdlsynth.combine import (
    CombineResult,
    PromisingPool,
    decode,
    solve,
)
from mdlsynth.evaluate import Coverage, ExampleSet, SearchTimeout
from mdlsynth.parsing import parse_ground_atom, parse_rules

from .oracles import brute_combine_min


def rule(text):
    (r,) = parse_rules(text)
    return r


def entry_cov(pos, neg, npos, nneg):
    return Coverage(pos, neg, npos, nneg)


def random_pool(rng, n_entries, npos, nneg):
    """A pool of up to ``n_entries`` random rules over npos positive and
    nneg negative examples."""
    pool = PromisingPool()
    body_preds = ["p", "q", "r", "s", "t", "u", "v", "w"]
    i = 0
    while len(pool) < n_entries and i < n_entries * 4:
        i += 1
        pos = rng.getrandbits(npos)
        while pos == 0:
            pos = rng.getrandbits(npos) | 1
        neg = rng.getrandbits(nneg) if nneg else 0
        # synthesize a unique rule of the desired size
        nlits = rng.randint(1, 3)
        body = ",".join(f"{body_preds[rng.randrange(len(body_preds))]}{i}(A)"
                        for _ in range(nlits))
        pool.add(rule(f"f(A):- {body}."), entry_cov(pos, neg, npos, nneg))
    return pool


def union_pool(rng, n_entries, npos, nneg):
    """A pool of up to ``n_entries`` rules that each cover 1 to 3 of the
    npos positive examples, all in one block of three, and at most one of
    the nneg negatives.  A rule pays for itself only when it covers a whole
    block, and rules on different blocks add up, so the optimum is often a
    union of several rules."""
    pool = PromisingPool()
    for i in range(n_entries):
        block = 3 * rng.randrange(npos // 3)
        covered = rng.sample(range(3), rng.choice((1, 2, 3, 3)))
        pos = sum(1 << (block + j) for j in covered)
        neg = 1 << rng.randrange(nneg) if nneg and rng.random() < 0.2 else 0
        body = ",".join(f"p{i}_{k}(A)"
                        for k in range(1 if rng.random() < 0.75 else 2))
        pool.add(rule(f"f(A):- {body}."), entry_cov(pos, neg, npos, nneg))
    return pool


class TestPoolGate:
    def test_accepts_partially_complete_nonrecursive(self):
        pool = PromisingPool()
        assert pool.add(rule("f(A):- head(A,1)."), entry_cov(0b1, 0, 3, 0))

    def test_rejects_recursive(self):
        pool = PromisingPool()
        with pytest.raises(ValueError):
            pool.add(rule("f(A):- tail(A,B),f(B)."), entry_cov(0b1, 0, 3, 0))

    def test_rejects_zero_tp(self):
        pool = PromisingPool()
        with pytest.raises(ValueError):
            pool.add(rule("f(A):- head(A,1)."), entry_cov(0, 0, 3, 0))

    def test_rejects_exact_duplicate(self):
        pool = PromisingPool()
        c = entry_cov(0b1, 0, 3, 0)
        assert pool.add(rule("f(A):- head(A,1)."), c)
        assert not pool.add(rule("f(A):- head(A,0)."), c)
        assert len(pool) == 1

    def test_dominated_insert_rejected(self):
        pool = PromisingPool()
        assert pool.add(rule("f(A):- head(A,1)."), entry_cov(0b111, 0b0, 3, 2))
        # worse positive coverage, same size and negatives: rejected
        assert not pool.add(rule("f(A):- head(A,0)."), entry_cov(0b011, 0b0, 3, 2))
        # identical coverage and size: rejected (equal is not strictly better)
        assert not pool.add(rule("f(A):- tail(A,B)."), entry_cov(0b111, 0b0, 3, 2))
        assert len(pool) == 1

    def test_new_dominating_entry_evicts(self):
        pool = PromisingPool()
        old = rule("f(A):- head(A,1),tail(A,B).")
        assert pool.add(old, entry_cov(0b011, 0b1, 3, 2))
        newer = rule("f(A):- head(A,0).")
        assert pool.add(newer, entry_cov(0b111, 0b0, 3, 2))
        assert len(pool) == 1
        assert pool.entries[0].rule == newer

    def test_entries_are_the_non_dominated_arrivals_in_order(self):
        # naive reference over the whole arrival sequence: an arrival
        # survives when no arrival strictly dominates it and no earlier
        # one has the same (pos, neg, size)
        def covered(mask):
            return {i for i in range(8) if (mask >> i) & 1}

        def at_least_as_good(a, b):
            return (covered(a[0]) >= covered(b[0])
                    and covered(a[1]) <= covered(b[1]) and a[2] <= b[2])

        rng = random.Random(73)
        for trial in range(300):
            pool = PromisingPool()
            arrivals = []
            for i in range(rng.randint(0, 12)):
                pos = rng.randrange(1, 8)
                neg = rng.randrange(4)
                nlits = rng.randint(1, 3)
                r = rule("f(A):- " + ",".join(
                    f"p{i}_{k}(A)" for k in range(nlits)) + ".")
                arrivals.append(((pos, neg, nlits + 1), r))
                pool.add(r, entry_cov(pos, neg, 3, 2))
            want = [
                r for i, (t, r) in enumerate(arrivals)
                if not any(at_least_as_good(u, t) and not at_least_as_good(t, u)
                           for u, _ in arrivals)
                and not any(u == t for u, _ in arrivals[:i])
            ]
            assert [e.rule for e in pool.entries] == want, trial
            for e in pool.entries:
                assert e.size == len(e.rule.body) + 1


class TestSolve:
    def test_empty_pool_empty_selection(self):
        pool = PromisingPool()
        ex = ExampleSet(tuple(parse_ground_atom(f"f({i})") for i in range(5)), ())
        res = solve(pool, ex, ub=10)
        assert res is not None
        assert res.cost == 5 and res.selected == ()

    def test_unsat_when_even_empty_exceeds_ub(self):
        pool = PromisingPool()
        ex = ExampleSet(tuple(parse_ground_atom(f"f({i})") for i in range(5)), ())
        assert solve(pool, ex, ub=4) is None

    def test_three_entry_worked_example(self):
        # entries covering {e1},{e2},{e1,e2,e3} with sizes 2,2,5; |E+|=3
        pool = PromisingPool()
        pool.add(rule("f(A):- p(A)."), entry_cov(0b001, 0, 3, 0))
        pool.add(rule("f(A):- q(A)."), entry_cov(0b010, 0, 3, 0))
        pool.add(rule("f(A):- r(A),s(A),t(A),u(A)."), entry_cov(0b111, 0, 3, 0))
        ex = ExampleSet(tuple(parse_ground_atom(f"f({i})") for i in range(3)), ())
        # oracle-fixed expectation: brute minimum over all subsets is 3
        # (empty selection), so ub=3 is satisfiable at cost 3 and ub=2 is not
        entries = [(2, 0b001, 0), (2, 0b010, 0), (5, 0b111, 0)]
        assert brute_combine_min(entries, 3) == 3
        res = solve(pool, ex, ub=3)
        assert res is not None and res.cost == 3
        assert solve(pool, ex, ub=2) is None

    def test_matches_brute_force_on_random_pools(self):
        rng = random.Random(61)
        for trial in range(200):
            npos = rng.randint(1, 10)
            nneg = rng.randint(0, 10)
            pool = random_pool(rng, rng.randint(0, 12), npos, nneg)
            ex = ExampleSet(
                tuple(parse_ground_atom(f"f({i})") for i in range(npos)),
                tuple(parse_ground_atom(f"f({100 + i})") for i in range(nneg)),
            )
            entries = [(e.size, e.cov.pos_mask, e.cov.neg_mask)
                       for e in pool.entries]
            want = brute_combine_min(entries, npos)
            ub = rng.randint(0, npos + 5)
            res = solve(pool, ex, ub)
            if want <= ub:
                assert res is not None and res.cost == want, trial
            else:
                assert res is None, trial

    def test_matches_brute_force_on_union_pools(self):
        # random_pool's optimum is a union of several rules in about 1 of
        # 200 trials; here it is in at least a quarter of them
        rng = random.Random(83)
        trials, unions = 200, 0
        for trial in range(trials):
            npos = 3 * rng.randint(2, 4)
            nneg = rng.randint(0, 6)
            pool = union_pool(rng, rng.randint(3, 10), npos, nneg)
            ex = ExampleSet(
                tuple(parse_ground_atom(f"f({i})") for i in range(npos)),
                tuple(parse_ground_atom(f"f({100 + i})") for i in range(nneg)),
            )
            entries = [(e.size, e.cov.pos_mask, e.cov.neg_mask)
                       for e in pool.entries]
            want = brute_combine_min(entries, npos)
            res = solve(pool, ex, npos)
            assert res is not None and res.cost == want, trial
            unions += len(res.selected) > 1
        assert unions >= trials // 4, unions

    def test_anti_monotone_in_ub(self):
        rng = random.Random(67)
        for _ in range(50):
            npos, nneg = rng.randint(1, 8), rng.randint(0, 8)
            pool = random_pool(rng, rng.randint(1, 8), npos, nneg)
            ex = ExampleSet(
                tuple(parse_ground_atom(f"f({i})") for i in range(npos)),
                tuple(parse_ground_atom(f"f({100 + i})") for i in range(nneg)),
            )
            prev = None
            for ub in range(npos + 6, -1, -1):
                res = solve(pool, ex, ub)
                if res is None:
                    # once unsat, smaller ubs stay unsat
                    for ub2 in range(ub, -1, -1):
                        assert solve(pool, ex, ub2) is None
                    break
                if prev is not None:
                    assert res.cost >= prev or res.cost == prev
                prev = res.cost

    def test_selection_cost_equals_recomputation(self):
        rng = random.Random(71)
        for _ in range(100):
            npos, nneg = rng.randint(1, 8), rng.randint(0, 8)
            pool = random_pool(rng, rng.randint(1, 10), npos, nneg)
            ex = ExampleSet(
                tuple(parse_ground_atom(f"f({i})") for i in range(npos)),
                tuple(parse_ground_atom(f"f({100 + i})") for i in range(nneg)),
            )
            res = solve(pool, ex, ub=npos + 5)
            if res is None:
                continue
            pos = neg = ssum = 0
            for e in res.selected:
                pos |= e.cov.pos_mask
                neg |= e.cov.neg_mask
                ssum += e.size
            assert res.cost == ssum + (npos - pos.bit_count()) + neg.bit_count()


class TestDeadline:
    def test_passed_deadline_raises(self):
        # combine is the only path to unions of rules, so its branch and
        # bound must stop at the search's deadline like every other stage
        npos, nneg = 30, 10
        pool = random_pool(random.Random(101), 25, npos, nneg)
        assert len(pool) >= 20
        ex = ExampleSet(
            tuple(parse_ground_atom(f"f({i})") for i in range(npos)),
            tuple(parse_ground_atom(f"f({100 + i})") for i in range(nneg)),
        )
        with pytest.raises(SearchTimeout):
            solve(pool, ex, npos, time.perf_counter() - 1)
        res = solve(pool, ex, npos, time.perf_counter() + 60)
        assert res == solve(pool, ex, npos)


class TestDecode:
    def test_empty_selection(self):
        assert decode(CombineResult((), 5)) == frozenset()

    def test_singleton_unchanged(self):
        pool = PromisingPool()
        r = rule("f(A):- head(A,1).")
        pool.add(r, entry_cov(0b111, 0, 3, 0))
        ex = ExampleSet(tuple(parse_ground_atom(f"f({i})") for i in range(3)), ())
        res = solve(pool, ex, ub=3)
        assert res is not None and res.cost == 2
        assert decode(res) == frozenset((r,))
