import random
import time

import pytest

from mdlsynth.combine import (
    CombineResult,
    PromisingPool,
    build_instance,
    decode,
    solve,
)
from mdlsynth.evaluate import (
    BackgroundKnowledge,
    Coverage,
    Evaluator,
    ExampleSet,
    SearchTimeout,
)
from mdlsynth.logic import prog_size
from mdlsynth.parsing import parse_ground_atom, parse_rules

from .oracles import brute_combine_min


def prog(text):
    return frozenset(parse_rules(text))


def entry_cov(pos, neg, npos, nneg):
    return Coverage(pos, neg, npos, nneg)


def random_pool(rng, n_entries, npos, nneg):
    """A pool plus the (size, pos, neg) triples actually stored."""
    pool = PromisingPool()
    triples = []
    body_preds = ["p", "q", "r", "s", "t", "u", "v", "w"]
    i = 0
    while len(pool) < n_entries and i < n_entries * 4:
        i += 1
        pos = rng.getrandbits(npos)
        while pos == 0:
            pos = rng.getrandbits(npos) | 1
        neg = rng.getrandbits(nneg) if nneg else 0
        # synthesize a unique program of the desired size
        nlits = rng.randint(1, 3)
        rules = parse_rules(
            f"f(A):- {','.join(f'{body_preds[rng.randrange(len(body_preds))]}{i}(A)' for _ in range(nlits))}."
        )
        h = frozenset(rules)
        if pool.add(h, entry_cov(pos, neg, npos, nneg)):
            pass
    return pool


class TestPoolGate:
    def test_accepts_partially_complete_nonrecursive(self):
        pool = PromisingPool()
        h = prog("f(A):- head(A,1).")
        assert pool.add(h, entry_cov(0b1, 0, 3, 0))

    def test_rejects_recursive(self):
        pool = PromisingPool()
        h = prog("f(A):- head(A,0).  f(A):- tail(A,B),f(B).")
        with pytest.raises(ValueError):
            pool.add(h, entry_cov(0b1, 0, 3, 0))

    def test_rejects_zero_tp(self):
        pool = PromisingPool()
        with pytest.raises(ValueError):
            pool.add(prog("f(A):- head(A,1)."), entry_cov(0, 0, 3, 0))

    def test_rejects_exact_duplicate(self):
        pool = PromisingPool()
        c = entry_cov(0b1, 0, 3, 0)
        assert pool.add(prog("f(A):- head(A,1)."), c)
        assert not pool.add(prog("f(A):- head(A,0)."), c)
        assert len(pool) == 1

    def test_dominated_insert_rejected(self):
        pool = PromisingPool()
        assert pool.add(prog("f(A):- head(A,1)."), entry_cov(0b111, 0b0, 3, 2))
        # worse positive coverage, same size and negatives: rejected
        assert not pool.add(prog("f(A):- head(A,0)."), entry_cov(0b011, 0b0, 3, 2))
        # identical coverage and size: rejected (equal is not strictly better)
        assert not pool.add(prog("f(A):- tail(A,B)."), entry_cov(0b111, 0b0, 3, 2))
        assert len(pool) == 1

    def test_new_dominating_entry_evicts(self):
        pool = PromisingPool()
        old = prog("f(A):- head(A,1),tail(A,B).")
        assert pool.add(old, entry_cov(0b011, 0b1, 3, 2))
        newer = prog("f(A):- head(A,0).")
        assert pool.add(newer, entry_cov(0b111, 0b0, 3, 2))
        assert len(pool) == 1
        assert pool.entries[0].h == newer


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
        pool.add(prog("f(A):- p(A)."), entry_cov(0b001, 0, 3, 0))
        pool.add(prog("f(A):- q(A)."), entry_cov(0b010, 0, 3, 0))
        pool.add(prog("f(A):- r(A),s(A),t(A),u(A)."), entry_cov(0b111, 0, 3, 0))
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
        h = prog("f(A):- head(A,1).")
        pool.add(h, entry_cov(0b111, 0, 3, 0))
        ex = ExampleSet(tuple(parse_ground_atom(f"f({i})") for i in range(3)), ())
        res = solve(pool, ex, ub=3)
        assert res is not None and res.cost == 2
        assert decode(res) == h

    def test_shared_rules_merge(self):
        h1 = prog("f(A):- head(A,1).  f(A):- head(A,0).")
        h2 = prog("f(A):- head(A,1).  f(A):- head(A,2).")
        union = h1 | h2
        assert prog_size(union) == 6 < prog_size(h1) + prog_size(h2)
        res = CombineResult(
            (type("E", (), {"h": h1})(), type("E", (), {"h": h2})()), 0)
        assert decode(res) == union


class TestInstanceDump:
    def test_wcnf_shape(self):
        pool = PromisingPool()
        pool.add(prog("f(A):- p(A)."), entry_cov(0b01, 0b1, 2, 1))
        pool.add(prog("f(A):- q(A)."), entry_cov(0b10, 0b0, 2, 1))
        ex = ExampleSet(
            (parse_ground_atom("f(0)"), parse_ground_atom("f(1)")),
            (parse_ground_atom("f(9)"),),
        )
        inst = build_instance(pool, ex)
        text = inst.to_wcnf()
        lines = text.strip().splitlines()
        assert lines[0].startswith("c ")
        header = lines[1].split()
        assert header[:2] == ["p", "wcnf"]
        nvars, nclauses, top = int(header[2]), int(header[3]), int(header[4])
        assert nvars == 2 + 2 + 1
        body = lines[2:]
        assert len(body) == nclauses
        # hard clauses carry the top weight; soft weights are below it
        hard = [l for l in body if l.startswith(f"{top} ")]
        # one per positive example, one per (negative, coverer) pair
        assert len(hard) == 2 + 1
        for l in body:
            assert l.split()[-1] == "0"

    def test_soft_weights_sum(self):
        pool = PromisingPool()
        pool.add(prog("f(A):- p(A)."), entry_cov(0b1, 0, 1, 1))
        ex = ExampleSet((parse_ground_atom("f(0)"),), (parse_ground_atom("f(9)"),))
        text = build_instance(pool, ex).to_wcnf()
        top = int(text.splitlines()[1].split()[4])
        # soft total: size 2 + one pos + one neg = 4, so top = 5
        assert top == 5
