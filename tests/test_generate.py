import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from itertools import combinations, islice, product
from pathlib import Path

import pytest

import mdlsynth
from mdlsynth import generate
from mdlsynth.constrain import ConstraintStore, Kind, NoisyConstraint
from mdlsynth.evaluate import BackgroundKnowledge, SearchTimeout
from mdlsynth.generate import (
    Bias,
    BiasError,
    GeneratorState,
    _diagonal_picks,
    enumerate_rules,
    usable,
)
from mdlsynth.logic import Literal, Rule, canonicalize, prog_size
from mdlsynth.parsing import parse_rules
from mdlsynth.search import SearchConfig, learn
from mdlsynth.tasks import _BIAS, _GT, FAMILIES, generate_task

from .helpers import program_subsumes
from .oracles import (
    brute_canonical_key,
    exhaustive_space,
    naive_diagonal_picks,
    naive_has_base_case,
    naive_enumerate_rules,
    naive_usable,
    reference_pool_order_key,
)

SMALL_BIAS = Bias(
    targets=[("f", 1)],
    body_preds=[("head", 2), ("tail", 2)],
    max_vars=3,
    max_body=3,
    max_rules=2,
    allow_recursion=True,
    constants={"int": [0, 1]},
    arg_types={("f", 1): ("list",), ("head", 2): ("list", "int"),
               ("tail", 2): ("list", "list")},
)


def drain(gen, size):
    out = []
    while True:
        h = gen.next_program(size)
        if h is None:
            return out
        out.append(h)


class TestEnumerateRules:
    def test_small_case_includes_expected_rules(self):
        rules = enumerate_rules(SMALL_BIAS, 2)
        texts = {repr(r) for r in rules}
        assert "f(A):- head(A,0)." in texts
        assert "f(A):- head(A,1)." in texts
        assert "f(A):- tail(A,B)." in texts

    def test_rule_size_one_empty(self):
        assert enumerate_rules(SMALL_BIAS, 1) == []

    def test_counts_match_naive_enumerator(self):
        for size in (2, 3, 4):
            got = {brute_canonical_key(r) for r in enumerate_rules(SMALL_BIAS, size)}
            want = naive_enumerate_rules(SMALL_BIAS, size)
            assert got == want, size

    def test_counts_match_naive_untyped(self):
        bias = Bias(targets=[("f", 2)], body_preds=[("p", 1), ("q", 2)],
                    max_vars=3, max_body=3, max_rules=1)
        for size in (2, 3, 4):
            got = {brute_canonical_key(r) for r in enumerate_rules(bias, size)}
            want = naive_enumerate_rules(bias, size)
            assert got == want, size

    def test_counts_match_naive_unfillable_max_vars(self):
        # each body literal adds at most one variable, so no rule reaches
        # the fifth: templates name indices that no parent rule reaches yet
        for max_vars in (5, 6):
            bias = Bias(targets=[("f", 1)], body_preds=[("p", 1), ("q", 2)],
                        max_vars=max_vars, max_body=3, max_rules=1)
            for size in (2, 3, 4):
                got = {brute_canonical_key(r)
                       for r in enumerate_rules(bias, size)}
                want = naive_enumerate_rules(bias, size)
                assert got == want, (max_vars, size)

    def test_counts_match_naive_two_targets_with_constants(self):
        bias = Bias(targets=[("f", 1), ("g", 2)],
                    body_preds=[("head", 2), ("tail", 2)],
                    max_vars=3, max_body=3, max_rules=2, allow_recursion=True,
                    constants={"int": [0, 1]},
                    arg_types={("f", 1): ("list",), ("g", 2): ("list", "int"),
                               ("head", 2): ("list", "int"),
                               ("tail", 2): ("list", "list")})
        for size in (2, 3, 4):
            got = {brute_canonical_key(r) for r in enumerate_rules(bias, size)}
            want = naive_enumerate_rules(bias, size)
            assert got == want, size

    def test_six_var_pools_match_canonicalize(self):
        # a ternary predicate reaches six variables at size 4, so a rule's
        # canonical form is the least over up to 5! renamings; the size-3
        # pool is every parent extended by every template, through
        # logic.canonicalize
        bias = Bias(targets=[("f", 1)], body_preds=[("r", 3)],
                    max_vars=6, max_body=3, max_rules=1)
        parents = enumerate_rules(bias, 2)
        pool = enumerate_rules(bias, 3, parents)
        templates = generate.literal_templates(bias)
        want = set()
        for p in parents:
            pvars = set(p.head.args) | {a for b in p.body for a in b.args}
            for lit in templates:
                if lit not in p.body and set(lit.args) & pvars and \
                        len(set(lit.args) | pvars) <= bias.max_vars:
                    want.add(canonicalize(Rule(p.head, p.body | {lit})))
        assert set(pool) == want and len(pool) == len(want)
        big = enumerate_rules(bias, 4, pool)
        assert max(generate._num_vars(r) for r in big) == 6
        assert all(canonicalize(r) == r for r in big)
        assert len(set(big)) == len(big)

    @pytest.mark.parametrize("family", ["evens", "dropk", "zendo1", "sorted", None])
    def test_pools_canonical_and_in_reference_order(self, family):
        # reference_pool_order_key is the order key computed on the rule,
        # not on template indices
        bias = generate_task(family, 10, 0).bias if family else SMALL_BIAS
        gen = GeneratorState(bias, ConstraintStore())
        for size in (2, 3, 4):
            pool = gen.pool(size)
            assert all(canonicalize(r) == r for r in pool), size
            keys = [reference_pool_order_key(r) for r in pool]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), size

    def test_pool_built_from_smaller_pool_matches(self):
        gen = GeneratorState(SMALL_BIAS, ConstraintStore())
        for size in (2, 3, 4):
            assert gen.pool(size) == enumerate_rules(SMALL_BIAS, size), size

    def test_order_independent_of_hash_seed(self):
        code = ("from mdlsynth.logic import format_rule\n"
                "from mdlsynth.generate import enumerate_rules\n"
                "from mdlsynth.tasks import generate_task\n"
                "for family, size in (('evens', 3), ('dropk', 4), ('zendo1', 4)):\n"
                "    bias = generate_task(family, 10, 0).bias\n"
                "    for r in enumerate_rules(bias, size):\n"
                "        print(format_rule(r))\n")
        src = str(Path(mdlsynth.__file__).resolve().parent.parent)
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            outs.append(proc.stdout.splitlines())
        assert len(outs[0]) == 29 + 6650 + 1332 and outs[0] == outs[1]

    def test_no_alpha_duplicates(self):
        for size in (2, 3, 4):
            rules = enumerate_rules(SMALL_BIAS, size)
            keys = [brute_canonical_key(r) for r in rules]
            assert len(keys) == len(set(keys))

    def test_recursion_only_when_enabled(self):
        no_rec = Bias(targets=[("f", 1)], body_preds=[("p", 1)],
                      max_vars=2, max_body=2, max_rules=2, allow_recursion=False)
        rules = enumerate_rules(no_rec, 3)
        assert all(all(b.pred != "f" for b in r.body) for r in rules)

    def test_self_loop_excluded(self):
        rules = enumerate_rules(SMALL_BIAS, 2)
        assert all(r.body != frozenset((r.head,)) for r in rules)

    def test_sort_checks_the_deadline(self, monkeypatch):
        # the clock is read before the first order key and every 1,024
        # keys after it, so a deadline that passes once the keys have
        # started stops the build at the 1,024th key; dropk's size-4 pool
        # holds 6,650 rules
        bias = generate_task("dropk", 10, 0).bias
        parents = enumerate_rules(bias, 3)
        keyed = []
        order_key = generate._pool_order_key

        def key(keydata, canon):
            keyed.append(canon)
            return order_key(keydata, canon)

        def check(deadline):
            if keyed:
                raise SearchTimeout

        monkeypatch.setattr(generate, "_pool_order_key", key)
        monkeypatch.setattr(generate, "check_deadline", check)
        with pytest.raises(SearchTimeout):
            enumerate_rules(bias, 4, parents)
        assert len(keyed) == 1024


class TestUsable:
    def test_family_targets_are_usable(self):
        for family, source in _GT.items():
            task = generate_task(family, 10, 0)
            targets = set(task.bias.targets)
            for rule in parse_rules(source):
                assert usable(rule, targets, task.bk.modes()), (family, rule)

    @pytest.mark.parametrize("text", [
        "evens(A):- evens(B),tail(C,A),tail(C,B).",
        "evens(A):- evens(B),head(A,C),head(B,C).",
    ])
    def test_evens_rules_with_unbound_call_rejected(self, text):
        task = generate_task("evens", 10, 0)
        gen = GeneratorState(task.bias, ConstraintStore(),
                             modes=task.bk.modes())
        (rule,) = parse_rules(text)
        assert rule in gen.pool(4)
        assert rule not in gen.usable_pool(4)

    @pytest.mark.parametrize("modes", [
        BackgroundKnowledge(facts=[Literal("tail", ((1, 2), (2,)))]).modes(),
        {},
    ], ids=["tail_facts", "no_builtins"])
    def test_modeless_tail_rejects_only_free_call_variables(self, modes):
        # with no modes for tail, a rule is rejected exactly when a target
        # literal has a variable that only target literals mention
        bias = Bias(targets=[("f", 2)], body_preds=[("tail", 2)], max_vars=4,
                    max_body=3, max_rules=1, allow_recursion=True)
        targets = set(bias.targets)
        gen = GeneratorState(bias, ConstraintStore(), modes=modes)
        rejected = 0
        for size in (2, 3, 4):
            for rule in gen.pool(size):
                calls = [b for b in rule.body if (b.pred, b.arity) in targets]
                others = [rule.head] + [b for b in rule.body if b not in calls]
                mentioned = {a for lit in others for a in lit.args}
                free = any(a not in mentioned for b in calls for a in b.args)
                assert (rule in gen.usable_pool(size)) == (not free), rule
                assert naive_usable(rule, targets, modes) == (not free)
                rejected += free
        assert rejected
        assert parse_rules("f(A,B):- tail(C,A),f(C,B).")[0] in gen.usable_pool(3)

    def test_agrees_with_naive_usable(self):
        task = generate_task("dropk", 10, 0)
        targets = set(task.bias.targets)
        gen = GeneratorState(task.bias, ConstraintStore(),
                             modes=task.bk.modes())
        for size in (2, 3, 4):
            pool = gen.pool(size)
            want = [r for r in pool if naive_usable(r, targets, task.bk.modes())]
            assert gen.usable_pool(size) == want, size
            assert len(want) < len(pool)

    def test_usable_pool_checks_the_deadline(self):
        # the pool is built, so only the filter can read the clock
        task = generate_task("dropk", 10, 0)
        gen = GeneratorState(task.bias, ConstraintStore(),
                             modes=task.bk.modes())
        gen.pool(3)
        gen.deadline = time.perf_counter() - 1
        with pytest.raises(SearchTimeout):
            gen.usable_pool(3)

    def test_bias_without_recursion_uses_the_pool_itself(self):
        task = generate_task("zendo1", 10, 0)
        gen = GeneratorState(task.bias, ConstraintStore(),
                             modes=task.bk.modes())
        assert gen.usable_pool(3) is gen.pool(3)


class TestBiasValidation:
    def test_max_vars_must_cover_target_arity(self):
        with pytest.raises(BiasError):
            Bias(targets=[("f", 3)], body_preds=[("p", 1)], max_vars=2)

    def test_unknown_directive(self):
        with pytest.raises(BiasError):
            Bias.from_source("frobnicate(3).")

    @pytest.mark.parametrize("directive", [
        "head_pred(f).", "body_pred(p).", "max_vars.", "constant(x).",
        "type(p).", "head_pred(f,1,2).", "max_body(two).",
        "enable_recursion(yes).",
    ])
    def test_bad_directive_is_named(self, directive):
        # a wrong argument count or a name where an integer goes
        name = directive.split("(")[0].rstrip(".")
        with pytest.raises(BiasError, match=f"bad bias directive {name}"):
            Bias.from_source("head_pred(f,1). body_pred(p,1). " + directive)

    def test_round_trip(self):
        assert Bias.from_source(SMALL_BIAS.to_source()) == SMALL_BIAS

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_bias_round_trips(self, family):
        b = Bias.from_source(_BIAS[family])
        assert Bias.from_source(b.to_source()) == b

    @pytest.mark.parametrize("pair", ["[a,b]", "(a,b)"])
    def test_constants_round_trip(self, pair):
        b = Bias.from_source(
            "head_pred(f,2). body_pred(p,2). type(p,(t,u)). constant(t,-3). "
            f"constant(t,[]). constant(u,k). constant(u,{pair}). "
            "constant(u,[1,[c]]).")
        assert b.constants == {"t": [-3, ()], "u": ["k", ("a", "b"), (1, ("c",))]}
        assert "constant(u,[a,b])." in b.to_source()
        assert Bias.from_source(b.to_source()) == b

    @pytest.mark.parametrize("directives,name", [
        ("head_pred(f,-1).", "f"), ("body_pred(p,-2).", "p"),
    ])
    def test_negative_arity_is_named(self, directives, name):
        with pytest.raises(BiasError, match=f"predicate {name} has negative arity"):
            Bias.from_source("head_pred(g,1). " + directives)

    def test_negative_arity_is_named_on_construction(self):
        with pytest.raises(BiasError, match="predicate p has negative arity -2"):
            Bias(targets=[("g", 1)], body_preds=[("p", -2)])

    @pytest.mark.parametrize("directive", [
        "type(p,(a,b,c)).", "type(q,(a,b)).", "type(f,(a,b)).",
    ])
    def test_type_of_undeclared_predicate_is_named(self, directive):
        name = directive[5]
        with pytest.raises(BiasError, match=f"type of {name} with"):
            Bias.from_source("head_pred(f,1). body_pred(p,2). " + directive)

    def test_type_must_match_its_key(self):
        with pytest.raises(BiasError, match="type of p with 1 arguments"):
            Bias(targets=[("f", 1)], body_preds=[("p", 2)],
                 arg_types={("p", 2): ("int",)})

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bias_written_twice_is_the_bias_written_once(self, family):
        src = generate_task(family, 10, 0).bias.to_source()
        assert Bias.from_source(src + src) == Bias.from_source(src)

    def test_repeats_keep_first_seen_order(self):
        b = Bias.from_source("head_pred(f,1). body_pred(q,1). body_pred(p,1). "
                             "body_pred(q,1). head_pred(f,1). type(q,(int,)). "
                             "constant(int,2). constant(int,1). constant(int,2). "
                             "type(q,(int,)). max_vars(3). max_vars(3). "
                             "enable_recursion. enable_recursion.")
        assert b.targets == [("f", 1)]
        assert b.body_preds == [("q", 1), ("p", 1)]
        assert b.constants == {"int": [2, 1]}
        assert b.arg_types == {("q", 1): ("int",)}
        assert b.max_vars == 3 and b.allow_recursion

    @pytest.mark.parametrize("directives", [
        "max_vars(3). max_vars(4).", "max_body(2). max_body(3).",
        "max_rules(1). max_rules(2).", "type(p,(int,)). type(p,(list,)).",
    ])
    def test_contradicting_directive_is_named(self, directives):
        name = directives.split("(")[0]
        with pytest.raises(BiasError, match=f"bias directive {name}.* contradicts"):
            Bias.from_source("head_pred(f,1). body_pred(p,1). " + directives)

    def test_bias_written_twice_searches_as_written_once(self):
        # each target and body predicate declared twice would double the
        # literal templates, and the search would test 71 programs
        task = generate_task("evens", 20, 0)
        src = task.bias.to_source()
        tested = []
        for text in (src, src + src):
            _, stats = learn(task.bk, task.train, Bias.from_source(text),
                             SearchConfig(timeout=60))
            assert stats.completed
            tested.append(stats.programs_tested)
        assert tested == [45, 45]


class TestNextProgram:
    def test_yields_all_size2_hypotheses_once(self):
        gen = GeneratorState(SMALL_BIAS, ConstraintStore())
        out = drain(gen, 2)
        assert len(out) == len(enumerate_rules(SMALL_BIAS, 2))
        assert len(set(out)) == len(out)
        assert all(prog_size(h) == 2 for h in out)

    def test_multi_rule_sizes_sum(self):
        gen = GeneratorState(SMALL_BIAS, ConstraintStore())
        out = drain(gen, 5)
        assert out
        assert all(prog_size(h) == 5 for h in out)
        assert any(len(h) == 2 for h in out)

    def test_exhausted_returns_none_repeatedly(self):
        gen = GeneratorState(SMALL_BIAS, ConstraintStore())
        drain(gen, 2)
        assert gen.next_program(2) is None

    def test_completeness_with_empty_store(self):
        # the union over strata equals the single rules and the recursive
        # programs with a base case of the canonical space of usable rules,
        # rebuilt independently: naive enumeration, the permutation search
        # of naive_usable for the modes, and the predicate fixpoint of
        # naive_has_base_case; separable unions are left to combine
        def generated(h):
            heads = {(r.head.pred, r.head.arity) for r in h}
            return len(h) == 1 or any((b.pred, b.arity) in heads
                                      for r in h for b in r.body)

        targets = set(SMALL_BIAS.targets)
        modes = BackgroundKnowledge().modes()
        gen = GeneratorState(SMALL_BIAS, ConstraintStore(), modes=modes)
        seen = set()
        for size in range(2, 7):
            seen.update(drain(gen, size))
        space = [h for h in exhaustive_space(SMALL_BIAS, 6, modes)
                 if h and generated(h)]
        want = {h for h in space if naive_has_base_case(h, targets)}
        assert seen == want
        assert any(len(h) == 2 for h in want)
        assert gen.candidates_skipped == len(space) - len(want)
        # the base case narrows the space
        assert frozenset(parse_rules("f(A):- tail(A,B),f(B).")) in space
        # the modes narrow it too: tail(B,A) never binds B
        unbound = frozenset(parse_rules("f(A):- tail(B,A),f(B).  f(A):- head(A,0)."))
        assert unbound not in seen
        assert unbound in drain(GeneratorState(SMALL_BIAS, ConstraintStore()), 5)

    def test_dropk_program_without_base_case_never_yielded(self):
        # on dropk with 40 examples, testing this program took 14 of the
        # 15 s that test ran in a 20 s call, and proved nothing; both of
        # its rules are usable
        task = generate_task("dropk", 10, 0)
        gen = GeneratorState(task.bias, ConstraintStore(),
                             modes=task.bk.modes())
        stuck = frozenset(parse_rules(
            "dropk(A,B,C):- decrement(B,D),dropk(A,D,C)."
            "dropk(A,B,C):- dropk(C,B,A)."))
        assert all(r in gen.usable_pool(len(r.body) + 1) for r in stuck)
        assert stuck not in drain(gen, prog_size(stuck))
        target = frozenset(parse_rules(_GT["dropk"]))
        assert target in iter(lambda: gen.next_program(prog_size(target)), None)

    def test_bias_without_recursion_yields_its_usable_pools(self):
        # each stratum is its usable pool, one rule at a time, in pool
        # order, and no stratum holds a program of several rules
        bias = replace(SMALL_BIAS, allow_recursion=False)
        gen = GeneratorState(bias, ConstraintStore())
        for size in range(2, bias.max_program_size + 1):
            want = enumerate_rules(bias, size)
            assert gen.usable_pool(size) == want
            assert drain(gen, size) == [frozenset((r,)) for r in want], size

    def test_specialisation_constraint_filters(self):
        anchor = frozenset(parse_rules("f(A):- head(A,1)."))
        store = ConstraintStore()
        store.add(NoisyConstraint(Kind.SPECIALISATION, anchor, 2))
        gen = GeneratorState(SMALL_BIAS, store)
        out = drain(gen, 3)
        spec = frozenset(parse_rules("f(A):- head(A,1),tail(A,B)."))
        assert spec not in out
        # and it would be yielded without the constraint
        gen2 = GeneratorState(SMALL_BIAS, ConstraintStore())
        assert spec in drain(gen2, 3)

    def test_constraint_monotonicity(self):
        rng = random.Random(43)
        store = ConstraintStore()
        gen_all = drain(GeneratorState(SMALL_BIAS, ConstraintStore()), 4)
        anchors = rng.sample(gen_all, 5)
        yielded_prev = None
        for i in range(len(anchors) + 1):
            store_i = ConstraintStore()
            for a in anchors[:i]:
                store_i.add(NoisyConstraint(Kind.SPECIALISATION, a, max(1, prog_size(a))))
            got = set(drain(GeneratorState(SMALL_BIAS, store_i), 4))
            if yielded_prev is not None:
                assert got <= yielded_prev
            yielded_prev = got

    def test_deterministic_order(self):
        a = drain(GeneratorState(SMALL_BIAS, ConstraintStore()), 4)
        b = drain(GeneratorState(SMALL_BIAS, ConstraintStore()), 4)
        assert a == b


class TestDiagonalPicks:
    def test_matches_reference_on_random_shapes(self):
        # same picks in the same order as the scan over every index sum,
        # and every selection exactly once, by increasing index sum
        # shapes with more than 2,000 picks are redrawn: the reference
        # scan is quadratic in the index sum
        rng = random.Random(59)
        shapes = 0
        while shapes < 300:
            groups = []
            for _ in range(rng.randint(1, 3)):
                m = rng.randint(1, 3)
                groups.append((rng.randint(m, 9), m))
            if math.prod(math.comb(n, m) for n, m in groups) > 2000:
                continue
            shapes += 1
            got = list(_diagonal_picks(groups))
            assert got == list(naive_diagonal_picks(groups)), groups
            want = set(product(*(combinations(range(n), m) for n, m in groups)))
            assert len(got) == len(want) and set(got) == want, groups
            sums = [sum(map(sum, pick)) for pick in got]
            assert sums == sorted(sums), groups

    @pytest.mark.parametrize("groups", [[(400, 1), (600, 1)], [(600, 2)]])
    def test_first_picks_over_large_pools_are_fast(self, groups):
        # each pick costs time linear in the number of groups, not in its
        # index sum: the reference scan takes about 13 s on the first
        # shape on a 2-vCPU x86 host
        t0 = time.perf_counter()
        picks = list(islice(_diagonal_picks(groups), 60_000))
        assert time.perf_counter() - t0 < 2.0
        assert len(picks) == 60_000


class TestViolates:
    def test_empty_store_never_violates(self):
        store = ConstraintStore()
        for r in enumerate_rules(SMALL_BIAS, 3):
            h = frozenset((r,))
            assert not store.violates(h, prog_size(h))

    def test_anchor_itself_pruned_by_spec_constraint_when_large(self):
        anchor = frozenset(parse_rules("f(A):- head(A,1),tail(A,B)."))
        store = ConstraintStore()
        store.add(NoisyConstraint(Kind.SPECIALISATION, anchor, 2))
        # reflexive subsumption: anchor specialises itself, size 3 > 2
        assert store.violates(anchor, prog_size(anchor))

    def test_agreement_with_direct_subsumption_reevaluation(self):
        rng = random.Random(47)
        rules = enumerate_rules(SMALL_BIAS, 2) + enumerate_rules(SMALL_BIAS, 3)
        all_programs = [frozenset((r,)) for r in rules]
        for i in range(len(rules)):
            for j in range(i + 1, len(rules)):
                h = frozenset((rules[i], rules[j]))
                if len(h) == 2:
                    all_programs.append(h)
        cases = 0
        for _ in range(60):
            store = ConstraintStore()
            kinds, anchors, bounds = [], [], []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice((Kind.SPECIALISATION, Kind.GENERALISATION))
                anchor = rng.choice(all_programs)
                bound = rng.randint(1, 5)
                store.add(NoisyConstraint(kind, anchor, bound))
                kinds.append(kind)
                anchors.append(anchor)
                bounds.append(bound)
            for h in rng.sample(all_programs, 40):
                want = False
                for kind, anchor, bound in zip(kinds, anchors, bounds):
                    if prog_size(h) <= bound:
                        continue
                    if kind is Kind.SPECIALISATION and program_subsumes(anchor, h):
                        want = True
                    if kind is Kind.GENERALISATION and program_subsumes(h, anchor):
                        want = True
                assert store.violates(h, prog_size(h)) == want, (h, kinds, anchors, bounds)
                cases += 1
        assert cases >= 1000

    def test_agreement_when_adds_and_queries_interleave(self):
        # the search queries between adds, so each query extends the
        # relation caches of its rules only over the anchors added so far
        rng = random.Random(48)
        rules = [r for size in (2, 3, 4) for r in enumerate_rules(SMALL_BIAS, size)]

        def random_program():
            return frozenset(rng.sample(rules, rng.randint(1, 2)))

        queries = pruned = 0
        for _ in range(75):
            store, live = ConstraintStore(), {}
            for _ in range(rng.randint(2, 6)):
                if live and rng.random() < 0.3:
                    # re-add a stored (kind, anchor) with a tighter bound
                    key = rng.choice(list(live))
                    bound = max(1, live[key] - rng.randint(1, 3))
                else:
                    key = (rng.choice(list(Kind)), random_program())
                    bound = rng.randint(1, 6)
                added = store.add(NoisyConstraint(*key, bound))
                assert added == (bound < live.get(key, bound + 1))
                live[key] = min(bound, live.get(key, bound))
                for _ in range(25):
                    h = random_program()
                    size = prog_size(h)
                    want = any(
                        size > k and (program_subsumes(anchor, h)
                                      if kind is Kind.SPECIALISATION
                                      else program_subsumes(h, anchor))
                        for (kind, anchor), k in live.items())
                    if len(h) == 1:
                        got = store.singleton_pruned(next(iter(h)))
                    else:
                        got = store.violates(h, size)
                    assert got == want, (h, live)
                    queries += 1
                    pruned += got
        assert queries >= 5000 and 1000 <= pruned <= queries - 1000
