"""Shared generators for randomized tests: tiny datalog tasks, random rules
and hypotheses over small signatures; and whole-program subsumption, built
on the package's clause subsumption."""

from __future__ import annotations

import random
from itertools import product

from mdlsynth.evaluate import BackgroundKnowledge, ExampleSet
from mdlsynth.generate import Bias
from mdlsynth.logic import Hypothesis, Literal, Rule, Var, canonicalize, clause_subsumes

from .oracles import _naive_connected

CONSTS = ("c0", "c1", "c2")


def program_subsumes(h1: Hypothesis, h2: Hypothesis) -> bool:
    """h1 subsumes h2 (h1 <= h2) iff every rule of h2 is clause-subsumed by
    some rule of h1.  h2 is then a specialisation of h1, and h1 a
    generalisation of h2."""
    return all(any(clause_subsumes(c1, c2) for c1 in h1) for c2 in h2)


def random_rule(rng: random.Random, preds=None, max_body=3, max_vars=3,
                head=("f", 1)) -> Rule:
    preds = preds or [("p", 1), ("q", 2)]
    name, arity = head
    head_lit = Literal(name, tuple(Var(i) for i in range(arity)))
    nbody = rng.randint(1, max_body)
    body = set()
    attempts = 0
    while len(body) < nbody and attempts < 40:
        attempts += 1
        pn, pa = rng.choice(preds)
        args = tuple(Var(rng.randrange(max_vars)) for _ in range(pa))
        lit = Literal(pn, args)
        if lit != head_lit:
            body.add(lit)
    rule = Rule(head_lit, frozenset(body))
    return canonicalize(rule)


def connected_random_rule(rng, **kw) -> Rule:
    while True:
        r = random_rule(rng, **kw)
        if r.body and _naive_connected(r.head, r.body):
            return r


def random_hypothesis(rng, max_rules=2, **kw):
    n = rng.randint(1, max_rules)
    return frozenset(connected_random_rule(rng, **kw) for _ in range(n))


def tiny_task(rng: random.Random, allow_recursion=None):
    """A random builtin-free task small enough for exhaustive oracles.

    Returns (bk, examples, bias, constants)."""
    if allow_recursion is None:
        allow_recursion = rng.random() < 0.4
    facts = []
    for c in CONSTS:
        if rng.random() < 0.5:
            facts.append(Literal("p", (c,)))
    for a, b in product(CONSTS, CONSTS):
        if rng.random() < 0.3:
            facts.append(Literal("q", (a, b)))
    bias = Bias(
        targets=[("f", 1)],
        body_preds=[("p", 1), ("q", 2)],
        max_vars=3,
        max_body=3,
        max_rules=2,
        allow_recursion=allow_recursion,
    )
    atoms = [Literal("f", (c,)) for c in CONSTS]
    rng.shuffle(atoms)
    # labels are random: a noisy-by-construction task
    pos, neg = [], []
    for a in atoms:
        if rng.random() < 0.2:
            continue
        (pos if rng.random() < 0.6 else neg).append(a)
    if not pos and not neg:
        pos = [atoms[0]]
    bk = BackgroundKnowledge(facts=facts)
    return bk, ExampleSet(tuple(pos), tuple(neg)), bias, CONSTS


def union_task(rng: random.Random):
    """A random builtin-free task whose optimum is sometimes a union of more
    than ``max_rules`` rules: each of 9 to 12 constants holds one main
    predicate among p, q, r and s, and each other one with probability 0.1;
    each f atom is positive with probability 0.85, otherwise negative.

    Returns (bk, examples, bias, constants)."""
    preds = ("p", "q", "r", "s")
    consts = tuple(f"c{i}" for i in range(rng.randint(9, 12)))
    facts = []
    for c in consts:
        main = rng.choice(preds)
        facts += [Literal(p, (c,)) for p in preds if p == main or rng.random() < 0.1]
    atoms = [Literal("f", (c,)) for c in consts]
    pos = tuple(a for a in atoms if rng.random() < 0.85)
    neg = tuple(a for a in atoms if a not in pos)
    bias = Bias(targets=[("f", 1)], body_preds=[(p, 1) for p in preds],
                max_vars=1, max_body=2, max_rules=2)
    return BackgroundKnowledge(facts=facts), ExampleSet(pos, neg), bias, consts


def richer_tiny_task(rng: random.Random, allow_recursion=None, n_examples=10):
    """Like tiny_task but over 4 constants and binary target, still small
    enough for exhaustive search."""
    consts = ("c0", "c1", "c2", "c3")
    if allow_recursion is None:
        allow_recursion = rng.random() < 0.4
    facts = []
    for c in consts:
        if rng.random() < 0.5:
            facts.append(Literal("p", (c,)))
    for a, b in product(consts, consts):
        if rng.random() < 0.25:
            facts.append(Literal("q", (a, b)))
    bias = Bias(
        targets=[("f", 1)],
        body_preds=[("p", 1), ("q", 2)],
        max_vars=3,
        max_body=3,
        max_rules=2,
        allow_recursion=allow_recursion,
    )
    atoms = [Literal("f", (c,)) for c in consts]
    rng.shuffle(atoms)
    pos, neg = [], []
    for a in atoms[: rng.randint(2, len(atoms))]:
        (pos if rng.random() < 0.5 else neg).append(a)
    if not pos:
        pos = [atoms[-1]]
        neg = [a for a in neg if a != atoms[-1]]
    bk = BackgroundKnowledge(facts=facts)
    return bk, ExampleSet(tuple(pos), tuple(neg)), bias, consts
