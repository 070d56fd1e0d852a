"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles rather than
reusing the package's algorithms: brute-force substitution search for
subsumption, permutation search for alpha-equivalence, bottom-up fixpoint
evaluation for entailment on finite tasks, cross-product rule enumeration,
and exhaustive search over subsets and hypothesis spaces.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from mdlsynth.logic import Hypothesis, Literal, Rule, Var, format_rule


# ---------------------------------------------------------------------------
# Subsumption by substitution enumeration
# ---------------------------------------------------------------------------

def brute_clause_subsumes(c1: Rule, c2: Rule) -> bool:
    """Exists theta over c1's variables into c2's terms with c1 theta
    contained in c2, head to head."""
    vars1 = sorted(
        {a for lit in (c1.head, *c1.body) for a in lit.args if isinstance(a, Var)},
        key=lambda v: v.idx)
    terms2 = set()
    for lit in (c2.head, *c2.body):
        terms2.update(lit.args)
    terms2 = sorted(terms2, key=repr)
    if not vars1:
        return _applies(c1, c2, {})
    for image in product(terms2, repeat=len(vars1)):
        theta = dict(zip(vars1, image))
        if _applies(c1, c2, theta):
            return True
    return False


def _subst(lit: Literal, theta: dict) -> Literal:
    return Literal(lit.pred, tuple(theta.get(a, a) for a in lit.args))


def _applies(c1: Rule, c2: Rule, theta: dict) -> bool:
    if _subst(c1.head, theta) != c2.head:
        return False
    return all(_subst(b, theta) in c2.body for b in c1.body)


def brute_program_subsumes(h1, h2) -> bool:
    return all(any(brute_clause_subsumes(c1, c2) for c1 in h1) for c2 in h2)


def brute_alpha_equivalent(r1: Rule, r2: Rule) -> bool:
    """Exists a variable bijection mapping r1 onto r2 exactly."""
    v1 = sorted({a for lit in (r1.head, *r1.body) for a in lit.args
                 if isinstance(a, Var)}, key=lambda v: v.idx)
    v2 = sorted({a for lit in (r2.head, *r2.body) for a in lit.args
                 if isinstance(a, Var)}, key=lambda v: v.idx)
    if len(v1) != len(v2) or len(r1.body) != len(r2.body):
        return False
    for image in permutations(v2):
        theta = dict(zip(v1, image))
        if _subst(r1.head, theta) == r2.head and \
                {_subst(b, theta) for b in r1.body} == set(r2.body):
            return True
    return False


# ---------------------------------------------------------------------------
# Bottom-up fixpoint evaluation (builtin-free finite tasks)
# ---------------------------------------------------------------------------

def fixpoint_covers(facts, rules, constants) -> set:
    """Least Herbrand model of facts plus rules, grounding rule variables
    over ``constants``."""
    model = set(facts)
    rules = list(rules)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            vs = sorted({a for lit in (rule.head, *rule.body) for a in lit.args
                         if isinstance(a, Var)}, key=lambda v: v.idx)
            for binding in product(constants, repeat=len(vs)):
                theta = dict(zip(vs, binding))
                if all(_subst(b, theta) in model for b in rule.body):
                    ground_head = _subst(rule.head, theta)
                    if ground_head not in model:
                        model.add(ground_head)
                        changed = True
    return model


def fixpoint_coverage(bk_facts, bk_rules, h, examples, constants):
    """(pos_mask, neg_mask) per the fixpoint model."""
    model = fixpoint_covers(bk_facts, list(bk_rules) + list(h), constants)
    pos = neg = 0
    for i, e in enumerate(examples.pos):
        if e in model:
            pos |= 1 << i
    for i, e in enumerate(examples.neg):
        if e in model:
            neg |= 1 << i
    return pos, neg


# ---------------------------------------------------------------------------
# Top-down SLD resolution (facts, rules and built-ins)
# ---------------------------------------------------------------------------

class _OVar:
    """A variable of one renamed clause; equal only to itself."""

    __slots__ = ()


def _o_walk(t, s):
    while isinstance(t, _OVar) and t in s:
        t = s[t]
    return t


def _o_unify(a, b, s):
    """``s`` extended to unify ``a`` and ``b``, or None."""
    a, b = _o_walk(a, s), _o_walk(b, s)
    if a is b:
        return s
    if isinstance(a, _OVar):
        return {**s, a: b}
    if isinstance(b, _OVar):
        return {**s, b: a}
    return s if a == b else None


def _o_unify_all(xs, ys, s):
    for x, y in zip(xs, ys):
        s = _o_unify(x, y, s)
        if s is None:
            return None
    return s


class OracleGaveUp(Exception):
    """The oracle selected more goals than it was allowed to."""


def naive_sld_coverage(facts, rules, h, examples, max_depth, max_steps=20_000):
    """(pos_mask, neg_mask) of ``h`` by depth-bounded top-down SLD
    resolution over ``facts``, the background ``rules`` and the built-ins
    of ``BUILTINS``, with no tables of any kind.  Each goal carries the
    depth left to it: resolving it with a clause gives each body goal one
    less, and no clause resolves at depth 0.  The selected goal is the first
    that can run: a predicate that the facts, the rules or ``h`` define
    runs at once, and so does an unknown predicate, which fails; a built-in
    runs in the first of its modes whose "+" positions are bound, and
    otherwise it waits.  A branch where only waiting built-ins are left
    fails.  Raises ``OracleGaveUp`` once one example's proof has selected
    ``max_steps`` goals: with no tables, a program that calls its head
    twice can take a time exponential in the depth."""
    from mdlsynth.evaluate import BUILTINS

    facts_by: dict = {}
    rules_by: dict = {}
    for f in facts:
        facts_by.setdefault((f.pred, len(f.args)), []).append(f.args)
    for r in list(rules) + sorted(h, key=format_rule):
        rules_by.setdefault((r.head.pred, len(r.head.args)), []).append(r)

    def rename(rule):
        fresh: dict = {}

        def term(a):
            if isinstance(a, Var):
                return fresh.setdefault(a, _OVar())
            return a

        return (tuple(map(term, rule.head.args)),
                [(b.pred, tuple(map(term, b.args)))
                 for b in sorted(rule.body, key=repr)])

    steps = [0]  # goals selected in the current example's proof

    def solve(goals, s):
        if not goals:
            yield s
            return
        steps[0] += 1
        if steps[0] > max_steps:
            raise OracleGaveUp
        for i, (pred, args, depth) in enumerate(goals):
            key = (pred, len(args))
            if key in facts_by or key in rules_by or key not in BUILTINS:
                break
            walked = [_o_walk(a, s) for a in args]
            fn = next((fn for mode, fn in BUILTINS[key].items()
                       if all(m == "-" or not isinstance(a, _OVar)
                              for m, a in zip(mode, walked))), None)
            if fn is not None:
                break
        else:
            return
        rest = goals[:i] + goals[i + 1:]
        if key in facts_by or key in rules_by:
            for fact_args in facts_by.get(key, ()):
                s2 = _o_unify_all(fact_args, args, s)
                if s2 is not None:
                    yield from solve(rest, s2)
            for rule in rules_by.get(key, ()) if depth > 0 else ():
                head, body = rename(rule)
                s2 = _o_unify_all(head, args, s)
                if s2 is not None:
                    yield from solve([(p, a, depth - 1) for p, a in body] + rest, s2)
        elif key in BUILTINS:
            sol = fn(*walked)
            s2 = None if sol is None else _o_unify_all(walked, sol, s)
            if s2 is not None:
                yield from solve(rest, s2)

    def proves(e):
        steps[0] = 0
        return any(True for _ in solve([(e.pred, e.args, max_depth)], {}))

    pos = sum(1 << i for i, e in enumerate(examples.pos) if proves(e))
    neg = sum(1 << i for i, e in enumerate(examples.neg) if proves(e))
    return pos, neg


# ---------------------------------------------------------------------------
# Naive rule enumeration
# ---------------------------------------------------------------------------

def naive_enumerate_rules(bias, rule_size: int) -> set:
    """All rules of the bias space with exactly rule_size literals, as a set
    of permutation-minimal canonical keys (independent of the package's
    canonicalizer)."""
    return set(_naive_rules(bias, rule_size))


def _naive_rules(bias, rule_size: int) -> dict:
    """One rule per key of ``naive_enumerate_rules``, keyed by it."""
    k = rule_size - 1
    if k < 1 or k > bias.max_body:
        return {}
    templates = _naive_templates(bias)
    out = {}
    for name, arity in bias.targets:
        head = Literal(name, tuple(Var(i) for i in range(arity)))
        for combo in combinations(templates, k):
            if head in combo:
                continue
            if not _naive_connected(head, combo):
                continue
            if not _naive_types_ok(bias, head, combo):
                continue
            rule = Rule(head, frozenset(combo))
            out.setdefault(brute_canonical_key(rule), rule)
    return out


def _naive_templates(bias):
    vars_ = [Var(i) for i in range(bias.max_vars)]
    preds = list(bias.body_preds)
    if bias.allow_recursion:
        preds += [t for t in bias.targets if t not in preds]
    out = []
    for name, arity in preds:
        types = bias.arg_types.get((name, arity), (None,) * arity)
        pools = []
        for ty in types:
            cands = list(vars_)
            if ty is not None:
                cands.extend(bias.constants.get(ty, ()))
            pools.append(cands)
        for args in product(*pools):
            if any(isinstance(a, Var) for a in args):
                out.append(Literal(name, tuple(args)))
    return out


def _naive_connected(head, body) -> bool:
    reached = {a for a in head.args if isinstance(a, Var)}
    body = list(body)
    while body:
        nxt = [b for b in body
               if any(isinstance(a, Var) and a in reached for a in b.args)]
        if not nxt:
            return False
        for b in nxt:
            reached.update(a for a in b.args if isinstance(a, Var))
            body.remove(b)
    return True


def _naive_types_ok(bias, head, body) -> bool:
    assigned = {}
    for lit in (head, *body):
        types = bias.arg_types.get((lit.pred, len(lit.args)))
        if types is None:
            continue
        for a, ty in zip(lit.args, types):
            if isinstance(a, Var):
                if assigned.setdefault(a, ty) != ty:
                    return False
    return True


def brute_canonical_key(rule: Rule):
    """Minimum over all variable permutations of the sorted literal tuple."""
    vs = sorted({a for lit in (rule.head, *rule.body) for a in lit.args
                 if isinstance(a, Var)}, key=lambda v: v.idx)
    best = None
    for image in permutations(range(len(vs))):
        theta = {v: Var(i) for v, i in zip(vs, image)}
        key = (repr(_subst(rule.head, theta)),
               tuple(sorted(repr(_subst(b, theta)) for b in rule.body)))
        if best is None or key < best:
            best = key
    return best


def reference_pool_order_key(rule: Rule):
    """Pool order of ``generate.enumerate_rules``, computed on the rule
    itself: fewest variables occurring once, every head variable used in
    the body, most distinct predicates, then the rule's text."""
    occur: dict = {}
    for lit in (rule.head, *rule.body):
        for a in lit.args:
            if isinstance(a, Var):
                occur[a] = occur.get(a, 0) + 1
    singletons = sum(1 for n in occur.values() if n == 1)
    head_vars = {a for a in rule.head.args if isinstance(a, Var)}
    body_vars = {a for b in rule.body for a in b.args if isinstance(a, Var)}
    preds = {b.pred for b in rule.body}
    return (
        singletons,
        0 if head_vars <= body_vars else 1,
        -len(preds),
        format_rule(rule),
    )


def naive_usable(rule: Rule, targets, modes) -> bool:
    """Some order of the body reaches every target literal with all its
    variables bound, running each literal before it: a predicate with
    ``modes`` only in a mode whose "+" positions are bound, any other
    predicate always.  Literals bind all their variables once run."""
    calls = [b for b in rule.body if (b.pred, len(b.args)) in targets]
    if not calls:
        return True
    head_vars = {a for a in rule.head.args if isinstance(a, Var)}
    for order in permutations(rule.body):
        bound = set(head_vars)
        reached = 0
        for lit in order:
            key = (lit.pred, len(lit.args))
            if key in targets:
                if any(isinstance(a, Var) and a not in bound for a in lit.args):
                    break
                reached += 1
                if reached == len(calls):
                    return True
            elif key in modes and not any(
                    all(a in bound for m, a in zip(mode, lit.args)
                        if m == "+" and isinstance(a, Var))
                    for mode in modes[key]):
                break
            bound.update(a for a in lit.args if isinstance(a, Var))
    return False


def naive_mode_runs(rule: Rule, modes) -> tuple:
    """(bound, ran): the body literals that run in some order of the body
    that runs every literal before them, each with the rule's head
    variables bound at the start, and the variables bound once they have
    all run.  A predicate with ``modes`` runs only in a mode whose "+"
    positions are bound or constant, any other predicate always; a literal
    that runs binds all its variables."""
    head_vars = {a for a in rule.head.args if isinstance(a, Var)}
    ran = set()
    for order in permutations(rule.body):
        bound = set(head_vars)
        for lit in order:
            key = (lit.pred, len(lit.args))
            if key in modes and not any(
                    all(a in bound for m, a in zip(mode, lit.args)
                        if m == "+" and isinstance(a, Var))
                    for mode in modes[key]):
                break
            ran.add(lit)
            bound.update(a for a in lit.args if isinstance(a, Var))
    return head_vars | {a for lit in ran for a in lit.args
                        if isinstance(a, Var)}, ran


def naive_has_base_case(h, targets) -> bool:
    """Some rule of ``h`` calls no target.  Background that neither defines
    nor calls a target proves no target atom, so without such a rule no
    rule of ``h`` can ever fire and its least model holds no target atom."""
    targets = set(targets)
    return any(not ({(b.pred, len(b.args)) for b in r.body} & targets) for r in h)


# ---------------------------------------------------------------------------
# Exhaustive optima
# ---------------------------------------------------------------------------

def exhaustive_space(bias, max_size, modes=None):
    """Every program of size at most ``max_size`` in the space that
    ``search.learn`` searches: the empty program, each union of any number
    of usable rules that call no target, and each program of at most
    ``max_rules`` usable rules and of size at most ``bias.max_program_size``.
    The rules are regenerated here naively.  A rule is usable when
    ``naive_usable`` holds under ``modes`` (none: every predicate binds all
    its arguments)."""
    from mdlsynth.logic import canonicalize, prog_size, rule_size

    targets = set(bias.targets)
    rules = [canonicalize(r) for size in range(2, bias.max_rule_size + 1)
             for r in _naive_rules(bias, size).values()
             if naive_usable(r, targets, modes or {})]
    plain = [r for r in rules
             if not any((b.pred, len(b.args)) in targets for b in r.body)]
    space = {}  # a dict keeps the first-found order

    def unions(start, h, size):
        space[h] = None
        for i in range(start, len(plain)):
            grown = size + rule_size(plain[i])
            if grown <= max_size:
                unions(i + 1, h | {plain[i]}, grown)

    unions(0, frozenset(), 0)
    cap = min(max_size, bias.max_program_size)
    for n in range(1, bias.max_rules + 1):
        for combo in combinations(rules, n):
            if prog_size(combo) <= cap:
                space[frozenset(combo)] = None
    return list(space)


def exhaustive_min_cost(bias, bk_facts, bk_rules, examples, constants):
    """Minimum MDL cost over the space that ``search.learn`` searches, by
    fixpoint evaluation.  Cost is at least size, so no program of size
    |E+| or more beats the empty one, whose cost is |E+|."""
    from mdlsynth.logic import prog_size

    best = examples.num_pos  # the empty hypothesis
    for h in sorted(exhaustive_space(bias, examples.num_pos - 1), key=prog_size):
        if prog_size(h) >= best:
            break  # cost is at least size
        pos, neg = fixpoint_coverage(bk_facts, bk_rules, h, examples, constants)
        fn = examples.num_pos - pos.bit_count()
        cost = prog_size(h) + fn + neg.bit_count()
        if cost < best:
            best = cost
    return best


def brute_combine_min(entries, num_pos):
    """Minimum selection cost over all subsets of pool entries given as
    (size, pos_mask, neg_mask) triples."""
    n = len(entries)
    best = num_pos
    for mask in range(1, 1 << n):
        pos = neg = ssum = 0
        for i in range(n):
            if (mask >> i) & 1:
                size, p, ng = entries[i]
                ssum += size
                pos |= p
                neg |= ng
        cost = ssum + (num_pos - pos.bit_count()) + neg.bit_count()
        if cost < best:
            best = cost
    return best


# ---------------------------------------------------------------------------
# Pick order over rule pools
# ---------------------------------------------------------------------------

def naive_index_combos(n: int, m: int, s: int, start: int = 0):
    """Strictly increasing m-tuples from range(start, n) with index sum s,
    walking every first index from ``start``."""
    if m == 0:
        if s == 0:
            yield ()
        return
    lo = m * start + m * (m - 1) // 2
    if s < lo:
        return
    for i in range(start, n - m + 1):
        rest_lo = (m - 1) * (i + 1) + (m - 1) * (m - 2) // 2
        if s - i < rest_lo:
            break
        for rest in naive_index_combos(n, m - 1, s - i, i + 1):
            yield (i, *rest)


def naive_diagonal_picks(groups):
    """The pick order of ``generate._diagonal_picks``, scanning every group
    index sum up to the total and recomputing the tail's span each time:
    one strictly increasing index tuple per (pool length, multiplicity)
    group, in increasing order of total index sum."""
    lo = sum(m * (m - 1) // 2 for _, m in groups)
    hi = sum(m * (2 * n - m - 1) // 2 for n, m in groups)

    def rec(gi: int, s: int):
        if gi == len(groups):
            if s == 0:
                yield ()
            return
        n, m = groups[gi]
        g_lo = m * (m - 1) // 2
        g_hi = m * (2 * n - m - 1) // 2
        for sg in range(g_lo, min(s, g_hi) + 1):
            tail_lo = sum(mm * (mm - 1) // 2 for _, mm in groups[gi + 1:])
            tail_hi = sum(mm * (2 * nn - mm - 1) // 2
                          for nn, mm in groups[gi + 1:])
            if not tail_lo <= s - sg <= tail_hi:
                continue
            for combo in naive_index_combos(n, m, sg):
                for rest in rec(gi + 1, s - sg):
                    yield (combo, *rest)

    for s in range(lo, hi + 1):
        yield from rec(0, s)
