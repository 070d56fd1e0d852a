"""The anytime outer loop: generate, test, combine, constrain.

The loop starts from the empty hypothesis, whose cost is |E+|, at
stratum size 2.  Each turn asks the generator for the next program of
the current size and moves to the next size once that stratum is
exhausted.  The generator yields single rules and recursive programs
(see ``generate``), never a separable program and never one in which
every rule calls a target: ``_validate`` rejects background that defines
or calls a target, so such a program proves nothing and costs more than
the empty one.  Each yielded program is tested:

* a program that beats the best cost becomes the best solution and
  tightens max_mdl to cost - 1;
* a single rule that covers a positive example and does not call its own
  head enters the promising pool of rules, and triggers an exact
  combination search bounded by max_mdl, the only path to a union of
  rules; a union cheaper than the best cost becomes the best solution;
* every tested program contributes pruning constraints to the store that
  the generator consults.

The space searched, the bias-induced space, is the empty program, the
unions of any number of usable rules that call no target, built by
combine (``max_rules`` does not bound them), and the recursive programs
of at most ``max_rules`` usable rules, yielded by generate.

The loop ends when the stratum size exceeds max_mdl, when the bias space
is exhausted, or at the timeout, and returns the best hypothesis found.
The timeout is one ``time.perf_counter()`` deadline.  Generate checks it
once per parent rule of a pool build, every 1,024 rules while a pool is
ordered and filtered, and once per candidate; test before each example
and every 4,096 resolution steps; combine every 1,024 nodes.  Passing it
raises ``SearchTimeout``, and the best hypothesis found so far is
returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .combine import PromisingPool, decode, solve
from .constrain import ConstraintStore, derive
from .evaluate import (
    BUILTINS,
    BackgroundKnowledge,
    Coverage,
    EvalBudget,
    Evaluator,
    ExampleSet,
    SearchTimeout,
    mdl_cost,
)
from .generate import Bias, GeneratorState
from .logic import (
    Hypothesis,
    format_rule,
    is_recursive,
    prog_size,
)

__all__ = ["SearchConfig", "SearchStats", "learn", "print_program"]


@dataclass
class SearchConfig:
    timeout: float = 600.0
    enable_noisy_constraints: bool = True
    budget: EvalBudget = field(default_factory=EvalBudget)
    trace: bool = False

    def __post_init__(self):
        if not self.timeout > 0:  # also rejects NaN
            raise ValueError("timeout must be positive")


@dataclass
class SearchStats:
    """The record of one ``learn`` call.  The CLI's summary and ``--trace``
    text render it, and the JSON run report holds every field under its
    own name."""

    programs_tested: int = 0
    candidates_seen: int = 0
    candidates_pruned: int = 0
    candidates_skipped: int = 0  # every rule calls a target; also pruned
    constraints_derived: int = 0
    combine_calls: int = 0
    pool_size: int = 0
    budget_exhausted: int = 0
    proofs_skipped: int = 0  # coverages decided without a proof
    timed_out: bool = False
    completed: bool = False
    best_cost: int = 0
    trajectory: list = field(default_factory=list)  # (seconds, cost)
    stage_time: dict = field(default_factory=dict)
    stage_calls: dict = field(default_factory=dict)
    stage_max: dict = field(default_factory=dict)
    total_time: float = 0.0

    def record_stage(self, stage: str, dt: float) -> None:
        self.stage_time[stage] = self.stage_time.get(stage, 0.0) + dt
        self.stage_calls[stage] = self.stage_calls.get(stage, 0) + 1
        if dt > self.stage_max.get(stage, 0.0):
            self.stage_max[stage] = dt


def print_program(h: Hypothesis, cov: Coverage) -> None:
    """Prints ``h``, one rule a line, then a comment line with its
    coverage counts, size and MDL cost."""
    for rule in sorted(h, key=format_rule):
        print(format_rule(rule))
    print(f"% size:{prog_size(h)} tp:{cov.tp} fn:{cov.fn} tn:{cov.tn} "
          f"fp:{cov.fp} cost:{mdl_cost(h, cov)}")


def learn(bk: BackgroundKnowledge, examples: ExampleSet, bias: Bias,
          config: SearchConfig | None = None):
    """Search for a minimum-MDL-cost hypothesis.  Returns (hypothesis,
    stats).  On natural termination the result cost is minimal over the
    bias-induced space: unions of any number of usable rules that call no
    target, from combine, and recursive programs of at most ``max_rules``
    rules, from generate.  On timeout it is the best found so far."""
    config = config or SearchConfig()
    _validate(bk, examples, bias)
    t0 = time.perf_counter()
    deadline = t0 + config.timeout
    ev = Evaluator(bk, examples, config.budget, deadline)
    stats = SearchStats()
    store = ConstraintStore()
    num_pos = examples.num_pos
    gen = GeneratorState(bias, store, deadline, bk.modes())
    pool = PromisingPool()

    best: Hypothesis = frozenset()
    best_cost = num_pos
    max_mdl = num_pos
    stats.trajectory.append((0.0, best_cost))

    size = 2
    announced = None

    def stage(name, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            stats.record_stage(name, time.perf_counter() - t)

    def set_best(h, cov, cost):
        nonlocal best, best_cost, max_mdl
        best, best_cost = h, cost
        max_mdl = cost - 1
        stats.trajectory.append((time.perf_counter() - t0, cost))
        if config.trace:
            print("*" * 20)
            print("New best hypothesis:")
            print_program(h, cov)
            print("*" * 20)

    def run_combine():
        stats.combine_calls += 1
        result = stage("combine", solve, pool, examples, max_mdl, deadline)
        # solve returns the empty selection, at cost |E+|, only while no
        # program has beaten the empty one
        if result is None or result.cost >= best_cost:
            return
        union = decode(result)
        # ORs the rules' cached coverages; no proof runs
        ucov = stage("test", ev.test, union)
        assert mdl_cost(union, ucov) == result.cost
        set_best(union, ucov, result.cost)

    try:
        while size <= max_mdl and size <= bias.max_program_size:
            if config.trace and announced != size:
                print(f"Searching programs of size: {size}")
                announced = size
            h = stage("generate", gen.next_program, size)
            if h is None:
                size += 1
                continue
            cov = stage("test", ev.test, h)
            stats.programs_tested += 1
            h_size = prog_size(h)
            h_mdl = h_size + cov.fn + cov.fp
            # Algorithm line 11 compares against max_mdl, which after the
            # first improvement equals best cost - 1 and would miss a
            # recursive optimum better by exactly one; comparing against
            # the recorded best cost keeps the optimality contract.
            if h_mdl < best_cost:
                set_best(h, cov, h_mdl)
            if cov.tp > 0 and not is_recursive(h):
                (rule,) = h  # generate yields no separable program
                if pool.add(rule, cov):
                    run_combine()
            if config.enable_noisy_constraints:
                cons = stage("constrain", derive, h, cov, best_cost, num_pos,
                             bias.max_program_size)
                for c in cons:
                    if store.add(c):
                        stats.constraints_derived += 1
        stats.completed = True
    except SearchTimeout:
        stats.timed_out = True

    stats.best_cost = best_cost
    stats.candidates_seen = gen.candidates_seen
    stats.candidates_pruned = gen.candidates_pruned
    stats.candidates_skipped = gen.candidates_skipped
    stats.pool_size = len(pool)
    stats.budget_exhausted = ev.budget_exhausted
    stats.proofs_skipped = ev.proofs_skipped
    stats.total_time = time.perf_counter() - t0
    return best, stats


def _validate(bk: BackgroundKnowledge, examples: ExampleSet, bias: Bias) -> None:
    targets = set(bias.targets)
    example_preds = {(e.pred, len(e.args)) for e in examples.pos}
    example_preds |= {(e.pred, len(e.args)) for e in examples.neg}
    missing = example_preds - targets
    if missing:
        raise ValueError(f"example predicates {sorted(missing)} are not bias targets")
    # background independence: only the hypothesis defines a target, and no
    # background rule calls one.  So a program in which every rule calls a
    # target proves no target atom, which the generator relies on to skip it.
    for key in sorted(targets):
        if bk.defines(key) or key in BUILTINS:
            raise ValueError(f"background defines target {key[0]}/{key[1]}")
    for rule in bk.rules:
        for lit in rule.body:
            if (lit.pred, len(lit.args)) in targets:
                raise ValueError(
                    f"background rule body calls target {lit.pred}/{len(lit.args)}")
    # note: a bias body predicate with no facts, rules, or built-in simply
    # never proves anything; an empty relation is legal background
