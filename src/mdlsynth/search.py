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
from .constrain import ConstraintStore, SearchBounds, derive
from .evaluate import (
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

__all__ = ["SearchConfig", "SearchStats", "SearchState", "learn",
           "loop_invariant_check"]


@dataclass
class SearchConfig:
    timeout: float = 600.0
    enable_noisy_constraints: bool = True
    budget: EvalBudget = field(default_factory=EvalBudget)
    trace: bool = False
    debug: bool = False

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class SearchStats:
    programs_tested: int = 0
    candidates_seen: int = 0
    candidates_pruned: int = 0
    candidates_skipped: int = 0  # every rule calls a target; also pruned
    constraints_derived: int = 0
    combine_calls: int = 0
    pool_size: int = 0
    budget_exhausted: int = 0
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


@dataclass
class SearchState:
    """Loop snapshot for the debug invariant check."""

    size: int
    max_mdl: int
    best: Hypothesis
    best_cost: int
    evaluator: Evaluator


def loop_invariant_check(state: SearchState) -> bool:
    """Asserts the Algorithm invariants; raises AssertionError naming the
    violated one."""
    assert state.size <= state.max_mdl + 1, \
        f"stratum size {state.size} ran past max_mdl {state.max_mdl} + 1"
    if state.best:
        assert state.max_mdl == state.best_cost - 1, \
            f"max_mdl {state.max_mdl} != best cost {state.best_cost} - 1"
    else:
        assert state.max_mdl in (state.best_cost, state.best_cost - 1), \
            "initial max_mdl must equal the empty-hypothesis cost"
    retested = mdl_cost(state.best, state.evaluator.test(state.best))
    assert retested == state.best_cost, \
        f"recorded best cost {state.best_cost} != re-tested {retested}"
    return True


def _print_best(h, cov, size, cost, trace):
    if not trace:
        return
    print("*" * 20)
    print("New best hypothesis:")
    print(f"tp:{cov.tp} fn:{cov.fn} tn:{cov.tn} fp:{cov.fp} size:{size} cost:{cost}")
    for rule in sorted(h, key=format_rule):
        print(format_rule(rule))
    print("*" * 20)
    print(f"new best cost {cost}")


def _print_solution(h, cov, trace):
    if not trace:
        return
    tp, fp, fn = cov.tp, cov.fp, cov.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    print("*" * 10, "SOLUTION", "*" * 10)
    print(f"Precision:{precision:.2f} Recall:{recall:.2f} "
          f"TP:{tp} FN:{fn} TN:{cov.tn} FP:{fp} "
          f"Size:{prog_size(h)} cost:{prog_size(h) + fn + fp}")
    for rule in sorted(h, key=format_rule):
        print(format_rule(rule))
    print("*" * 30)


def _print_timing(stats: SearchStats, trace):
    if not trace:
        return
    print(f"Num. programs: {stats.programs_tested}")
    print(f"Skipped, every rule calls a target: {stats.candidates_skipped} "
          f"of {stats.candidates_seen} candidates")
    op_total = sum(stats.stage_time.values())
    for stage in ("Generate", "Test", "Constrain", "Combine"):
        key = stage.lower()
        calls = stats.stage_calls.get(key, 0)
        total = stats.stage_time.get(key, 0.0)
        mean = total / calls if calls else 0.0
        pct = int(100 * total / op_total) if op_total else 0
        print(f"{stage}:")
        print(f"\tCalled: {calls} times \t Total: {total:.2f} \t "
              f"Mean: {mean:.3f} \t Max: {stats.stage_max.get(key, 0.0):.3f} \t "
              f"Percentage: {pct}%")
    print(f"Total operation time: {op_total:.2f}s")
    print(f"Total execution time: {stats.total_time:.2f}s")


def learn(bk: BackgroundKnowledge, examples: ExampleSet, bias: Bias,
          config: SearchConfig | None = None):
    """Search for a minimum-MDL-cost hypothesis.  Returns (hypothesis,
    stats).  On natural termination the result cost is minimal over the
    bias-induced space; on timeout it is the best found so far."""
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
    best_cov = Coverage(0, 0, num_pos, examples.num_neg)
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
        nonlocal best, best_cov, best_cost, max_mdl
        best, best_cov, best_cost = h, cov, cost
        max_mdl = cost - 1
        stats.trajectory.append((time.perf_counter() - t0, cost))
        _print_best(h, cov, prog_size(h), cost, config.trace)

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
                bounds = SearchBounds(best_cost, num_pos)
                cons = stage("constrain", derive, h, cov, bounds,
                             bias.max_program_size)
                for c in cons:
                    if store.add(c):
                        stats.constraints_derived += 1
            if config.debug:
                loop_invariant_check(SearchState(
                    size, max_mdl, best, best_cost, ev))
        stats.completed = True
    except SearchTimeout:
        stats.timed_out = True

    stats.best_cost = best_cost
    stats.candidates_seen = gen.candidates_seen
    stats.candidates_pruned = gen.candidates_pruned
    stats.candidates_skipped = gen.candidates_skipped
    stats.pool_size = len(pool)
    stats.budget_exhausted = ev.budget_exhausted
    stats.total_time = time.perf_counter() - t0
    _print_solution(best, best_cov, config.trace)
    _print_timing(stats, config.trace)
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
        if bk.defines(key) or key in bk.builtins:
            raise ValueError(f"background defines target {key[0]}/{key[1]}")
    for rule in bk.rules:
        for lit in rule.body:
            if (lit.pred, len(lit.args)) in targets:
                raise ValueError(
                    f"background rule body calls target {lit.pred}/{len(lit.args)}")
    # note: a bias body predicate with no facts, rules, or built-in simply
    # never proves anything; an empty relation is legal background
