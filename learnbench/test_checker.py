"""Tests of the benchmark's independent checker.

    PYTHONPATH=src python -m pytest learnbench/test_checker.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
from workloads import TARGETS, WORKLOADS  # noqa: E402

from mdlsynth.tasks import FAMILIES, generate_task  # noqa: E402


def atoms(literals):
    return [(lit.pred, tuple(lit.args)) for lit in literals]


@pytest.mark.parametrize("family", FAMILIES)
def test_target_program_is_exact_on_clean_splits(family):
    task = generate_task(family, 40, seed=3)
    rules = checker.parse_program(TARGETS[family])
    facts = atoms(task.bk.facts)
    for split in (task.train, task.test):
        cov = checker.coverage(rules, facts, atoms(split.pos), atoms(split.neg))
        assert cov["fn"] == 0 and cov["fp"] == 0
        assert cov["tp"] == split.num_pos


def test_wrong_program_is_scored():
    # evens without the parity test accepts every list
    rules = checker.parse_program("""
        evens(A):- empty(A).
        evens(A):- tail(A,C),evens(C).
    """)
    pos = [("evens", ((2, 4),)), ("evens", ((),))]
    neg = [("evens", ((1,),)), ("evens", ((2, 3),))]
    cov = checker.coverage(rules, [], pos, neg)
    assert cov == {"tp": 2, "fn": 0, "fp": 2, "tn": 0}
    assert checker.mdl_cost(rules, cov) == 5 + 2


def test_builtin_waits_for_its_input():
    # head(B,C) cannot run until evens(B) binds B; the base case binds
    # B to [], whose head does not exist, so nothing is proved
    rules = checker.parse_program("""
        evens(A):- empty(A).
        evens(A):- evens(B),head(A,C),head(B,C).
    """)
    cov = checker.coverage(rules, [], [("evens", ((2,),))], [])
    assert cov["tp"] == 0


def test_unused_head_variable_stays_free():
    rules = [checker.parse_rule("dropk(A,B,C):- tail(A,C).")]
    assert checker.Program(rules).entails("dropk", ((1, 2), 7, (2,)))


def test_workload_families_have_targets():
    assert {w.family for w in WORKLOADS.values()} <= set(TARGETS)


def test_parse_rejects_trailing_input():
    with pytest.raises(checker.CheckerError):
        checker.parse_rule("p(A):- q(A). r")
