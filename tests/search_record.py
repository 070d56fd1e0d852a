"""Records what a search tests, to show that two versions of the code run
the same search.

    PYTHONPATH=src python -m tests.search_record FAMILY N NOISE [--timeout S] [--tests K]

Run from the root of the repository.  Learns the bundled FAMILY from N
training examples (data seed 0) with a fraction NOISE of their labels
flipped (noise seed 0).  Prints one JSON record per ``Evaluator.test``
call: the program's text, both coverage masks and ``budget_exhausted``
after the call.  The last line is one JSON object with the SHA-256 of
those records, the number of resolution steps charged (one per selected
goal), the number of tests, the search's total ``budget_exhausted``,
whether the search ended naturally, and its cost trajectory.  ``--tests
K`` stops the search before its (K+1)-th test, so a search cut by its
timeout can be compared over a prefix that does not depend on the host's
speed.  Two runs with equal last lines tested the
same programs, in the same order, with the same results and the same
resolution work.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from mdlsynth.evaluate import Evaluator, SearchTimeout
from mdlsynth.logic import format_program
from mdlsynth.search import SearchConfig, learn
from mdlsynth.tasks import generate_task


def record(family: str, n: int, noise: float, timeout: float = 60.0,
           max_tests: int | None = None):
    """(records, summary) of one search; see the module docstring."""
    task = generate_task(family, n, 0)
    task = task.with_noise(noise, 0) if noise else task
    records, steps = [], [0]
    test, solve = Evaluator.test, Evaluator._solve

    def recording_test(self, h):
        if len(records) == max_tests:
            raise SearchTimeout
        cov = test(self, h)
        records.append(json.dumps([format_program(h), cov.pos_mask,
                                   cov.neg_mask, self.budget_exhausted]))
        return cov

    def counting_solve(self, prog, goals, *args):
        # the step charged at the head of every call with goals to solve
        steps[0] += bool(goals)
        return solve(self, prog, goals, *args)

    Evaluator.test, Evaluator._solve = recording_test, counting_solve
    try:
        _, stats = learn(task.bk, task.train, task.bias,
                         SearchConfig(timeout=timeout))
    finally:
        Evaluator.test, Evaluator._solve = test, solve
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    summary = {"sha256": digest, "steps": steps[0], "tests": len(records),
               "budget_exhausted": stats.budget_exhausted,
               "completed": stats.completed,
               "costs": [c for _, c in stats.trajectory]}
    return records, summary


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m tests.search_record",
        description="Print what a search tests, and a digest of it.")
    parser.add_argument("family")
    parser.add_argument("n", type=int)
    parser.add_argument("noise", type=float)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--tests", type=int, default=None,
                        help="stop the search after this many tests")
    args = parser.parse_args(argv)
    records, summary = record(args.family, args.n, args.noise,
                              args.timeout, args.tests)
    for line in records:
        print(line)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
