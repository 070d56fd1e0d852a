"""Command-line entry points: learn and gen-task.

``learn`` prints the program it found, one rule a line, then comment
lines with the program's training counts and MDL cost and with the
search's counters.  ``--trace`` also prints, while the search runs, each
program size it starts and each new best program, and, at the end, the
calls and time of each stage.  All of it is rendered from the run's
``SearchStats`` and one ``tasks.evaluate`` report, which ``--report``
writes as JSON.

Bad input, such as a missing file, a malformed task file or an option
out of range, ends with one ``mdlsynth: error: <message>`` line on
standard error and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
import time

from .evaluate import EvalBudget
from .search import SearchConfig, SearchStats, learn, print_program
from .tasks import FAMILIES, evaluate, generate_task, load_task, write_task_dir


def _print_timing(stats: SearchStats) -> None:
    print(f"Num. programs: {stats.programs_tested}")
    print(f"Skipped, every rule calls a target: {stats.candidates_skipped} "
          f"of {stats.candidates_seen} candidates")
    print(f"Coverages decided without a proof: {stats.proofs_skipped}")
    op_total = sum(stats.stage_time.values())
    for stage in ("generate", "test", "constrain", "combine"):
        calls = stats.stage_calls.get(stage, 0)
        total = stats.stage_time.get(stage, 0.0)
        mean = total / calls if calls else 0.0
        pct = int(100 * total / op_total) if op_total else 0
        print(f"{stage.capitalize()}: called {calls} times, total {total:.2f}s, "
              f"mean {mean:.3f}s, max {stats.stage_max.get(stage, 0.0):.3f}s, "
              f"{pct}%")
    print(f"Total operation time: {op_total:.2f}s")
    print(f"Total execution time: {stats.total_time:.2f}s")


def _cmd_learn(args) -> int:
    task = load_task(args.bk, args.bias, args.pos, args.neg)
    if args.noise:
        task = task.with_noise(args.noise, args.seed)
    config = SearchConfig(
        timeout=args.timeout,
        enable_noisy_constraints=not args.no_noisy_constraints,
        budget=EvalBudget(max_depth=args.max_depth, max_steps=args.max_steps),
        trace=args.trace,
    )
    t = time.perf_counter()
    h, stats = learn(task.bk, task.train, task.bias, config)
    report = evaluate(h, task, stats=stats,
                      wall_time=time.perf_counter() - t, config=config)
    print_program(h, report.train_cov)
    print(f"% programs tested: {stats.programs_tested}  "
          f"constraints: {stats.constraints_derived}  "
          f"combine calls: {stats.combine_calls}  "
          f"eval budget exhausted: {stats.budget_exhausted}  "
          f"time: {report.wall_time:.2f}s"
          f"{'  (timeout)' if stats.timed_out else ''}")
    if args.trace:
        _print_timing(stats)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report.to_json())
        print(f"% report written to {args.report}")
    return 0


def _cmd_gen_task(args) -> int:
    task = generate_task(args.family, args.n, args.seed)
    if args.noise:
        task = task.with_noise(args.noise, args.seed)
    write_task_dir(task, args.out)
    print(f"wrote {task.name} to {args.out} "
          f"(train {task.train.num_pos}+/{task.train.num_neg}-, "
          f"test {task.test.num_pos}+/{task.test.num_neg}-)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdlsynth",
        description="Learn minimum-description-length logic programs from "
                    "noisy examples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a program from task files")
    p.add_argument("--bk", required=True, help="background knowledge file")
    p.add_argument("--bias", required=True, help="bias file")
    p.add_argument("--pos", required=True, help="positive examples file")
    p.add_argument("--neg", required=True, help="negative examples file")
    p.add_argument("--timeout", type=float, default=SearchConfig.timeout)
    p.add_argument("--noise", type=float, default=0.0,
                   help="flip this proportion of training labels")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the label noise that --noise adds")
    p.add_argument("--no-noisy-constraints", action="store_true",
                   help="disable noise-tolerant pruning constraints")
    p.add_argument("--trace", action="store_true",
                   help="print each program size as the search starts it, "
                        "each new best program, and the calls and time of "
                        "each stage")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--max-depth", type=int, default=EvalBudget.max_depth,
                   help="resolution depth bound per example")
    p.add_argument("--max-steps", type=int, default=EvalBudget.max_steps,
                   help="inference step budget per example")
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("gen-task", help="generate a bundled synthetic task")
    p.add_argument("--family", required=True,
                   choices=sorted(set(FAMILIES) | {"zendo-like"}))
    p.add_argument("--n", type=int, default=200, help="training examples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_gen_task)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
