"""Command-line entry points: learn, gen-task, bench."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .evaluate import EvalBudget, Evaluator
from .logic import format_rule, prog_size
from .search import SearchConfig, learn
from .tasks import (
    FAMILIES,
    bench,
    evaluate,
    generate_task,
    load_task,
    write_task_dir,
)


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
    wall = time.perf_counter() - t
    cov = Evaluator(task.bk, task.train, config.budget).test(h)
    if not args.trace:
        for rule in sorted(h, key=format_rule):
            print(format_rule(rule))
        print(f"% size:{prog_size(h)} tp:{cov.tp} fn:{cov.fn} "
              f"tn:{cov.tn} fp:{cov.fp} cost:{stats.best_cost}")
    print(f"% programs tested: {stats.programs_tested}  "
          f"constraints: {stats.constraints_derived}  "
          f"combine calls: {stats.combine_calls}  "
          f"eval budget exhausted: {stats.budget_exhausted}  "
          f"time: {wall:.2f}s"
          f"{'  (timeout)' if stats.timed_out else ''}")
    if args.report:
        report = evaluate(h, task, stats=stats, wall_time=wall, config=config)
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


def _cmd_bench(args) -> int:
    with open(args.grid) as f:
        grid = json.load(f)
    rows = bench(grid)
    header = f"{'task':<10} {'n':>5} {'noise':>6} {'acc':>14} {'time':>8}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['task']:<10} {r['n']:>5} {r['noise']:>6.2f} "
              f"{r['acc_mean'] * 100:>7.1f} ± {r['acc_stderr'] * 100:<4.1f} "
              f"{r['time_mean']:>7.1f}s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rows, f, indent=2)
        print(f"results written to {args.out}")
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
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="flip this proportion of training labels")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the label noise that --noise adds")
    p.add_argument("--no-noisy-constraints", action="store_true",
                   help="disable noise-tolerant pruning constraints")
    p.add_argument("--trace", action="store_true",
                   help="print best-hypothesis blocks and stage timings")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--max-depth", type=int, default=30,
                   help="resolution depth bound per example")
    p.add_argument("--max-steps", type=int, default=1_000_000,
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

    p = sub.add_parser("bench", help="run a (task x noise x seed) grid")
    p.add_argument("--grid", required=True, help="grid JSON file")
    p.add_argument("--out", help="write rows as JSON here")
    p.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
