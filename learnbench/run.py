"""Benchmark of ``mdlsynth.learn``, end to end and per layer.

    python3 learnbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of the repository.  Each ``learn`` call runs in a fresh
single-threaded process (learn_once.py), one at a time, so that
process-wide caches start cold as they do for a user of the CLI.  A run
repeats whole rounds of one ``learn`` call each until the next round would
end after ``--seconds``.  The rounds step through the workload's
PYTHONHASHSEED values, starting at the one ``--seed`` picks.  Every
returned program is re-scored by checker.py, which shares no code with
``mdlsynth.evaluate``, and a call that returns more than DEADLINE_SLACK
past its timeout counts as failed.

Times are reported at a fixed host speed.  A shared virtual machine can
run the same work up to twice as fast or as slowly from one second to the
next, so each learn process samples the host's speed while it works and
scales its own times to the reference speed (learn_once.HostSampler);
waiting out a timeout is not scaled, unless the call missed it.  The wall
times stay in the raw records.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
its calls.  With ``--trace 1`` each round makes one untraced and one
traced call, and the run reports the per-layer metrics of the traced
calls and the tracing overhead.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  Raw records go to
learnbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from workloads import DEADLINE_SLACK, TARGETS, WORKLOADS  # noqa: E402

# a run ends within this many seconds whatever --seconds says
HARD_LIMIT_S = 170.0
# set-up is timed in every learn process, and in extra set-up-only
# processes until a run holds this many samples
MIN_SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "learn_s": "s",
    "best_found_s": "s",
    "train_cost": "count",
    "test_acc": "ratio",
    "peak_rss_mb": "MB",
}


class RunError(RuntimeError):
    pass


def child(workload: str, hash_seed: int, deadline: float, *flags) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # set-up is timed with the compiled modules cached, as a user has them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "learn_once.py"), workload, *flags]
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise RunError("run time limit reached")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired as e:
        raise RunError(f"learn process for {workload} killed after "
                       f"{budget:.0f} s") from e
    if proc.returncode != 0:
        raise RunError(f"learn process for {workload} exited with "
                       f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["hash_seed"] = hash_seed
    return record


def learn_scale(record: dict) -> float:
    """Seconds of learn work at the reference speed per wall second."""
    return record["scaled"]["learn_work_s"] / record["learn_s"]


def scaled_learn_s(record: dict, w) -> float:
    """learn_s at the reference speed.

    A call that stops at its timeout takes the timeout, which no host
    speed changes, plus its overrun scaled.  A call that misses its
    deadline was not bounded by the timeout, so it takes its whole work
    scaled: a faster host does more of it before the deadline."""
    if record["timed_out"] and not missed_deadline(record, w):
        overrun = record["learn_s"] - w.timeout
        return w.timeout + overrun * learn_scale(record)
    return record["scaled"]["learn_work_s"]


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def _atoms(literals) -> list:
    return [(lit.pred, tuple(lit.args)) for lit in literals]


def reference_data(w) -> dict:
    """The workload's examples and facts, built in this process."""
    sys.path.insert(0, str(SRC))
    from mdlsynth.tasks import generate_task

    clean = generate_task(w.family, w.n_examples, w.data_seed)
    task = clean.with_noise(w.noise, w.noise_seed) if w.noise else clean
    flipped = len(set(task.train.pos) - set(clean.train.pos)) + \
        len(set(task.train.neg) - set(clean.train.neg))
    return {
        "facts": _atoms(task.bk.facts),
        "train": (_atoms(task.train.pos), _atoms(task.train.neg)),
        "test": (_atoms(task.test.pos), _atoms(task.test.neg)),
        "flipped": flipped,
        "target_size": checker.program_size(
            checker.parse_program(TARGETS[w.family])),
    }


def check(record: dict, w, data: dict) -> list:
    """Problems with one learn record; empty when the record is right."""
    problems = []
    rules = [checker.parse_rule(line) for line in record["program"]]
    train = checker.coverage(rules, data["facts"], *data["train"])
    test = checker.coverage(rules, data["facts"], *data["test"])
    cost = checker.mdl_cost(rules, train)
    num_pos = len(data["train"][0])
    if cost != record["best_cost"]:
        problems.append(f"checker cost {cost} != best_cost {record['best_cost']}")
    if cost != record["train_cost"]:
        problems.append(f"checker cost {cost} != reported {record['train_cost']}")
    if cost > num_pos:
        problems.append(f"cost {cost} exceeds |E+| = {num_pos}")
    if w.natural_end and not record["completed"]:
        problems.append("learn did not end naturally")
    if record["completed"]:
        bound = data["target_size"] + data["flipped"]
        if cost > bound:
            problems.append(f"cost {cost} exceeds target size plus flipped "
                            f"labels = {bound}")
    acc = checker.accuracy(test)
    if acc != record["test_acc"]:
        problems.append(f"checker test accuracy {acc} != {record['test_acc']}")
    traj = record["trajectory"]
    if traj[-1][1] != record["best_cost"]:
        problems.append("trajectory does not end at best_cost")
    if any(b[1] >= a[1] or b[0] < a[0] for a, b in zip(traj, traj[1:])):
        problems.append("trajectory is not strictly improving")
    if not 0 <= record["best_found_s"] <= record["learn_s"]:
        problems.append("best_found_s outside the learn call")
    return problems


def missed_deadline(record: dict, w) -> bool:
    return record["learn_s"] > w.timeout * (1 + DEADLINE_SLACK)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(records: list, setups: list, w) -> dict:
    med = lambda f: statistics.median(f(r) for r in records)
    values = {
        "setup_s": statistics.median(setups),
        "learn_s": med(lambda r: scaled_learn_s(r, w)),
        "best_found_s": med(lambda r: r["scaled"]["best_found_s"]),
    }
    for key in ("train_cost", "test_acc", "peak_rss_mb"):
        values[key] = med(lambda r: r[key])
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(record: dict, w) -> dict:
    """Per-layer values of one traced learn call, with their units.

    Times are scaled to the reference speed by the scale of the whole
    learn call, which also takes out the share of the host samples."""
    layers = record["layers"]
    scale = learn_scale(record)

    def get(name, field):
        value = layers.get(name, {}).get(field, 0)
        return value * scale if field.endswith("_s") else value

    learn_s = scaled_learn_s(record, w)
    pool_s = get("generate.enumerate_rules", "total_s")
    pool_rules = get("generate.enumerate_rules", "items")
    outside_pool_s = get("generate.next_program", "total_s") - pool_s
    test_s = get("evaluate.test", "total_s")
    test_calls = get("evaluate.test", "calls")
    return {
        "tasks.generate_task_s": (record["generate_task_s"]
                                  * record["scaled"]["setup_s"]
                                  / record["setup_s"], "s"),
        "generate.pool_build_s": (pool_s, "s"),
        "generate.pool_rules": (pool_rules, "count"),
        "generate.pool_rules_per_s": (_ratio(pool_rules, pool_s), "1/s"),
        "logic.canonicalize_s": (get("logic.canonicalize", "total_s"), "s"),
        "generate.assembly_s": (get("generate.next_program", "self_s"), "s"),
        "generate.candidates_seen": (record["candidates_seen"], "count"),
        "generate.candidates_pruned": (record["candidates_pruned"], "count"),
        "generate.candidates_per_s": (
            _ratio(record["candidates_seen"], outside_pool_s), "1/s"),
        "constrain.query_s": (get("constrain.violates", "total_s")
                              + get("constrain.singleton_pruned", "total_s"), "s"),
        "constrain.query_calls": (get("constrain.violates", "calls")
                                  + get("constrain.singleton_pruned", "calls"),
                                  "count"),
        "logic.clause_subsumes_s": (get("logic.clause_subsumes", "total_s"), "s"),
        "logic.clause_subsumes_calls": (get("logic.clause_subsumes", "calls"),
                                        "count"),
        "constrain.derive_s": (get("constrain.derive", "total_s"), "s"),
        "constrain.constraints_added": (record["constraints_derived"], "count"),
        "evaluate.test_s": (test_s, "s"),
        "evaluate.test_calls": (test_calls, "count"),
        "evaluate.test_max_s": (get("evaluate.test", "max_s"), "s"),
        "evaluate.programs_per_s": (_ratio(test_calls, test_s), "1/s"),
        "evaluate.budget_exhausted": (record["budget_exhausted"], "count"),
        "combine.solve_s": (get("combine.solve", "total_s"), "s"),
        "combine.solve_calls": (get("combine.solve", "calls"), "count"),
        "combine.solve_max_s": (get("combine.solve", "max_s"), "s"),
        "combine.pool_size": (record["pool_size"], "count"),
        "search.self_s": (get("learn", "self_s"), "s"),
        "search.programs_tested": (record["programs_tested"], "count"),
        "search.deadline_overrun_s": (
            max(0.0, learn_s - w.timeout) if record["timed_out"] else 0.0, "s"),
        "trace.learn_s": (learn_s, "s"),
        "host.speed": (record["host_speed"], "ratio"),
        "host.learn_wall_s": (record["learn_s"], "s"),
    }


def per_layer(traced: list, untraced: list, w) -> dict:
    rows = [layer_metrics(r, w) for r in traced]
    out = {name: {"value": statistics.median(row[name][0] for row in rows),
                  "unit": unit}
           for name, (_, unit) in rows[0].items()}
    out["trace.overhead"] = {
        "value": out["trace.learn_s"]["value"]
        / statistics.median(scaled_learn_s(r, w) for r in untraced),
        "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    # first import in a fresh checkout compiles the package; users pay
    # that once, so it is kept out of the set-up samples
    child(name, w.hash_seeds[0], deadline, "--setup-only")
    data = reference_data(w)
    untraced, traced = [], []
    i = 0
    while True:
        t = time.perf_counter()
        hash_seed = w.hash_seeds[(seed + i) % len(w.hash_seeds)]
        if trace:
            # alternate which of the pair runs first
            for traced_call in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_call:
                    traced.append(child(name, hash_seed, deadline, "--trace"))
                else:
                    untraced.append(child(name, hash_seed, deadline))
        else:
            untraced.append(child(name, hash_seed, deadline))
        i += 1
        now = time.perf_counter()
        if now + (now - t) > start + min(seconds, HARD_LIMIT_S - 30):
            break
    records = untraced + traced
    setups = [r["scaled"]["setup_s"] for r in records]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(child(name, w.hash_seeds[len(setups) % len(w.hash_seeds)],
                            deadline, "--setup-only")["scaled"]["setup_s"])

    problems = []
    failed = 0
    for r in records:
        r["problems"] = check(r, w, data)
        r["missed_deadline"] = missed_deadline(r, w)
        failed += r["missed_deadline"]
        problems += r["problems"]
    metrics = per_layer(traced, untraced, w) if trace else \
        end_to_end(untraced, setups, w)
    result = {"correct": not problems, "attempted": len(records),
              "failed": failed, "metrics": metrics}

    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    raw = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps({"workload": name, "seed": seed,
                               "seconds": seconds, "result": result,
                               "setup_samples": setups,
                               "records": records}) + "\n")
    for p in problems:
        print(f"{name}: {p}", file=sys.stderr)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "mdlsynth" / "__init__.py").is_file():
        print(f"mdlsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RunError as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}  attempted = {result['attempted']}  "
              f"failed = {result['failed']}  correct = {result['correct']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
