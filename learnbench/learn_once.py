"""One ``learn`` call in a fresh process; prints one JSON record.

    python3 learnbench/learn_once.py WORKLOAD [--trace] [--setup-only]

``src`` must be on PYTHONPATH.  The record holds the set-up time (import
of mdlsynth plus building the task), the learn time, the returned program
as text, mdlsynth's own scores of it and the peak resident memory.  With
``--trace`` it also holds the per-layer times of tracer.py; with
``--setup-only`` it stops after set-up.

The times come twice: as measured (``setup_s``, ``learn_s``,
``best_found_s``) and scaled to a fixed host speed by HostSampler
(``scaled``).
"""

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time

# HostSampler runs _reference_loop(SAMPLE_ITERS) every SAMPLE_PERIOD_S
# seconds of wall time; SAMPLE_REF_S is how long that takes on the host of
# the README's figures at its usual speed.  Changing any of them changes
# every scaled time.
SAMPLE_PERIOD_S = 0.05
SAMPLE_ITERS = 300
SAMPLE_REF_S = 0.0019
# the speed of a span is read from the samples taken in it and in the
# WIDEN_S seconds after it, so that a short span has samples too
WIDEN_S = 0.25


def _walk(term, env, depth):
    if depth == 0:
        return 1
    n = 0
    for a in term:
        v = env.get(a, a)
        n += _walk(v, env, depth - 1) if type(v) is tuple else 1
    return n


def _reference_loop(iters: int) -> int:
    """A fixed pure-Python workload.

    It does the kind of work learn spends its time on (building and
    hashing tuples, dict and set lookups, recursion over nested tuples,
    sorting) and touches nothing of mdlsynth, so its time follows the
    speed the host gives the process, not the code under test.  Its keys
    are ints, so PYTHONHASHSEED does not move it.
    """
    counts, pairs, acc = {}, set(), 0
    for i in range(iters):
        key = (i % 97, i % 13, i & 1)
        counts[key] = counts.get(key, 0) + 1
        pairs.add(frozenset(key[:2]))
        acc += sum(x for x in [j * i for j in range(8)] if x & 3)
        if i % 5 == 0:
            env = {(0, j): ((i + j) % 7, (0, j + 1)) for j in range(6)}
            acc += _walk(((0, 0), (0, 2), i % 5, (0, 4)), env, 6)
            acc += len(sorted(env, key=lambda k: k[1] * (i % 3)))
    return acc


class HostSampler:
    """Samples the speed the host gives this process while it works.

    A shared virtual machine can run the same work up to twice as fast or
    as slowly from one second to the next.  A timer signal interrupts the process every
    SAMPLE_PERIOD_S seconds, and the handler times a short reference loop,
    so the samples interleave with the work they scale.  A span's work at
    the reference speed is its wall time, less the samples taken inside
    it, times the mean speed SAMPLE_REF_S / (sample time) of the samples
    taken in it and in the WIDEN_S seconds after it.  Garbage collection
    is off inside a sample, so the heap learn builds does not slow it.
    """

    def __init__(self):
        self.samples = []  # (start, duration)

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        _reference_loop(SAMPLE_ITERS)
        self.samples.append((t, time.perf_counter() - t))
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, a: float, b: float) -> float:
        near = [d for t, d in self.samples if a <= t < b + WIDEN_S]
        return statistics.mean(SAMPLE_REF_S / d for d in near)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of work in the span [a, b] at the reference speed."""
        inside = sum(d for t, d in self.samples if a <= t < b)
        return (b - a - inside) * self.speed(a, b)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]

    sampler = HostSampler()
    sampler.start()
    t0 = time.perf_counter()
    import mdlsynth

    t1 = time.perf_counter()
    task = mdlsynth.generate_task(w.family, w.n_examples, w.data_seed)
    t2 = time.perf_counter()
    if w.noise:
        task = task.with_noise(w.noise, w.noise_seed)
    t3 = time.perf_counter()
    record = {"setup_s": t3 - t0, "generate_task_s": t2 - t1}
    if args.setup_only:
        # keep working while the samples that scale set-up are taken
        while time.perf_counter() < t3 + WIDEN_S:
            _reference_loop(SAMPLE_ITERS)
        sampler.stop()
        record["scaled"] = {"setup_s": sampler.scaled(t0, t3)}
        print(json.dumps(record))
        return 0

    from mdlsynth.search import SearchConfig, learn
    from mdlsynth.tasks import evaluate

    config = SearchConfig(timeout=w.timeout)
    restore = None
    if args.trace:
        import tracer

        trace = tracer.Tracer()
        restore = tracer.install(trace)
        learn = trace.wrap("learn", learn)
    t = time.perf_counter()
    h, stats = learn(task.bk, task.train, task.bias, config)
    t_end = time.perf_counter()
    sampler.stop()
    learn_s = t_end - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if restore is not None:
        restore()
    best_found_s = stats.trajectory[-1][0]
    record["scaled"] = {
        "setup_s": sampler.scaled(t0, t3),
        "learn_work_s": sampler.scaled(t, t_end),
        "best_found_s": sampler.scaled(t, t + best_found_s),
    }
    record["host_speed"] = sampler.speed(t, t_end)
    report = evaluate(h, task, stats=stats, wall_time=learn_s, config=config)
    record.update({
        "learn_s": learn_s,
        "best_found_s": best_found_s,
        "trajectory": stats.trajectory,
        "best_cost": stats.best_cost,
        "completed": stats.completed,
        "timed_out": stats.timed_out,
        "program": mdlsynth.format_program(h).splitlines(),
        "train_cost": mdlsynth.mdl_cost(h, report.train_cov),
        "test_acc": report.test_accuracy,
        "programs_tested": stats.programs_tested,
        "candidates_seen": stats.candidates_seen,
        "candidates_pruned": stats.candidates_pruned,
        "constraints_derived": stats.constraints_derived,
        "pool_size": stats.pool_size,
        "budget_exhausted": stats.budget_exhausted,
        "peak_rss_mb": peak_rss_mb,
    })
    if args.trace:
        record["layers"] = trace.summary()
        record["spans"] = trace.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
