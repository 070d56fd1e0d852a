"""Per-layer timing of one ``learn`` call, from outside the package.

``install`` replaces each traced function with a timing wrapper under the
name its caller looks up at run time.  ``search`` binds ``solve`` and
``derive`` when it is imported, and ``generate`` binds ``canonicalize`` the
same way, so those are patched in the calling module; ``enumerate_rules``
is patched in ``generate``, where ``GeneratorState.pool`` looks it up, and
methods are patched on their class.  Spans nest: a span's self time
is its duration minus the time of the traced spans it encloses.
"""

from __future__ import annotations

import importlib
import time

# spans kept one by one for the raw trace; the others are only summed,
# since they run up to millions of times per learn
COARSE = {"learn", "generate.next_program", "generate.enumerate_rules",
          "evaluate.test", "combine.solve", "constrain.derive"}


class Tracer:
    def __init__(self):
        self.total: dict = {}
        self.own: dict = {}
        self.calls: dict = {}
        self.max: dict = {}
        self.items: dict = {}
        self.spans: list = []  # (name, start, end, parent span index)
        self._stack = [[0.0, -1]]  # [enclosed traced time, span index]
        self._origin = time.perf_counter()

    def wrap(self, name, fn, count_items=False):
        clock = time.perf_counter
        stack = self._stack
        coarse = name in COARSE

        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if coarse:
                frame[1] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                self.total[name] = self.total.get(name, 0.0) + dt
                self.own[name] = self.own.get(name, 0.0) + dt - frame[0]
                self.calls[name] = self.calls.get(name, 0) + 1
                if dt > self.max.get(name, 0.0):
                    self.max[name] = dt
                if coarse:
                    self.spans[frame[1]] = (name, t0 - self._origin,
                                            t1 - self._origin, stack[-1][1])
            if count_items:
                self.items[name] = self.items.get(name, 0) + len(result)
            return result

        return traced

    def summary(self) -> dict:
        return {name: {"total_s": self.total[name], "self_s": self.own[name],
                       "calls": self.calls[name], "max_s": self.max[name],
                       "items": self.items.get(name, 0)}
                for name in self.total}


def install(tracer: Tracer):
    """Patch the traced names; returns a function that restores them."""
    mod = importlib.import_module  # ``mdlsynth.evaluate`` is shadowed by a function
    search = mod("mdlsynth.search")
    generate = mod("mdlsynth.generate")
    constrain = mod("mdlsynth.constrain")
    evaluate = mod("mdlsynth.evaluate")
    targets = [
        (search, "solve", "combine.solve", False),
        (search, "derive", "constrain.derive", False),
        (generate, "enumerate_rules", "generate.enumerate_rules", True),
        (generate, "canonicalize", "logic.canonicalize", False),
        (generate.GeneratorState, "next_program", "generate.next_program", False),
        (evaluate.Evaluator, "test", "evaluate.test", False),
        (constrain.ConstraintStore, "violates", "constrain.violates", False),
        (constrain.ConstraintStore, "singleton_pruned",
         "constrain.singleton_pruned", False),
        (constrain, "clause_subsumes", "logic.clause_subsumes", False),
    ]
    saved = []
    for owner, attr, name, count_items in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count_items))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
