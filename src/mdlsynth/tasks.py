"""Task I/O, bundled synthetic task families, noise injection, and
train/test evaluation.

Bundled families: four recursive list-transformation tasks (evens, dropk,
reverse, sorted) labelled by executing their known target programs, and two
structure-classification tasks (zendo1, zendo2) over randomly built piece
structures.  Test sets are always noiseless; noise flips training labels
only.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass

from .evaluate import (
    BackgroundKnowledge,
    Coverage,
    EvalBudget,
    Evaluator,
    ExampleSet,
    mdl_cost,
)
from .generate import Bias
from .logic import Hypothesis, Literal, format_rule, prog_size
from .parsing import parse_examples, parse_rules
from .search import SearchConfig, SearchStats

__all__ = [
    "Task",
    "RunReport",
    "inject_noise",
    "generate_task",
    "evaluate",
    "load_task",
    "write_task_dir",
    "FAMILIES",
]

RNG_ALGORITHM = "random.Random (Mersenne Twister)"


@dataclass
class Task:
    name: str
    bk: BackgroundKnowledge
    bk_source: str
    bias: Bias
    train: ExampleSet
    test: ExampleSet
    noise_p: float = 0.0
    noise_seed: int | None = None
    ground_truth: Hypothesis | None = None

    def __post_init__(self):
        overlap = (set(self.train.pos) | set(self.train.neg)) & \
                  (set(self.test.pos) | set(self.test.neg))
        if overlap:
            raise ValueError("train and test examples overlap")

    def with_noise(self, p: float, seed: int) -> "Task":
        return Task(self.name, self.bk, self.bk_source, self.bias,
                    inject_noise(self.train, p, seed), self.test,
                    noise_p=p, noise_seed=seed,
                    ground_truth=self.ground_truth)


@dataclass
class RunReport:
    task: str
    hypothesis: Hypothesis
    train_cov: Coverage
    test_cov: Coverage
    test_accuracy: float | None  # None when the task has no test split
    wall_time: float
    stats: SearchStats
    config: dict

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "hypothesis": sorted(format_rule(r) for r in self.hypothesis),
            "size": prog_size(self.hypothesis),
            "train": {"tp": self.train_cov.tp, "fn": self.train_cov.fn,
                      "fp": self.train_cov.fp, "tn": self.train_cov.tn},
            "train_cost": mdl_cost(self.hypothesis, self.train_cov),
            "test": {"tp": self.test_cov.tp, "fn": self.test_cov.fn,
                     "fp": self.test_cov.fp, "tn": self.test_cov.tn},
            "test_accuracy": self.test_accuracy,
            "wall_time": self.wall_time,
            "stats": asdict(self.stats),
            "config": self.config,
            "rng_algorithm": RNG_ALGORITHM,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def flip_selection(examples: ExampleSet, indices) -> ExampleSet:
    """Move each selected example (indices over positives then negatives) to
    the opposite label list.  Survivors keep their order; flipped examples
    are appended in their original order.  Applying the same selection twice
    restores the original id assignment up to this reordering rule."""
    npos = len(examples.pos)
    flips = set(indices)
    new_pos = [e for i, e in enumerate(examples.pos) if i not in flips]
    new_neg = [e for i, e in enumerate(examples.neg) if i + npos not in flips]
    new_pos += [e for i, e in enumerate(examples.neg) if i + npos in flips]
    new_neg += [e for i, e in enumerate(examples.pos) if i in flips]
    return ExampleSet(tuple(new_pos), tuple(new_neg))


def inject_noise(examples: ExampleSet, p: float, seed: int) -> ExampleSet:
    """Flip the labels of floor(p * n) examples chosen uniformly without
    replacement; deterministic per seed."""
    if not 0 <= p < 1:
        raise ValueError(f"noise proportion must be in [0, 1), got {p}")
    n = len(examples)
    k = math.floor(p * n)
    if k == 0:
        return examples
    rng = random.Random(seed)
    indices = rng.sample(range(n), k)
    return flip_selection(examples, indices)


# ---------------------------------------------------------------------------
# Bundled task families
# ---------------------------------------------------------------------------

_GT = {
    "evens": """
        evens(A):- empty(A).
        evens(A):- head(A,B),tail(A,C),even(B),evens(C).
    """,
    "dropk": """
        dropk(A,B,C):- tail(A,C),one(B).
        dropk(A,B,C):- decrement(B,E),tail(A,D),dropk(D,E,C).
    """,
    "reverse": """
        reverse(A,B):- empty(A),empty_out(B).
        reverse(A,B):- head(A,D),tail(A,E),reverse(E,C),append(C,D,B).
    """,
    "sorted": """
        sorted(A):- tail(A,B),empty(B).
        sorted(A):- tail(A,D),head(A,B),head(D,C),geq(C,B),sorted(D).
    """,
    "zendo1": """
        zendo1(A):- piece(A,B),blue(B),contact(B,C),red(C).
    """,
    "zendo2": """
        zendo2(A):- piece(A,B),red(B),small(B).
        zendo2(A):- piece(A,B),upright(B),contact(B,C),blue(C).
    """,
}

_BIAS = {
    "evens": """
        head_pred(evens,1).
        body_pred(empty,1). body_pred(head,2). body_pred(tail,2).
        body_pred(even,1). body_pred(odd,1).
        type(evens,(list,)). type(empty,(list,)). type(head,(list,int)).
        type(tail,(list,list)). type(even,(int,)). type(odd,(int,)).
        max_vars(3). max_body(4). max_rules(2). enable_recursion.
    """,
    "dropk": """
        head_pred(dropk,3).
        body_pred(tail,2). body_pred(one,1). body_pred(decrement,2).
        type(dropk,(list,int,list)). type(tail,(list,list)).
        type(one,(int,)). type(decrement,(int,int)).
        max_vars(5). max_body(3). max_rules(2). enable_recursion.
    """,
    "reverse": """
        head_pred(reverse,2).
        body_pred(empty,1). body_pred(empty_out,1). body_pred(head,2).
        body_pred(tail,2). body_pred(append,3).
        type(reverse,(list,list)). type(empty,(list,)). type(empty_out,(list,)).
        type(head,(list,int)). type(tail,(list,list)).
        type(append,(list,int,list)).
        max_vars(5). max_body(4). max_rules(2). enable_recursion.
    """,
    "sorted": """
        head_pred(sorted,1).
        body_pred(tail,2). body_pred(head,2). body_pred(empty,1).
        body_pred(geq,2).
        type(sorted,(list,)). type(tail,(list,list)). type(head,(list,int)).
        type(empty,(list,)). type(geq,(int,int)).
        max_vars(4). max_body(5). max_rules(2). enable_recursion.
    """,
    "zendo1": """
        head_pred(zendo1,1).
        body_pred(piece,2). body_pred(red,1). body_pred(blue,1).
        body_pred(green,1). body_pred(small,1). body_pred(large,1).
        body_pred(upright,1). body_pred(contact,2).
        max_vars(3). max_body(4). max_rules(2).
    """,
    "zendo2": """
        head_pred(zendo2,1).
        body_pred(piece,2). body_pred(red,1). body_pred(blue,1).
        body_pred(green,1). body_pred(small,1). body_pred(large,1).
        body_pred(upright,1). body_pred(contact,2).
        max_vars(3). max_body(4). max_rules(2).
    """,
}

FAMILIES = ("evens", "dropk", "reverse", "sorted", "zendo1", "zendo2")
_ALIASES = {"zendo-like": "zendo1"}


def _random_list(rng, max_len=5, even_bias=False):
    n = rng.randint(0, max_len)
    if even_bias and rng.random() < 0.5:
        return tuple(rng.choice((0, 2, 4, 6, 8)) for _ in range(n))
    return tuple(rng.randint(0, 9) for _ in range(n))


def _candidate_atoms(family: str, rng) -> Literal:
    if family == "evens":
        return Literal("evens", (_random_list(rng, even_bias=True),))
    if family == "dropk":
        l = _random_list(rng, max_len=5)
        k = rng.randint(1, 4)
        roll = rng.random()
        if roll < 0.45 and k <= len(l):
            r = l[k:]
        elif roll < 0.65:
            r = l[max(0, k - 1):] if rng.random() < 0.5 else l[min(len(l), k + 1):]
        else:
            r = _random_list(rng, max_len=4)
        return Literal("dropk", (l, k, r))
    if family == "reverse":
        l = _random_list(rng, max_len=5)
        roll = rng.random()
        if roll < 0.45:
            r = tuple(reversed(l))
        elif roll < 0.7 and len(l) >= 2:
            r = list(reversed(l))
            i, j = rng.sample(range(len(r)), 2)
            r[i], r[j] = r[j], r[i]
            r = tuple(r)
        else:
            r = _random_list(rng, max_len=5)
        return Literal("reverse", (l, r))
    if family == "sorted":
        l = _random_list(rng, max_len=5)
        if rng.random() < 0.45:
            l = tuple(sorted(l))
        return Literal("sorted", (l,))
    raise ValueError(f"unknown list family {family}")


def _sample_list_examples(family, gt, rng, n):
    bk = BackgroundKnowledge()
    probe = Evaluator(bk, ExampleSet((), ()))
    pos, neg, seen = [], [], set()
    want_pos = n - n // 2
    want_neg = n // 2
    attempts = 0
    while (len(pos) < want_pos or len(neg) < want_neg) and attempts < 400 * n:
        attempts += 1
        atom = _candidate_atoms(family, rng)
        if atom in seen:
            continue
        if probe.covers(gt, atom):
            if len(pos) < want_pos:
                seen.add(atom)
                pos.append(atom)
        elif len(neg) < want_neg:
            seen.add(atom)
            neg.append(atom)
    return pos, neg, seen


_ZENDO_COLORS = ("red", "blue", "green")
_ZENDO_SIZES = ("small", "large")


def _sample_zendo_structure(rng, ident: str, make_positive_hint: str | None):
    """Facts describing one structure of 1..4 pieces."""
    npieces = rng.randint(1, 4)
    facts = []
    pieces = [f"{ident}p{j}" for j in range(npieces)]
    colors = {}
    for p in pieces:
        facts.append(Literal("piece", (ident, p)))
        color = rng.choice(_ZENDO_COLORS)
        colors[p] = color
        facts.append(Literal(color, (p,)))
        facts.append(Literal(rng.choice(_ZENDO_SIZES), (p,)))
        if rng.random() < 0.5:
            facts.append(Literal("upright", (p,)))
    for a in range(npieces):
        for b in range(a + 1, npieces):
            if rng.random() < 0.4:
                facts.append(Literal("contact", (pieces[a], pieces[b])))
                facts.append(Literal("contact", (pieces[b], pieces[a])))
    if make_positive_hint == "zendo1" and npieces >= 2:
        # plant a blue piece touching a red piece
        pa, pb = pieces[0], pieces[1]
        facts = [f for f in facts
                 if not (f.pred in _ZENDO_COLORS and f.args[0] in (pa, pb))]
        facts += [Literal("blue", (pa,)), Literal("red", (pb,)),
                  Literal("contact", (pa, pb)), Literal("contact", (pb, pa))]
        colors[pa], colors[pb] = "blue", "red"
    elif make_positive_hint == "zendo2":
        p = pieces[0]
        facts = [f for f in facts
                 if not (f.pred in _ZENDO_COLORS + _ZENDO_SIZES and f.args[0] == p)]
        facts += [Literal("red", (p,)), Literal("small", (p,))]
        colors[p] = "red"
    return facts


def _sample_zendo_examples(family, gt, rng, n, fact_sink, start=0):
    pos, neg = [], []
    want_pos = n - n // 2
    want_neg = n // 2
    attempts = 0
    i = start
    # each scene is labelled against its own facts, and every probe shares
    # the one compiled target
    probes = Evaluator(BackgroundKnowledge(), ExampleSet((), ()))
    while (len(pos) < want_pos or len(neg) < want_neg) and attempts < 400 * n:
        attempts += 1
        ident = f"s{i}"
        hint = family if rng.random() < 0.4 else None
        facts = _sample_zendo_structure(rng, ident, hint)
        probe = probes.with_background(BackgroundKnowledge(facts=facts))
        atom = Literal(family, (ident,))
        if probe.covers(gt, atom):
            if len(pos) >= want_pos:
                continue
            pos.append(atom)
        else:
            if len(neg) >= want_neg:
                continue
            neg.append(atom)
        fact_sink.extend(facts)
        i += 1
    return pos, neg, i


def generate_task(family: str, n_examples: int, seed: int) -> Task:
    """A noiseless Task with train/test splits labelled by the family's
    target program; the target achieves fn = fp = 0 on both splits.  The
    test split is drawn with ``n_examples`` examples, as the train split."""
    family = _ALIASES.get(family, family)
    if family not in FAMILIES:
        raise ValueError(f"unknown task family {family!r}")
    if n_examples < 4:
        raise ValueError("n_examples must be at least 4")
    gt = frozenset(parse_rules(_GT[family]))
    bias = Bias.from_source(_BIAS[family])
    rng_train = random.Random(f"{family}:{seed}:train")
    rng_test = random.Random(f"{family}:{seed}:test")

    if family.startswith("zendo"):
        facts: list = []
        pos, neg, nxt = _sample_zendo_examples(family, gt, rng_train,
                                               n_examples, facts)
        tpos, tneg, _ = _sample_zendo_examples(family, gt, rng_test,
                                               n_examples, facts, start=nxt)
        bk = BackgroundKnowledge(facts=facts)
        bk_source = "\n".join(f"{f!r}." for f in facts) + "\n"
    else:
        pos, neg, seen = _sample_list_examples(family, gt, rng_train, n_examples)
        tpos_all, tneg_all, _ = _sample_list_examples(
            family, gt, rng_test, n_examples + len(seen))
        tpos = [a for a in tpos_all if a not in seen][: n_examples - n_examples // 2]
        tneg = [a for a in tneg_all if a not in seen][: n_examples // 2]
        bk = BackgroundKnowledge()
        bk_source = "% built-in list predicates only\n"

    return Task(
        name=f"{family}(n={n_examples},seed={seed})",
        bk=bk,
        bk_source=bk_source,
        bias=bias,
        train=ExampleSet(tuple(pos), tuple(neg)),
        test=ExampleSet(tuple(tpos), tuple(tneg)),
        ground_truth=gt,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(h: Hypothesis, task: Task, stats: SearchStats | None = None,
             wall_time: float = 0.0, config: SearchConfig | None = None) -> RunReport:
    """Train/test measurement of a hypothesis on a task, under the
    evaluation budget of ``config`` (the default one without it)."""
    budget = config.budget if config else EvalBudget()
    train_cov = Evaluator(task.bk, task.train, budget).test(h)
    test_cov = Evaluator(task.bk, task.test, budget).test(h)
    total = task.test.num_pos + task.test.num_neg
    acc = (test_cov.tp + test_cov.tn) / total if total else None
    return RunReport(
        task=task.name,
        hypothesis=h,
        train_cov=train_cov,
        test_cov=test_cov,
        test_accuracy=acc,
        wall_time=wall_time,
        stats=stats or SearchStats(),
        config={
            "timeout": config.timeout if config else None,
            "noisy_constraints": config.enable_noisy_constraints if config else None,
            "max_depth": budget.max_depth,
            "max_steps": budget.max_steps,
            "noise_p": task.noise_p,
            "noise_seed": task.noise_seed,
        },
    )


def coverage_equivalent(h1: Hypothesis, h2: Hypothesis, task: Task) -> bool:
    """Logically equivalent on the task's test set: identical coverage."""
    ev = Evaluator(task.bk, task.test)
    c1, c2 = ev.test(h1), ev.test(h2)
    return c1.pos_mask == c2.pos_mask and c1.neg_mask == c2.neg_mask


# ---------------------------------------------------------------------------
# File round trip
# ---------------------------------------------------------------------------

def write_task_dir(task: Task, outdir) -> None:
    import os

    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "bk.pl"), "w") as f:
        f.write(task.bk_source)
    with open(os.path.join(outdir, "bias.pl"), "w") as f:
        f.write(task.bias.to_source())
    for split, ex in (("train", task.train), ("test", task.test)):
        with open(os.path.join(outdir, f"{split}_pos.pl"), "w") as f:
            f.writelines(f"pos({a!r}).\n" for a in ex.pos)
        with open(os.path.join(outdir, f"{split}_neg.pl"), "w") as f:
            f.writelines(f"neg({a!r}).\n" for a in ex.neg)
    meta = {"name": task.name, "noise_p": task.noise_p,
            "noise_seed": task.noise_seed,
            "ground_truth": sorted(format_rule(r) for r in task.ground_truth or ())}
    with open(os.path.join(outdir, "task.json"), "w") as f:
        json.dump(meta, f, indent=2)


def load_task(bk_path, bias_path, pos_path, neg_path, name="task") -> Task:
    with open(bk_path) as f:
        bk_source = f.read()
    with open(bias_path) as f:
        bias = Bias.from_source(f.read())
    with open(pos_path) as f:
        pos, extra_neg = parse_examples(f.read(), default_label="pos")
    with open(neg_path) as f:
        extra_pos, neg = parse_examples(f.read(), default_label="neg")
    return Task(
        name=name,
        bk=BackgroundKnowledge.from_source(bk_source),
        bk_source=bk_source,
        bias=bias,
        train=ExampleSet(tuple(pos + extra_pos), tuple(neg + extra_neg)),
        test=ExampleSet((), ()),
    )
