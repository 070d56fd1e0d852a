import dataclasses
import hashlib
import json
import math
import random

import pytest

from mdlsynth.evaluate import Evaluator, ExampleSet
from mdlsynth.logic import prog_size
from mdlsynth.parsing import parse_ground_atom
from mdlsynth.search import SearchConfig, SearchStats, learn
from mdlsynth.tasks import (
    Task,
    coverage_equivalent,
    evaluate,
    flip_selection,
    generate_task,
    inject_noise,
    load_task,
    write_task_dir,
)


def atom(text):
    return parse_ground_atom(text)


def small_examples():
    pos = tuple(atom(f"f({i})") for i in range(6))
    neg = tuple(atom(f"f({i + 100})") for i in range(4))
    return ExampleSet(pos, neg)


class TestInjectNoise:
    def test_p_zero_unchanged(self):
        ex = small_examples()
        assert inject_noise(ex, 0.0, seed=1) is ex

    def test_flip_count_floor(self):
        ex = small_examples()
        noisy = inject_noise(ex, 0.25, seed=3)
        # floor(0.25 * 10) = 2 labels moved
        assert len(noisy) == len(ex)
        moved_to_neg = set(ex.pos) & set(noisy.neg)
        moved_to_pos = set(ex.neg) & set(noisy.pos)
        assert len(moved_to_neg) + len(moved_to_pos) == 2

    def test_deterministic_per_seed(self):
        ex = small_examples()
        a = inject_noise(ex, 0.3, seed=11)
        b = inject_noise(ex, 0.3, seed=11)
        c = inject_noise(ex, 0.3, seed=12)
        assert a.pos == b.pos and a.neg == b.neg
        assert (a.pos, a.neg) != (c.pos, c.neg)

    def test_preserves_counts_and_disjointness(self):
        rng = random.Random(5)
        for _ in range(100):
            ex = small_examples()
            p = rng.uniform(0, 0.9)
            noisy = inject_noise(ex, p, seed=rng.randrange(1000))
            assert len(noisy) == len(ex)
            assert not (set(noisy.pos) & set(noisy.neg))

    def test_double_flip_of_same_selection_is_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            ex = small_examples()
            k = rng.randint(0, len(ex))
            idx = rng.sample(range(len(ex)), k)
            once = flip_selection(ex, idx)
            assert set(once.pos) | set(once.neg) == set(ex.pos) | set(ex.neg)
            # flip the same examples back (their indices moved)
            atoms = [ex.pos[i] if i < len(ex.pos) else ex.neg[i - len(ex.pos)]
                     for i in idx]
            idx_back = [i for i, a in enumerate(tuple(once.pos) + tuple(once.neg))
                        if a in set(atoms)]
            twice = flip_selection(once, idx_back)
            assert set(twice.pos) == set(ex.pos)
            assert set(twice.neg) == set(ex.neg)

    def test_rejects_bad_proportion(self):
        with pytest.raises(ValueError):
            inject_noise(small_examples(), 1.0, seed=0)
        with pytest.raises(ValueError):
            inject_noise(small_examples(), -0.1, seed=0)


class TestGenerateTask:
    @pytest.mark.parametrize("family,n,digest", [
        ("evens", 200, "15aa2018262bf45e"),
        ("dropk", 100, "cb99d6d9a0dc0686"),
        ("reverse", 50, "d13c065c7bfb510c"),
        ("sorted", 50, "1fbee78295550a1e"),
    ])
    def test_list_examples_are_pinned(self, family, n, digest):
        # these families label sampled atoms with Evaluator.covers; the
        # digests were taken before covers cached its compiled programs
        t = generate_task(family, n, 0)
        text = repr((t.train.pos, t.train.neg, t.test.pos, t.test.neg))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("family,digest", [
        ("zendo1", "4560d68ede84d484"),
        ("zendo2", "b2096a0b9825e1f9"),
    ])
    def test_zendo_examples_and_scenes_are_pinned(self, family, digest):
        # each scene is labelled by proving the target over its own facts
        t = generate_task(family, 100, 0)
        text = repr((t.train.pos, t.train.neg, t.test.pos, t.test.neg, t.bk.facts))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("family", ["evens", "dropk", "reverse", "sorted",
                                        "zendo1", "zendo2"])
    def test_ground_truth_is_perfect_on_both_splits(self, family):
        task = generate_task(family, 30, seed=1)
        gt = task.ground_truth
        for split in (task.train, task.test):
            ev = Evaluator(task.bk, split)
            cov = ev.test(gt)
            assert cov.fn == 0 and cov.fp == 0, family

    def test_train_test_disjoint(self):
        for family in ("evens", "zendo1"):
            task = generate_task(family, 24, seed=2)
            train = set(task.train.pos) | set(task.train.neg)
            test = set(task.test.pos) | set(task.test.neg)
            assert not (train & test)

    def test_label_spot_checks(self):
        evens = generate_task("evens", 10, seed=0)
        ev = Evaluator(evens.bk, evens.train)
        assert ev.covers(evens.ground_truth, atom("evens([2,4])"))
        assert not ev.covers(evens.ground_truth, atom("evens([1,2])"))
        dropk = generate_task("dropk", 10, seed=0)
        evd = Evaluator(dropk.bk, dropk.train)
        assert evd.covers(dropk.ground_truth, atom("dropk([a,b,c],1,[b,c])"))
        srt = generate_task("sorted", 10, seed=0)
        evs = Evaluator(srt.bk, srt.train)
        assert evs.covers(srt.ground_truth, atom("sorted([1])"))
        assert not evs.covers(srt.ground_truth, atom("sorted([])"))
        assert evs.covers(srt.ground_truth, atom("sorted([1,1,3])"))
        assert not evs.covers(srt.ground_truth, atom("sorted([2,1])"))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate_task("nope", 10, seed=0)

    def test_minimum_examples(self):
        with pytest.raises(ValueError):
            generate_task("evens", 3, seed=0)

    def test_zendo_alias(self):
        t = generate_task("zendo-like", 12, seed=0)
        assert t.ground_truth == generate_task("zendo1", 12, seed=0).ground_truth

    def test_deterministic(self):
        a = generate_task("evens", 20, seed=5)
        b = generate_task("evens", 20, seed=5)
        assert a.train.pos == b.train.pos and a.test.neg == b.test.neg


class TestEvaluateReport:
    def test_ground_truth_accuracy_one(self):
        task = generate_task("evens", 20, seed=3)
        report = evaluate(task.ground_truth, task)
        assert report.test_accuracy == 1.0

    def test_empty_hypothesis_accuracy_half_on_balanced(self):
        task = generate_task("evens", 20, seed=3)
        report = evaluate(frozenset(), task)
        total = task.test.num_pos + task.test.num_neg
        assert report.test_accuracy == task.test.num_neg / total
        assert abs(report.test_accuracy - 0.5) <= 0.1

    def test_no_test_split_has_no_accuracy(self, tmp_path):
        # a task loaded from train files alone has an empty test split
        task = generate_task("evens", 16, seed=3)
        write_task_dir(task, tmp_path)
        loaded = load_task(tmp_path / "bk.pl", tmp_path / "bias.pl",
                           tmp_path / "train_pos.pl", tmp_path / "train_neg.pl")
        report = evaluate(task.ground_truth, loaded)
        assert report.test_accuracy is None
        assert json.loads(report.to_json())["test_accuracy"] is None

    def test_report_json_fields(self):
        task = generate_task("zendo1", 16, seed=4)
        config = SearchConfig(timeout=20)
        h, stats = learn(task.bk, task.train, task.bias, config)
        report = evaluate(h, task, stats=stats, wall_time=1.0, config=config)
        d = json.loads(report.to_json())
        for key in ("task", "hypothesis", "train", "test", "test_accuracy",
                    "wall_time", "stats", "config", "rng_algorithm"):
            assert key in d
        # every field of the run record reaches the report under its name
        assert set(d["stats"]) == {f.name for f in dataclasses.fields(SearchStats)}
        assert d["stats"]["programs_tested"] == stats.programs_tested >= 1
        assert d["stats"]["trajectory"][-1][1] == d["train_cost"]


class TestRoundTrip:
    def test_write_and_load(self, tmp_path):
        task = generate_task("evens", 16, seed=6).with_noise(0.2, seed=7)
        write_task_dir(task, tmp_path)
        loaded = load_task(tmp_path / "bk.pl", tmp_path / "bias.pl",
                           tmp_path / "train_pos.pl", tmp_path / "train_neg.pl")
        assert tuple(loaded.train.pos) == task.train.pos
        assert tuple(loaded.train.neg) == task.train.neg
        assert loaded.bias.targets == task.bias.targets
        assert loaded.bias.max_vars == task.bias.max_vars

    def test_zendo_bk_round_trips(self, tmp_path):
        task = generate_task("zendo1", 12, seed=8)
        write_task_dir(task, tmp_path)
        loaded = load_task(tmp_path / "bk.pl", tmp_path / "bias.pl",
                           tmp_path / "train_pos.pl", tmp_path / "train_neg.pl")
        assert set(loaded.bk.facts) == set(task.bk.facts)


class TestCoverageEquivalence:
    def test_gt_equivalent_to_itself(self):
        task = generate_task("evens", 16, seed=9)
        assert coverage_equivalent(task.ground_truth, task.ground_truth, task)

    def test_empty_not_equivalent(self):
        task = generate_task("evens", 16, seed=9)
        assert not coverage_equivalent(frozenset(), task.ground_truth, task)
