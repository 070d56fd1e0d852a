import json
import re

from mdlsynth.cli import main


def test_gen_task_then_learn_writes_a_report(tmp_path, capsys):
    task_dir = tmp_path / "zendo1"
    assert main(["gen-task", "--family", "zendo1", "--n", "20",
                 "--out", str(task_dir)]) == 0
    report = tmp_path / "report.json"
    assert main(["learn", "--bk", str(task_dir / "bk.pl"),
                 "--bias", str(task_dir / "bias.pl"),
                 "--pos", str(task_dir / "train_pos.pl"),
                 "--neg", str(task_dir / "train_neg.pl"),
                 "--timeout", "5", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["hypothesis"]
    assert data["train_cost"] >= 0
    assert data["stats"]["programs_tested"] > 0
    assert "cost:" in capsys.readouterr().out


def test_learn_counts_use_the_learn_budget(tmp_path, capsys):
    # at depth 4 the evens target misses a long list; the printed counts
    # and the report's train cost must be those of the same budget
    task_dir = tmp_path / "evens"
    assert main(["gen-task", "--family", "evens", "--n", "40", "--seed", "0",
                 "--out", str(task_dir)]) == 0
    report = tmp_path / "report.json"
    assert main(["learn", "--bk", str(task_dir / "bk.pl"),
                 "--bias", str(task_dir / "bias.pl"),
                 "--pos", str(task_dir / "train_pos.pl"),
                 "--neg", str(task_dir / "train_neg.pl"),
                 "--max-depth", "4", "--timeout", "60",
                 "--report", str(report)]) == 0
    line = re.search(r"% size:(\d+) tp:(\d+) fn:(\d+) tn:(\d+) fp:(\d+) cost:(\d+)",
                     capsys.readouterr().out)
    size, tp, fn, tn, fp, cost = map(int, line.groups())
    assert size + fn + fp == cost
    assert (tp + fn, tn + fp) == (20, 20)
    assert fn > 0
    assert json.loads(report.read_text())["train_cost"] == cost
