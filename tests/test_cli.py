import json
import re

import pytest

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
    data = json.loads(report.read_text())
    assert (data["config"]["max_depth"], data["config"]["max_steps"]) == (4, 1_000_000)
    line = re.search(r"% size:(\d+) tp:(\d+) fn:(\d+) tn:(\d+) fp:(\d+) cost:(\d+)",
                     capsys.readouterr().out)
    size, tp, fn, tn, fp, cost = map(int, line.groups())
    assert size + fn + fp == cost
    assert (tp + fn, tn + fp) == (20, 20)
    assert fn > 0
    assert data["train_cost"] == cost


def _learn_args(task_dir):
    return ["learn", "--bk", str(task_dir / "bk.pl"),
            "--bias", str(task_dir / "bias.pl"),
            "--pos", str(task_dir / "train_pos.pl"),
            "--neg", str(task_dir / "train_neg.pl")]


def test_no_noisy_constraints_reaches_the_same_cost(tmp_path):
    # without pruning constraints the search tests at least as many
    # programs and ends at the same minimum
    task_dir = tmp_path / "zendo1"
    assert main(["gen-task", "--family", "zendo1", "--n", "20",
                 "--out", str(task_dir)]) == 0
    reports = []
    for flags in ([], ["--no-noisy-constraints"]):
        report = tmp_path / f"report{len(reports)}.json"
        assert main(_learn_args(task_dir) + flags + [
            "--timeout", "60", "--report", str(report)]) == 0
        reports.append(json.loads(report.read_text()))
    on, off = reports
    assert on["config"]["noisy_constraints"] is True
    assert off["config"]["noisy_constraints"] is False
    assert on["stats"]["completed"] and off["stats"]["completed"]
    assert off["train_cost"] == on["train_cost"]
    assert off["stats"]["programs_tested"] >= on["stats"]["programs_tested"]


def test_trace_prints_the_run_record(tmp_path, capsys):
    task_dir = tmp_path / "zendo1"
    assert main(["gen-task", "--family", "zendo1", "--n", "20",
                 "--out", str(task_dir)]) == 0
    report = tmp_path / "report.json"
    assert main(_learn_args(task_dir) + ["--timeout", "20", "--trace",
                                         "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "Searching programs of size: 2" in out
    assert "New best hypothesis:" in out
    assert re.search(r"^% size:\d+ tp:\d+ fn:\d+ tn:\d+ fp:\d+ cost:\d+$",
                     out, re.M)
    for stage in ("Generate", "Test", "Constrain", "Combine"):
        assert re.search(rf"^{stage}: called \d+ times", out, re.M), stage
    stats = json.loads(report.read_text())["stats"]
    programs = int(re.search(r"^Num. programs: (\d+)$", out, re.M).group(1))
    assert programs == stats["programs_tested"] > 0


@pytest.mark.parametrize("case", ["missing file", "timeout 0", "timeout nan",
                                  "noise 1.5", "gen-task n 2", "head_pred(f).",
                                  "type(p,(a,b,c))."])
def test_bad_input_is_one_error_line(tmp_path, capsys, case):
    task_dir = tmp_path / "evens"
    assert main(["gen-task", "--family", "evens", "--n", "8",
                 "--out", str(task_dir)]) == 0
    capsys.readouterr()
    bad_bias = tmp_path / "bad_bias.pl"
    bad_bias.write_text({
        "head_pred(f).": "head_pred(f).\n",
        "type(p,(a,b,c)).": "head_pred(f,1).\nbody_pred(p,2).\ntype(p,(a,b,c)).\n",
    }.get(case, ""))
    argv = {
        "missing file": _learn_args(tmp_path / "nowhere"),
        "timeout 0": _learn_args(task_dir) + ["--timeout", "0"],
        "timeout nan": _learn_args(task_dir) + ["--timeout", "nan"],
        "noise 1.5": _learn_args(task_dir) + ["--noise", "1.5"],
        "gen-task n 2": ["gen-task", "--family", "evens", "--n", "2",
                         "--out", str(tmp_path / "small")],
        "head_pred(f).": _learn_args(task_dir) + ["--bias", str(bad_bias)],
        "type(p,(a,b,c)).": _learn_args(task_dir) + ["--bias", str(bad_bias)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("mdlsynth: error: "), lines


def test_bad_background_line_is_named(tmp_path, capsys):
    task_dir = tmp_path / "evens"
    assert main(["gen-task", "--family", "evens", "--n", "8",
                 "--out", str(task_dir)]) == 0
    capsys.readouterr()
    bk = tmp_path / "bk.pl"
    bk.write_text("p(a).\n" * 497 + "q(b  c).\n" + "p(b).\n" * 2)
    assert main(_learn_args(task_dir) + ["--bk", str(bk)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "mdlsynth: error: expected ')', got 'c' at line 498, column 6"]
