import json

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
