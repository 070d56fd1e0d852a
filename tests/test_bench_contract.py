"""The contract between the package and the benchmark under learnbench/.

learnbench/learn_once.py runs one ``learn`` call and prints a record that
learnbench/run.py turns into metrics; learnbench/tracer.py times the
package's layers by patching names inside it.  A renamed stats field or
function breaks the benchmark without failing any other test, so one
traced call checks both here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEARNBENCH = ROOT / "learnbench"

# the keys of a learn_once record that learnbench/run.py reads
RECORD_KEYS = (
    "setup_s", "generate_task_s", "learn_s", "best_found_s", "trajectory",
    "best_cost", "completed", "timed_out", "program", "train_cost",
    "test_acc", "programs_tested", "candidates_seen", "candidates_pruned",
    "constraints_derived", "pool_size", "budget_exhausted", "peak_rss_mb",
    "host_speed", "layers",
)
SCALED_KEYS = ("setup_s", "learn_work_s", "best_found_s")
# no traced call reaches it: rule pools are built on template indices
UNCALLED_LAYERS = {"logic.canonicalize"}


@pytest.fixture(scope="module")
def record():
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(LEARNBENCH / "learn_once.py"), "evens-clean",
         "--trace"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_layers():
    """The layer names tracer.install patches."""
    sys.path.insert(0, str(LEARNBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(LEARNBENCH))
    names = []

    class Names(tracer.Tracer):
        def wrap(self, name, fn, count_items=False):
            names.append(name)
            return fn

    tracer.install(Names())()
    return names


def test_record_has_every_key_the_benchmark_reads(record):
    assert [k for k in RECORD_KEYS if k not in record] == []
    assert [k for k in SCALED_KEYS if k not in record["scaled"]] == []
    assert record["completed"] and record["trajectory"][-1][1] == record["best_cost"]


def test_every_traced_layer_is_called(record):
    layers = traced_layers()
    assert layers
    uncalled = [name for name in layers if name not in UNCALLED_LAYERS
                and record["layers"].get(name, {}).get("calls", 0) == 0]
    assert uncalled == []
    assert record["layers"]["learn"]["calls"] == 1
