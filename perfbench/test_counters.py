"""Traced runs repeat their counters and record every span a workload needs.

Run from the repository root (about two minutes):

    python3 -m pytest perfbench -q

Each case runs ``perfbench/run.py --trace 1`` twice with one seed.  Every
count must repeat exactly, and every span the workload is expected to reach
must appear in the written span file.  A missing span means a wrapper
missed a by-name import, so that layer's time went to its caller.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from tracer import COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def traced_run(workload: str) -> tuple[dict, set[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    lines = (BENCH_DIR / "out" / f"spans-{workload}-seed{SEED}.jsonl").read_text().splitlines()
    names = {json.loads(line)["name"] for line in lines[1:]}
    return result, names


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_and_spans_recorded(workload):
    first, spans = traced_run(workload)
    second, _ = traced_run(workload)
    assert first["correct"] and second["correct"]

    counts = [name for name in first["metrics"] if name.endswith("_n") or name in COUNTERS]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name

    missing = WORKLOADS[workload].spans - spans
    assert not missing, f"spans never recorded: {sorted(missing)}"
