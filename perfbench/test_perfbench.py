"""Self-test of the benchmark harness at its smallest setting.

    python3 -m pytest perfbench

Each workload runs once untraced and once traced with ``--smoke``; every
metric BENCHMARK.json declares must be emitted with its unit and no op may
fail.  Run it from the repository root, like the harness.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import datagen  # noqa: E402


def run_harness(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    proc = run_harness(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert "failed_ratio 0 ratio" in proc.stdout
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_harness(bare, "query_bulk", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_repeat_for_a_seed():
    work = ROOT / ".perfbench_work" / "inputs"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            datagen.write_csv(seed, 3000, work / f"{name}.csv")
        digest = {n: datagen.describe(work / f"{n}.csv", 1)["sha256"] for n in "abc"}
        assert digest["a"] == digest["b"] != digest["c"]
        datagen.write_head(5, 3000, 100, work / "head.csv")
        full = (work / "a.csv").read_text().splitlines(keepends=True)
        assert (work / "head.csv").read_text() == "".join(full[:101])
    finally:
        shutil.rmtree(work)
