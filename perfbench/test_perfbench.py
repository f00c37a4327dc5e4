"""Smoke test of the benchmark at tiny sizes: every metric named, no failed check.

Run from the repository root with ``python3 -m pytest perfbench``. Timings
are printed but never compared against a limit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    assert float(table["failed_ratio"][1]) == 0.0
    if not trace:
        for op in workloads.build(workload, 7, "tiny"):
            assert op.metric in table and table[op.metric][-1] == "s"


def test_missing_hook_is_absent(monkeypatch):
    from qpwalk import _kernels

    for name in [n for n in vars(_kernels) if n.startswith("steps_")]:
        monkeypatch.delattr(_kernels, name)
    with tracing.Tracer() as tracer:
        pass
    assert "kernels" in tracer.absent
    absent = tracing.absent_metrics(tracer.present)
    assert {"kernels.calls", "kernels.ns_per_site_step"} <= set(absent)
    assert "momentum.block_calls" not in absent
    assert tracing.layer_metrics(tracer.spans, 0)["kernels.calls"] == 0


def test_hooks_are_removed_after_a_traced_pass():
    from qpwalk import cli, walk

    evolve, step_matrices = cli.evolve, walk.WalkParams.step_matrices
    with tracing.Tracer():
        assert cli.evolve is not evolve
    assert cli.evolve is evolve and walk.WalkParams.step_matrices is step_matrices


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "position", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
