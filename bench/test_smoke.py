"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value, name
        assert any(line.startswith(f"{name} = ") and line.split(" ")[3] == unit
                   for line in lines), f"{name} not printed with its unit"
    assert "failed_frac = 0.0 (data)" in lines

    if trace:
        layer = {name: m["value"] for name, m in result["metrics"].items()}
        steps = sum(value for name, value in layer.items()
                    if name.startswith("admm.") and name.endswith(".s") and name != "admm.solve.s")
        assert 0.0 <= layer["admm.solve.self_s"] < 0.25 * layer["admm.solve.s"]
        assert steps + layer["admm.solve.self_s"] == pytest.approx(layer["admm.solve.s"])
        assert layer["linalg.solve_sylvester.calls"] == 2 * layer["admm.iterations"]


def test_refuses_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
