"""Smoke self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced with
--tiny, and checks the contract of the last output line: exactly the
keys correct/attempted/failed/metrics, every end_to_end metric (untraced)
or per_layer metric (traced) present with its declared unit and a finite
value, and correct outputs.  Also checks that a traced run's counts are
the same on a second traced run.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(spec: dict, workload: str, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, declared: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: outputs missed their oracle"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, (
        f"{label}: metric names differ: {sorted(set(got) ^ {m['name'] for m in declared})}")
    for m in declared:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{label}: {m['name']} unit {value['unit']}"
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), (
            f"{label}: {m['name']} = {value['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        check(run(spec, name, 0), spec["end_to_end"], f"{name} untraced")
        traced = run(spec, name, 1)
        check(traced, spec["per_layer"], f"{name} traced")
        again = run(spec, name, 1)
        for m in spec["per_layer"]:
            if m["unit"] == "count":
                a, b = traced["metrics"][m["name"]]["value"], again["metrics"][m["name"]]["value"]
                assert a == b, f"{name}: count {m['name']} moved between traced runs: {a} vs {b}"
        print(f"ok {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
