"""Smoke test of the benchmark itself, at tiny sizes (about 30 seconds).

    python3 benchmark/smoke.py

Run from anywhere; it works on the checkout this file belongs to. It checks
that BENCHMARK.json is well formed, that every workload prints, with and
without tracing, a last line with exactly the result keys and every listed
metric with its unit, and that the benchmark fails without printing a result
in a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds.get("setup_s") == max(bounds.values()), "setup_s needs the largest bound"


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, done, trace: int):
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed], sorted(result["metrics"])
    for m in listed:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, run(ROOT, workload, trace), trace)
            print(f"ok {workload} trace={trace}", flush=True)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(Path(bare), spec["workloads"][0]["name"], 0)
        assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok fails without the program source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
