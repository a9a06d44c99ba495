"""Smoke test of the benchmark: every workload in --quick mode, both traces.

    python3 bench/smoke.py

Checks the result line against BENCHMARK.json (every metric present, with
its unit, no failed operation) and that the benchmark refuses to run, with
a non-zero exit and no result line, in a directory without the sources.
Exits non-zero on the first problem.  Not part of the tier-1 test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, seed=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, (workload, trace, m["name"])
        assert got["unit"] == m["unit"], (workload, m["name"], got)
    assert set(result["metrics"]) == {m["name"] for m in wanted}, result
    print(f"ok  {workload:13s} trace={trace}  attempted={result['attempted']}")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "solve_sweep", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the sources")


def main():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    check_refuses_without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace)


if __name__ == "__main__":
    main()
