"""Quick self-test of the benchmark harness (about a minute on two cores).

    python3 perfbench/selftest.py

1. A solve whose witness is moved off its disks, and a solve that raises,
   are each counted as a failed operation (the first also as a wrong output).
2. Every workload runs once on seed 1, untraced and traced.  Each run must
   end with the contract's JSON line carrying exactly the BENCHMARK.json
   metrics of its mode with their units, and the report lines together must
   print every end-to-end metric name with a unit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tverberg as tv  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS, _solve_op, planar_set  # noqa: E402

REPORTED = ("solve_ms.p50", "solve_ms.tail", "enumerate_ms.p50", "verify_ms.p50", "lens_ms.p50",
            "partition_ms.p50", "ascent_ms.p50", "ascent_ms.tail", "op_ms.p50", "op_ms.tail",
            "ops_per_s", "fail_ratio", "peak_rss_mb", "setup_s")


def check_failures_are_counted() -> None:
    coords = planar_set("uniform", 7, np.random.default_rng(0))
    real = tv.solve

    def corrupted(points, seed=0, config=None):
        result = real(points, seed, config)
        return dataclasses.replace(result, witness=result.witness + 10.0)

    def raising(points, seed=0, config=None):
        raise RuntimeError("injected")

    try:
        for fake, wrong in ((corrupted, 1), (raising, 0)):
            tv.solve = fake
            runner = Runner(tv, "solve-mid", 0)
            runner.run_op(_solve_op(tv, "selftest", coords, seed=0))
            assert len(runner.failures) == 1 and runner.wrong == wrong, runner.failures
            assert runner.samples[0][2] is False
    finally:
        tv.solve = real
    runner = Runner(tv, "solve-mid", 0)
    runner.run_op(_solve_op(tv, "selftest", coords, seed=0))
    assert not runner.failures, runner.failures


def run_once(workload: str, trace: int) -> tuple[str, int, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return workload, trace, proc.stdout


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    printed = set()
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = [f.result() for f in [pool.submit(run_once, w, t) for w, t in jobs]]
    for workload, trace, stdout in outputs:
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1])
        where = f"{workload} trace={trace}"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
        assert result["correct"] is True and result["failed"] == 0, (where, lines)
        assert result["attempted"] >= 1, where
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected[trace], (where, units)
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (where, name)
        for line in lines[:-1]:
            hit = re.match(r"^([\w.]+) = \S+ (\S+)", line)
            if hit:
                printed.add(hit.group(1))
    missing = set(REPORTED) - printed
    assert not missing, f"not printed with a unit: {sorted(missing)}"


if __name__ == "__main__":
    check_failures_are_counted()
    print("selftest: corrupted witness and raising solve are counted as failures")
    check_runs()
    print("selftest: every workload ran once, untraced and traced; all metrics printed")
