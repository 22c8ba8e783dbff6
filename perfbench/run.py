"""Benchmark of the tverberg package: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh child
process (``worker.py``) with ``src`` on PYTHONPATH and BLAS capped at one
thread, so peak memory and set-up time belong to that workload alone.  With
``--trace 0`` two more children only set up, and ``setup_s`` is the median
of the three set-up times.  With ``--trace 1`` the child replays its rounds
under the tracer and reports per-layer numbers instead.

The report lines come first: machine and software context, every metric by
name with its unit and sample count, and each failed operation by instance.
The last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the BENCHMARK.json metrics of the chosen mode).  The result
and the trace's spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 2
# Every child must end by this many seconds after start, so a run exits in 180 s.
DEADLINE_S = 170.0
STARTED = time.monotonic()
TAIL_PERCENTILE = 90
# Names the report uses for each op kind's latency.
KIND_METRIC = {"solve": "solve_ms", "enumerate": "enumerate_ms", "verify": "verify_ms",
               "lens": "lens_ms", "partition": "partition_ms", "ascent": "ascent_ms"}


def latency_stats(values: list[float]) -> dict:
    """Median and the p90 tail.  The tail sits at rank 0.9 (n + 1), clamped
    to the samples and interpolated between neighbours (the default method
    of Python's statistics.quantiles).  At rank 0.9 (n - 1) the p90 of a
    run of two solve-mid rounds fell between the m = 21 and m = 20 solves."""
    ordered = sorted(values)
    pos = min(max(TAIL_PERCENTILE / 100.0 * (len(ordered) + 1), 1.0), len(ordered)) - 1.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    tail = ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
    return {"p50": statistics.median(ordered), "tail": tail, "n": len(ordered),
            "beyond_tail": sum(v > tail for v in ordered)}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "ratio" if name.endswith("_share") else "count"


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args: argparse.Namespace, mode: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), mode]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned_at), str(OUT_DIR)], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(STARTED + DEADLINE_S - spawned_at, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    package = ROOT / "src" / "tverberg"
    if not (package / "__init__.py").is_file():
        print(f"no tverberg sources under {package}: run from a source checkout",
              file=sys.stderr)
        return 2
    # Byte-compile first, so no set-up below pays for compiling the sources.
    if not compileall.compile_dir(str(package), quiet=1):
        print("byte-compiling the package failed", file=sys.stderr)
        return 2

    run = spawn(args, "trace" if args.trace else "measure")
    phases = [run["samples"]] + ([run["traced_samples"]] if args.trace else [])
    outcomes = [requests(samples) for samples in phases]
    attempted = sum(n for _, n, _ in outcomes)
    failed = sum(f for _, _, f in outcomes)
    failures = run["failures"] + run.get("traced_failures", [])
    context = {"nproc": os.cpu_count(), "cpu": cpu_model(),
               "python": platform.python_version(), **run["versions"], "commit": git_commit()}
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} rounds={run['rounds']}",
             "context: " + " ".join(f"{k}={v}" for k, v in context.items())]
    if args.trace:
        metrics = per_layer(run, lines)
    else:
        done = outcomes[0][0]
        if not done:
            print("no request completed; nothing to measure", file=sys.stderr)
            return 1
        metrics = end_to_end(args, run, done, lines)

    lines.append(f"fail_ratio = {failed / attempted:.6f} ratio "
                 f"({failed} of {attempted} requests failed)")
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()
              if not name.startswith("op_ms.")]  # printed above with their sample counts
    lines += [f"FAILED {f['kind']} [{f['instance']}]: {f['error']}" for f in failures]
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "context": context, "rounds": run["rounds"],
         "attempted": attempted, "failed": failed, "failures": failures,
         "metrics": metrics_json, "samples": phases}, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": run["wrong"] + run.get("traced_wrong", 0) == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics_json}))
    return 0


def requests(samples: list) -> tuple[list[float], int, int]:
    """Latency of each completed request and the numbers attempted and failed.
    A request takes the sum of its calls' times and fails if any call failed."""
    totals: dict[str, list] = {}
    for _, ms, ok, _, task in samples:
        total = totals.setdefault(task, [0.0, True])
        total[0] += ms
        total[1] = total[1] and ok
    done = [ms for ms, ok in totals.values() if ok]
    return done, len(totals), len(totals) - len(done)


def end_to_end(args, run: dict, done: list[float], lines: list[str]) -> dict:
    """BENCHMARK.json end-to-end metrics; the per-kind latencies only go to the report."""
    by_kind: dict[str, list[float]] = {}
    for kind, ms, ok, _, _ in run["samples"]:
        if ok:
            by_kind.setdefault(kind, []).append(ms)
    for name, values in [("op_ms", done)] + [(KIND_METRIC[k], v) for k, v in by_kind.items()]:
        s = latency_stats(values)
        lines.append(f"{name}.p50 = {s['p50']:.3f} ms (n={s['n']})")
        lines.append(f"{name}.tail = {s['tail']:.3f} ms (p{TAIL_PERCENTILE}, n={s['n']}, "
                     f"{s['beyond_tail']} beyond)")
    op = latency_stats(done)
    setups = [run["setup_s"]] + [spawn(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    lines.append("setup_s samples: " + " ".join(f"{s:.4f} s" for s in setups))
    return {
        "op_ms.p50": (op["p50"], "ms"),
        "op_ms.tail": (op["tail"], "ms"),
        "ops_per_s": (len(done) / (sum(done) / 1000.0), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(run: dict, lines: list[str]) -> dict:
    traced: dict[str, list[float]] = {}
    for kind, ms, _, _, _ in run["traced_samples"]:
        traced.setdefault(kind, []).append(ms)
    for kind, values in traced.items():
        lines.append(f"traced {KIND_METRIC[kind]}.mean = {statistics.fmean(values):.3f} ms "
                     f"(n={len(values)})")
    return {name: (value, layer_unit(name)) for name, value in run["layers"].items()}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
