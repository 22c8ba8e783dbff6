"""One fresh process running one workload; prints a JSON result as its last line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED_AT [OUT_DIR]

MODE is ``setup`` (set up, run the warm-up op, report set-up time and exit),
``measure`` (set up, then time whole rounds for about SECONDS) or
``trace`` (time rounds untraced for half of SECONDS, then replay the same
rounds under the tracer).  SPAWNED_AT is the parent's ``time.monotonic()``
just before it started this process, so set-up time runs from interpreter
start to the first timed op.  The parent starts it with ``src`` on
PYTHONPATH and BLAS capped at one thread.
"""

from __future__ import annotations

import importlib.metadata
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, CheckError


def _import_package(root: Path):
    import tverberg

    expected = (root / "src" / "tverberg").resolve()
    if Path(tverberg.__file__).resolve().parent != expected:
        raise SystemExit(f"imported tverberg from {tverberg.__file__}, expected {expected}")
    return tverberg


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


class Runner:
    """Closed loop, one client: the next op starts when the previous one and
    its check are done.  Only the package call itself is timed."""

    def __init__(self, tv, name: str, seed: int, tracer=None):
        self.tv, self.name, self.seed, self.tracer = tv, name, seed, tracer
        # (kind, ms, ok, instance, task) for every call into the package
        self.samples: list[tuple[str, float, bool, str, str]] = []
        self.failures: list[dict] = []
        self.wrong = 0

    def run_op(self, op) -> None:
        error = None
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = op.run()
            else:
                with self.tracer.operation(op.kind):
                    out = op.run()
        except Exception as exc:  # an op that raises is a counted failure, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        if error is None:
            try:
                op.check(out)
                op.output = out
            except CheckError as exc:
                self.wrong += 1
                error = f"wrong output: {exc}"
        self.samples.append((op.kind, ms, error is None, op.label, op.task or op.label))
        if error is not None:
            self.failures.append({"kind": op.kind, "instance": op.label, "error": error})

    def run_rounds(self, seconds: float = 0.0, rounds: int = 0) -> int:
        """At least ``rounds`` whole rounds, and more while one more round,
        at the mean round time so far, ends nearer to ``seconds`` than
        stopping does.  Rounds take up to 11 s; stopping at the nearest
        round boundary keeps a run near ``seconds`` long."""
        start = time.perf_counter()
        r = 0
        while True:
            elapsed = time.perf_counter() - start
            if r >= max(rounds, 1) and elapsed + 0.5 * elapsed / r >= seconds:
                return r
            for op in WORKLOADS[self.name](self.tv, self.seed, r):
                self.run_op(op)
            r += 1


def main(argv: list[str]) -> None:
    name, seed, seconds, mode, spawned_at = argv[:5]
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    root = Path(__file__).resolve().parent.parent
    tv = _import_package(root)

    # Warm-up: one untimed op, on the input of seed 0 so set-up does the same
    # work whatever the seed.
    Runner(tv, name, 0).run_op(next(iter(WORKLOADS[name](tv, 0, 0))))
    setup_s = time.monotonic() - spawned_at
    out = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(out))
        return

    runner = Runner(tv, name, seed)
    if mode == "measure":
        out["rounds"] = runner.run_rounds(seconds=seconds)
    else:
        from tracing import Tracer, layer_metrics

        out["rounds"] = runner.run_rounds(seconds=seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        traced = Runner(tv, name, seed, tracer)
        traced.run_rounds(rounds=out["rounds"])
        tracer.uninstall()
        untraced_ms = sum(s[1] for s in runner.samples)
        traced_ms = sum(s[1] for s in traced.samples)
        requests = len({s[4] for s in traced.samples})
        out["layers"] = layer_metrics(tracer.spans, requests)
        out["layers"]["trace.op_ms"] = traced_ms / requests
        out["layers"]["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
        out["traced_samples"] = traced.samples
        out["traced_failures"] = traced.failures
        out["traced_wrong"] = traced.wrong
        out_dir = Path(argv[5])
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"{name}-seed{seed}-spans.jsonl")

    out["samples"] = runner.samples
    out["failures"] = runner.failures
    out["wrong"] = runner.wrong
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {pkg: _version(pkg) for pkg in ("numpy", "scipy")}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
