"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces public functions with wrappers under the names their
callers resolve at call time: the ``tverberg`` package namespace for calls
made by the benchmark, and each module's namespace for calls one module makes
into another (``solver`` calls ``check_general_position`` through
``tverberg.solver``, ``perturb`` through ``tverberg.geometry``).  A name a
later version removes is skipped and records nothing.

Spans are kept in memory as (name, start, end, parent, op, note) and written
out at the end.  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Optional

# (module whose attribute callers resolve, attribute, span name)
WRAPPED = (
    ("tverberg", "solve", "solver.solve"),
    ("tverberg.solver", "solve_odd", "solver.solve_odd"),
    ("tverberg.solver", "solve_even_path", "solver.solve_even_path"),
    ("tverberg", "ascent_step", "solver.ascent_step"),
    ("tverberg.solver", "ascent_step", "solver.ascent_step"),
    ("tverberg.solver", "check_general_position", "geometry.gp_check"),
    ("tverberg.geometry", "check_general_position", "geometry.gp_check"),
    ("tverberg.solver", "perturb", "geometry.perturb"),
    ("tverberg", "type1_cycle", "cycles.type1"),
    ("tverberg.solver", "type1_cycle", "cycles.type1"),
    ("tverberg.solver", "type2_cycle", "cycles.type2"),
    ("tverberg.cycles", "radial_order", "cycles.radial_order"),
    ("tverberg", "violation_profile", "cycles.profile"),
    ("tverberg.solver", "violation_profile", "cycles.profile"),
    ("tverberg.solver", "arcs_common_intersection", "cycles.common_arc"),
    ("tverberg", "enumerate_hamiltonian", "oracle.enumerate"),
    ("tverberg.solver", "enumerate_hamiltonian", "oracle.enumerate"),
    ("tverberg", "is_tverberg_graph", "oracle.disk"),
    ("tverberg.oracle", "is_tverberg_graph", "oracle.disk"),
    ("tverberg.solver", "disks_common_point", "oracle.disk"),
    ("tverberg", "lens_family_common_point", "oracle.lens"),
    ("tverberg", "partition_covering_graph", "partitions.covering_graph"),
    ("tverberg.partitions", "tverberg_partition", "partitions.tverberg_partition"),
    ("tverberg.partitions", "hulls_common_point", "partitions.hull_lp"),
)


def _disk_edges(args) -> int:
    """Family size of is_tverberg_graph(points, graph) or disks_common_point(balls)."""
    return len(args[1].edges) if hasattr(args[0], "coords") else len(args[0])


# Small facts taken from a call's arguments and result when its span closes,
# so spans never hold on to large outputs.
NOTES: dict[str, Callable[[tuple, Any], Any]] = {
    "solver.solve": lambda args, res: {
        "iterations": res.iterations,
        "restarts": res.restarts,
        "perturbed": bool(res.perturbed),
        "fallback": res.mode.name == "BRUTE_FORCE_FALLBACK",
    },
    "oracle.enumerate": lambda args, res: {
        "families": res.total_cycles, "tverberg": len(res.tverberg_cycles)},
    "oracle.disk": lambda args, res: {"edges": _disk_edges(args)},
    "oracle.lens": lambda args, res: {"present": res is not None},
}


class Tracer:
    """Records spans of wrapped calls made while an operation is open."""

    def __init__(self):
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                info = note(args, result) if note is not None and result is not None else None
                self.spans[sid] = (name, t0, t1, parent, self._op, info)

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    @contextmanager
    def operation(self, kind: str):
        """The root span of one benchmark operation."""
        sid = len(self.spans)
        self.spans.append(None)
        self._op = sid
        self._stack = [sid]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = ("op." + kind, t0, time.perf_counter(), None, sid, None)
            self._op = None
            self._stack = []

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "note": info}) + "\n")


def layer_metrics(spans: list[tuple], requests: int) -> dict[str, float]:
    """Per-layer counts and self times, each per request (ms for times)."""
    child = defaultdict(float)
    for name, t0, t1, parent, op, info in spans:
        if parent is not None:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    notes = defaultdict(list)
    attempts = 0
    for sid, (name, t0, t1, parent, op, info) in enumerate(spans):
        if parent is None:
            continue
        own = (t1 - t0 - child[sid]) * 1000.0
        calls[name] += 1
        self_ms[name] += own
        self_ms[name.split(".")[0]] += own
        if info is not None:
            notes[name].append(info)
        if name == "geometry.gp_check" and spans[parent][0] == "geometry.perturb":
            attempts += 1
    per = 1.0 / max(requests, 1)

    def share(name: str, key: str) -> float:
        flags = [bool(n[key]) for n in notes[name]]
        return sum(flags) / len(flags) if flags else 0.0

    def total(name: str, key: str) -> float:
        return sum(n[key] for n in notes[name]) * per

    families = sum(n["families"] for n in notes["oracle.enumerate"])
    return {
        "geometry.gp_check.calls": calls["geometry.gp_check"] * per,
        "geometry.gp_check.self_ms": self_ms["geometry.gp_check"] * per,
        "geometry.perturb.calls": calls["geometry.perturb"] * per,
        "geometry.perturb.attempts": attempts * per,
        "geometry.perturb.self_ms": self_ms["geometry.perturb"] * per,
        "cycles.type1.calls": calls["cycles.type1"] * per,
        "cycles.type2.calls": calls["cycles.type2"] * per,
        "cycles.profile.calls": calls["cycles.profile"] * per,
        "cycles.common_arc.calls": calls["cycles.common_arc"] * per,
        "cycles.self_ms": self_ms["cycles"] * per,
        "solver.ascent_steps": calls["solver.ascent_step"] * per,
        "solver.iterations": total("solver.solve", "iterations"),
        "solver.restarts": total("solver.solve", "restarts"),
        "solver.perturbed_share": share("solver.solve", "perturbed"),
        "solver.fallback_share": share("solver.solve", "fallback"),
        "solver.self_ms": self_ms["solver"] * per,
        "oracle.enumerate.self_ms": self_ms["oracle.enumerate"] * per,
        "oracle.enumerate.families": families * per,
        "oracle.enumerate.tverberg_share": (
            sum(n["tverberg"] for n in notes["oracle.enumerate"]) / families if families else 0.0),
        "oracle.disk.self_ms": self_ms["oracle.disk"] * per,
        "oracle.disk.edges": total("oracle.disk", "edges"),
        "oracle.lens.self_ms": self_ms["oracle.lens"] * per,
        "oracle.lens.present_share": share("oracle.lens", "present"),
        "partitions.hull_lp.calls": calls["partitions.hull_lp"] * per,
        "partitions.self_ms": self_ms["partitions"] * per,
    }
