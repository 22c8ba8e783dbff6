"""The four benchmark workloads: seeded inputs, operations and output checks.

Every input is drawn with numpy from ``(seed, round)``; nothing here calls
``tverberg.generate``, which runs the O(m^6) general-position check itself and
would hide solve cost in input generation.  The package is reached only
through public names looked up on the ``tverberg`` package at call time, so
the tracer's wrappers see every call.

A workload is a function ``(tv, seed, round_index) -> iterator of Op``.  One
round covers the workload's whole instance matrix once; the runner measures
whole rounds only, so every run sees the same mix of instance classes.  Later
ops of a round may read ``output`` of earlier ones (verify cross-checks the
sets it solved); an op whose predecessor failed is not issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

TOL = 1e-9  # the package's DEFAULT_TOL; checks hold outputs to the same bar


class CheckError(Exception):
    """An operation returned an output that fails its independent check."""


@dataclass
class Op:
    """One timed call into the package and the check of its output.

    ``run`` performs the call; ``check`` raises CheckError on a wrong output.
    ``output`` is filled in by the runner when the op succeeds.  Ops sharing
    a ``task`` form one user request, timed as the sum of its calls; an op
    with no task is a request of its own."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    task: str = ""
    output: Any = None


# ---------------------------------------------------------------- inputs


def _rng(seed: int, stream: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, round_index])


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def planar_set(kind: str, m: int, rng: np.random.Generator) -> np.ndarray:
    """A general-position planar set (with probability 1) of the given kind."""
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, size=(m, 2))
    if kind == "gaussian":
        return rng.normal(0.0, 1.0, size=(m, 2))
    if kind in ("cluster3", "cluster5"):
        # k equal gaussian clusters on a regular k-gon turned by a seeded
        # angle.  With cluster centers drawn at random the ascent time of one
        # m = 201 set varied threefold between seeds.
        k = int(kind[-1])
        angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(k) / k
        centers = 0.5 + 0.35 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return centers[np.arange(m) % k] + rng.normal(0.0, 0.05, size=(m, 2))
    if kind == "circle":
        # Distinct angles on the unit circle.  Every triple of a star cycle's
        # edge disks then has real deepest-point candidates, so the disk
        # oracle's memory does not depend on the draw; on ellipses its peak
        # ranged from 360 to 600 MB at E = 81.
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=m))
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    if kind == "convex":
        # Distinct angles on an ellipse: strictly convex position.
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=m))
        b = rng.uniform(0.5, 1.0)
        pts = np.stack([np.cos(t), b * np.sin(t)], axis=1)
        return pts @ _rotation(rng.uniform(0.0, 2.0 * math.pi)).T
    raise ValueError(f"unknown point kind {kind!r}")


def degenerate_set(shape: str) -> np.ndarray:
    """The canonical copy of a degenerate shape (exact coordinates)."""
    if shape == "grid3x3":
        return np.array([(i, j) for j in range(3) for i in range(3)], dtype=float)
    if shape == "square+center":
        return np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)], dtype=float)
    if shape.endswith("-gon"):
        k = int(shape[:-4])
        t = 2.0 * math.pi * np.arange(k) / k
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    if shape == "collinear5":
        return np.array([(i, 0) for i in range(5)], dtype=float)
    raise ValueError(f"unknown degenerate shape {shape!r}")


def star_cycle_edges(coords: np.ndarray) -> list[tuple[int, int]]:
    """Odd set: label the points clockwise around the centroid and join each
    label to the two labels halfway around (a Hamiltonian star cycle)."""
    m = len(coords)
    d = coords - coords.mean(axis=0)
    order = np.argsort(-np.arctan2(d[:, 1], d[:, 0]))
    n = (m - 1) // 2
    edges = {tuple(sorted((int(order[i]), int(order[(i + n) % m])))) for i in range(m)}
    return sorted(edges)


# ---------------------------------------------------------------- checks


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _edge_array(graph) -> np.ndarray:
    return np.array(graph.edges, dtype=int).reshape(-1, 2)


def _check_hamiltonian(graph, m: int, cycle: bool) -> None:
    e = _edge_array(graph)
    _require(graph.n_vertices == m, f"graph has {graph.n_vertices} vertices, expected {m}")
    _require(len(e) == (m if cycle else m - 1), f"{len(e)} edges on {m} vertices")
    deg = np.bincount(e.ravel(), minlength=m)
    if cycle:
        _require(bool(np.all(deg == 2)), "cycle is not 2-regular")
    else:
        _require(bool(np.all(deg >= 1)) and int((deg == 1).sum()) == 2
                 and bool(np.all(deg <= 2)), "path degrees are not 1,2,...,2,1")
    adj = {v: [] for v in range(m)}
    for a, b in e:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    _require(len(seen) == m, "graph is not connected")


def _disk_depths(coords: np.ndarray, graph, q: np.ndarray) -> np.ndarray:
    """radius - |q - center| for every edge's diametral disk."""
    e = _edge_array(graph)
    a, b = coords[e[:, 0]], coords[e[:, 1]]
    return np.linalg.norm(b - a, axis=1) / 2.0 - np.linalg.norm(q - (a + b) / 2.0, axis=1)


def _check_in_every_disk(coords: np.ndarray, graph, q: np.ndarray, what: str) -> None:
    scale = max(1.0, float(np.abs(coords).max()))
    worst = float(_disk_depths(coords, graph, np.asarray(q, dtype=float)).min())
    _require(worst >= -TOL * scale, f"{what} lies {-worst:.3e} outside an edge disk")


def check_solve(points: np.ndarray, result) -> None:
    """Hamiltonian cycle (odd) or path (even) on all vertices, the witness in
    every edge disk of ``result.points``, and those points within the
    solver's largest perturbation radius of the input."""
    m = len(points)
    solved = np.asarray(result.points.coords, dtype=float)
    _require(solved.shape == points.shape, "result.points has the wrong shape")
    diam = float(np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2).max())
    moved = float(np.abs(solved - points).max())
    if result.perturbed:
        _require(moved <= 1e-3 * max(diam, 1.0), f"perturbation moved a point by {moved:.3e}")
    else:
        _require(moved == 0.0, "unperturbed result does not carry the input points")
    _check_hamiltonian(result.graph, m, cycle=(m % 2 == 1))
    _check_in_every_disk(solved, result.graph, result.witness, "witness")


def check_enumeration(report, graph, m: int, mode: str) -> None:
    """The report lists the solved edge set among its Tverberg graphs, out of
    (m-1)!/2 cycles or m!/2 paths."""
    total = math.factorial(m - 1) // 2 if mode == "cycles" else math.factorial(m) // 2
    _require(report.total_cycles == total, f"{report.total_cycles} graphs, expected {total}")
    target = frozenset(graph.edges)
    _require(any(frozenset(g.edges) == target for g, _ in report.tverberg_cycles),
             "enumeration does not list the solved graph")


def check_disk_certificate(coords: np.ndarray, graph, cert) -> None:
    _require(cert is not None, "family reported empty although it has a common point")
    _check_in_every_disk(coords, graph, cert.witness, "disk witness")


def check_lens(coords: np.ndarray, graph, alpha: float, cert) -> None:
    """A present verdict is re-checked by the angle each edge subtends at the
    witness (endpoints count as inside); at alpha = pi/2 the lenses are the
    edge disks of a solved cycle, so the family must be present."""
    if cert is None:
        _require(alpha > math.pi / 2.0, "right-angle lens family of a solved cycle reported empty")
        return
    q = np.asarray(cert.witness, dtype=float)
    e = _edge_array(graph)
    u, v = coords[e[:, 0]] - q, coords[e[:, 1]] - q
    nu, nv = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
    endpoint = (nu == 0.0) | (nv == 0.0)
    ang = np.arctan2(np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]), (u * v).sum(axis=1))
    worst = float(np.where(endpoint, math.pi, ang).min())
    _require(worst >= alpha - TOL - 1e-12, f"lens witness sees an edge under {worst:.12f} < alpha")


def check_partition(tv, coords: np.ndarray, out) -> None:
    graph, partition, cert = out
    points = tv.PointSet(coords)
    _require(tv.min_degree_check(graph, points), "minimum degree below |S|/(d+1)")
    _require(tv.covers_all_parts(graph, partition, points), "a vertex misses a part")
    _check_in_every_disk(coords, graph, cert.witness, "common point")


def check_ascent(coords: np.ndarray, state) -> None:
    m = len(coords)
    _require(state.profile.ell == 0, f"ascent stopped with {state.profile.ell} violated pairs")
    _check_hamiltonian(state.plan.cycle, m, cycle=True)
    _check_in_every_disk(coords, state.plan.cycle, state.p, "final center")


# ---------------------------------------------------------------- workloads

SOLVE_MID_KINDS = ("uniform", "gaussian", "cluster3", "cluster5", "convex")
SOLVE_MID_SIZES = (15, 16, 17, 18, 19, 20, 21)


def _solve_op(tv, label: str, coords: np.ndarray, seed: int, task: str = "") -> Op:
    return Op(
        kind="solve",
        label=label,
        run=lambda: tv.solve(tv.PointSet(coords), seed=seed),
        check=lambda result: check_solve(coords, result),
        task=task,
    )


def solve_mid(tv, seed: int, r: int) -> Iterator[Op]:
    """Each size once per round; the kinds rotate so every round has all five."""
    rng = _rng(seed, 1, r)
    for i, m in enumerate(SOLVE_MID_SIZES):
        kind = SOLVE_MID_KINDS[(i + r) % len(SOLVE_MID_KINDS)]
        coords = planar_set(kind, m, rng)
        yield _solve_op(tv, f"round {r} {kind} m={m}", coords, seed=r)


DEGENERATE_SHAPES = ("square+center", "grid3x3", "7-gon", "11-gon", "13-gon", "collinear5")


# Seeded rotated and translated copies of each shape.  By cost the shapes
# rank 7-gon < collinear5 < 11-gon < square+center < 13-gon < grid3x3.  With
# these copies a round has 17 solves: seven below the three 11-gons and seven
# above, so the median is the middle 11-gon, and the three grids are the top
# sixth, so p90 falls mid-class among them.  With fewer copies the median
# was the costliest 11-gon, one place below square+center solves that cost
# twice as much, and p90 the second-cheapest grid.
DEGENERATE_COPIES = {"7-gon": 3, "collinear5": 2, "11-gon": 2, "grid3x3": 2}


def solve_degenerate(tv, seed: int, r: int) -> Iterator[Op]:
    """Each shape as given and as DEGENERATE_COPIES (default one) seeded
    rotated and translated copies."""
    rng = _rng(seed, 2, r)
    for shape in DEGENERATE_SHAPES:
        base = degenerate_set(shape)
        yield _solve_op(tv, f"round {r} {shape}", base, seed=r)
        for k in range(DEGENERATE_COPIES.get(shape, 1)):
            moved = base @ _rotation(rng.uniform(0.0, 2.0 * math.pi)).T + rng.uniform(-10.0, 10.0, 2)
            yield _solve_op(tv, f"round {r} {shape} moved {k + 1}", moved, seed=r)


ENUMERATE_CASES = ((7, "cycles"), (9, "cycles"), (8, "paths"))
DISK_EDGES = (41, 61, 81)
LENS_ALPHAS = (math.pi / 2.0, 2.0 * math.pi / 3.0, 0.8 * math.pi)
PARTITION_CASES = ((2, 10), (3, 9), (3, 10), (3, 11), (3, 12))


# The oracle user's calls of one round form five requests.  Ranked by cost
# (on a 2-CPU Xeon): the m = 7 cross-check with the d = 3 partition graphs
# ~0.3 s, the m = 9 cross-check ~0.4 s, the E = 41 and 61 disk families
# ~0.5 s, the m = 8 cross-check with the d = 2 partition graph ~0.8 s, and the
# E = 81 disk family ~1.5 s.  So p50 falls on the E = 41 and 61 request and p90
# on the E = 81 one: a disk family's cost hardly depends on the draw (its
# points lie on a circle).  Cross-check and partition costs are heavy-tailed
# in the data: partition search stops at the first feasible partition, and
# the lens search can fall back to Nelder-Mead.  Timed as one session a
# round, six a run, the p90 spread over ten seeds was 0.21 to 0.24 of the
# median; timed per cross-check or batch, the median fell among overlapping
# classes and spread 0.28.
VERIFY_REQUESTS = {
    "m=7": "cross-check m=7 + d=3 partition graphs",
    "d=3": "cross-check m=7 + d=3 partition graphs",
    "m=9": "cross-check m=9",
    "E=41": "disk families E=41,61",
    "E=61": "disk families E=41,61",
    "m=8": "cross-check m=8 + d=2 partition graph",
    "d=2": "cross-check m=8 + d=2 partition graph",
    "E=81": "disk family E=81",
}


def verify(tv, seed: int, r: int) -> Iterator[Op]:
    """Oracle user: three cross-checks (solve a small set, enumerate its
    Hamiltonian graphs, decide its lens families), three disk families and
    five partition graphs, as the five requests of VERIFY_REQUESTS."""
    rng = _rng(seed, 3, r)
    for i, (m, mode) in enumerate(ENUMERATE_CASES):
        kind = SOLVE_MID_KINDS[(i + r) % len(SOLVE_MID_KINDS)]
        coords = planar_set(kind, m, rng)
        task = f"round {r} {VERIFY_REQUESTS[f'm={m}']}"
        solved = _solve_op(tv, f"round {r} {kind} m={m}", coords, seed=r, task=task)
        yield solved
        if solved.output is None:
            continue
        res = solved.output
        yield Op(
            kind="enumerate",
            label=f"round {r} {kind} m={m} {mode}",
            run=lambda res=res, mode=mode: tv.enumerate_hamiltonian(res.points, mode),
            check=lambda rep, res=res, m=m, mode=mode: check_enumeration(rep, res.graph, m, mode),
            task=task,
        )
        if mode != "cycles":
            continue
        P = np.asarray(res.points.coords, dtype=float)
        for alpha in LENS_ALPHAS:
            yield Op(
                kind="lens",
                label=f"round {r} {kind} m={m} alpha={alpha:.4f}",
                run=lambda res=res, alpha=alpha: tv.lens_family_common_point(
                    res.points, res.graph, alpha),
                check=lambda cert, P=P, res=res, alpha=alpha: check_lens(
                    P, res.graph, alpha, cert),
                task=task,
            )
    for e in DISK_EDGES:
        coords = planar_set("circle", e, rng)
        graph = tv.GeoGraph(e, tuple(star_cycle_edges(coords)))
        # Star cycles on convex position: every two edges cross, so the
        # family has a common point and the verdict can be checked.
        yield Op(
            kind="verify",
            label=f"round {r} circle star cycle E={e}",
            run=lambda coords=coords, graph=graph: tv.is_tverberg_graph(
                tv.PointSet(coords), graph),
            check=lambda cert, coords=coords, graph=graph: check_disk_certificate(
                coords, graph, cert),
            task=f"round {r} {VERIFY_REQUESTS[f'E={e}']}",
        )
    for d, m in PARTITION_CASES:
        coords = rng.normal(0.0, 1.0, size=(m, d))
        yield Op(
            kind="partition",
            label=f"round {r} gaussian d={d} m={m}",
            run=lambda coords=coords: tv.partition_covering_graph(tv.PointSet(coords)),
            check=lambda out, coords=coords: check_partition(tv, coords, out),
            task=f"round {r} {VERIFY_REQUESTS[f'd={d}']}",
        )


# (kind, m, starts): m = 101 sets are ascended from two opposite corners, so
# two thirds of a round's ascents have the smaller size and the median falls
# inside that class instead of between the two sizes.
ASCENT_CASES = (("uniform", 101, 2), ("cluster5", 101, 2), ("uniform", 201, 1), ("cluster5", 201, 1))


def _ascend(tv, coords: np.ndarray, start: np.ndarray):
    """The public ascent loop: a type I start state, then ascent_step until
    no pair is violated (capped at the solver's own iteration limit)."""
    points = tv.PointSet(coords)
    config = tv.SolverConfig()
    plan = tv.type1_cycle(points, start, config.tol)
    profile = tv.violation_profile(plan, config.tol)
    # The solver's own first step: an eighth of the largest centroid distance.
    step = float(np.linalg.norm(coords - coords.mean(axis=0), axis=1).max()) / 8.0
    state = tv.SolverState(p=plan.center, rep_dir=None, plan=plan, profile=profile,
                           step=step, iterations=0)
    while state.profile.ell > 0:
        if state.iterations >= config.max_iters:
            raise CheckError(f"no zero-violation state within {config.max_iters} steps")
        state = tv.ascent_step(state, points, config)
    return state


def ascent_large(tv, seed: int, r: int) -> Iterator[Op]:
    """Each set starts from a seeded corner of its bounding box grown by 5%.
    From a uniform start inside the box about a quarter of the ascents end at
    once (about 2 ms against 1-3 s), a split no median over a few dozen
    ascents makes steady; from a corner every ascent has work."""
    rng = _rng(seed, 4, r)
    for kind, m, starts in ASCENT_CASES:
        coords = planar_set(kind, m, rng)
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        pad = 0.05 * (hi - lo)
        upper = rng.integers(0, 2, size=2) == 1
        for s in range(starts):
            start = np.where(upper ^ bool(s), hi + pad, lo - pad)
            yield Op(
                kind="ascent",
                label=f"round {r} {kind} m={m} start={np.round(start, 4).tolist()}",
                run=lambda coords=coords, start=start: _ascend(tv, coords, start),
                check=lambda state, coords=coords: check_ascent(coords, state),
            )


WORKLOADS: dict[str, Callable[[Any, int, int], Iterator[Op]]] = {
    "solve-mid": solve_mid,
    "solve-degenerate": solve_degenerate,
    "verify": verify,
    "ascent-large": ascent_large,
}
