"""Constructive search for Hamiltonian cycles (odd sets) and paths (even
sets) whose edge-diametral disks share a witness point.

The engine improves the pair (violation count, -angle sum) lexicographically:
while some cycle pair still makes an acute angle at the center p, all the
violated pairs' short arcs share a common sub-arc, and moving p toward that
sub-arc widens every violated angle at once.  Centers that coincide with an
input point are handled by scanning all angular gaps for the best
representative direction.  Closed-form fast paths cover convex position and
four-point inputs; a brute-force enumeration backstop keeps the solver total
for at most nine points.

The theorems hold for every point set; general position only simplifies
their proof.  So the solver never checks it: it works on the caller's points
and certifies the result there.  Only after the first ascent fails does it
search a copy moved by one seeded jitter, and it re-certifies the graph found
there on the caller's points before falling back to the moved copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .cycles import (
    CyclePlan,
    GeoGraph,
    RadialDegeneracyError,
    RepresentativeDegeneracyError,
    ViolationProfile,
    _assert_single_cycle,
    arcs_common_intersection,
    type1_cycle,
    type2_cycle,
    violation_profile,
)
from .geometry import (
    DEFAULT_TOL,
    RIGHT_ANGLE,
    InternalError,
    PointSet,
    angle_at,
    ball_depths,
    diametral_ball,
    edge_balls,
    jitter,
)
from .oracle import (
    disks_common_point,
    enumerate_hamiltonian,
    is_tverberg_graph,
)


class ArcHellyFailureError(InternalError):
    """The violated short arcs had empty intersection (numerical degeneracy)."""


class AscentStalledError(InternalError):
    """Line search underflowed without finding an improving step."""


class SearchFailedError(InternalError):
    """All restarts exhausted and no brute-force fallback was possible."""


class SolveMode(Enum):
    """How a result was found.  ``solve`` returns ODD_CYCLE, EVEN_PATH or
    BRUTE_FORCE_FALLBACK; CONVEX_FAST and FOUR_POINT come only from direct
    calls of ``convex_position_cycle`` and ``four_point_cycle``."""

    ODD_CYCLE = "odd_cycle"
    EVEN_PATH = "even_path"
    CONVEX_FAST = "convex_fast"
    FOUR_POINT = "four_point"
    BRUTE_FORCE_FALLBACK = "brute_force_fallback"


# Line searches stop below this step length.
MIN_STEP = 1e-14
# A center this close to a point of S is snapped onto it.
COINCIDENCE_RADIUS = 1e-7
# After reaching zero violations, keep pushing until every checked angle
# clears pi/2 by this much, so distance margins come out clean.
POLISH_MARGIN = 1e-6
POLISH_ITERS = 200
# The fallback's jitter radius, relative to max(diameter, 1).
JITTER_RADIUS = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance, ascent budget and restart count; ``on_state(state,
    points)`` is called with every accepted ascent state."""

    tol: float = DEFAULT_TOL
    max_iters: int = 10_000
    restarts: int = 32
    on_state: Optional[Callable] = None


@dataclass(frozen=True)
class SolverState:
    """Center, its plan and profile, plus line-search bookkeeping."""

    p: np.ndarray
    rep_dir: Optional[np.ndarray]
    plan: CyclePlan
    profile: ViolationProfile
    step: float
    iterations: int


@dataclass(frozen=True)
class SolveResult:
    """A certified Tverberg graph: edges, witness, and per-edge angles."""

    graph: GeoGraph
    witness: np.ndarray
    certificate: tuple[tuple[tuple[int, int], float], ...]
    mode: SolveMode
    points: PointSet
    iterations: int = 0
    restarts: int = 0
    perturbed: bool = False
    seed: Optional[int] = None


def _step_cap(points: PointSet) -> float:
    c = points.centroid()
    return float(np.linalg.norm(points.coords - c, axis=1).max()) or 1.0


def _scan_representatives(
    points: PointSet, p_index: int, tol: float
) -> tuple[np.ndarray, CyclePlan, ViolationProfile]:
    """Best representative direction for a center sitting on S[p_index].

    Tries the midpoint of every angular gap between consecutive projections,
    ranks candidates lexicographically by (ell, -f), and prefers candidates
    whose antipode lies in the common intersection of their short arcs (those
    admit an improving move straight away)."""
    p = points.point(p_index)
    others = np.array([i for i in range(len(points)) if i != p_index])
    vecs = points.coords[others] - p
    angles = np.sort(np.arctan2(vecs[:, 1], vecs[:, 0]))[::-1]

    best = None
    for k in range(len(angles)):
        hi = angles[k]
        lo = angles[(k + 1) % len(angles)] - (2.0 * math.pi if k == len(angles) - 1 else 0.0)
        if hi - lo <= 2.0 * tol:
            continue
        mid = (hi + lo) / 2.0
        rep = np.array([math.cos(mid), math.sin(mid)])
        try:
            plan = type2_cycle(points, p_index, rep, tol)
        except (RadialDegeneracyError, RepresentativeDegeneracyError):
            continue
        profile = violation_profile(plan, tol)
        if profile.ell == 0:
            prefer = 0
        else:
            q = arcs_common_intersection(profile.short_arcs)
            prefer = 0 if q is not None and q.contains(-rep, 1e-9) else 1
        key = (profile.ell, -profile.f, prefer)
        if best is None or key < best[0]:
            best = (key, rep, plan, profile)
    if best is None:
        raise RadialDegeneracyError("no usable representative gap around the center")
    return best[1], best[2], best[3]


def handle_center_on_point(
    points: PointSet, p_index: int, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, ViolationProfile]:
    """Representative direction and profile for a center that is a point of S."""
    if len(points) % 2 == 0:
        raise ValueError("odd cardinality required")
    rep, _, profile = _scan_representatives(points, p_index, tol)
    return rep, profile


def _evaluate(
    points: PointSet, p: np.ndarray, config: SolverConfig
) -> tuple[CyclePlan, ViolationProfile, Optional[np.ndarray], np.ndarray]:
    """Plan/profile at p, snapping to a point of S within the coincidence radius."""
    d = np.linalg.norm(points.coords - p, axis=1)
    i = int(np.argmin(d))
    if d[i] <= COINCIDENCE_RADIUS:
        rep, plan, profile = _scan_representatives(points, i, config.tol)
        return plan, profile, rep, points.point(i)
    plan = type1_cycle(points, p, config.tol)
    return plan, violation_profile(plan, config.tol), None, p


def ascent_step(state: SolverState, points: PointSet, config: SolverConfig) -> SolverState:
    """One accepted move of the lexicographic improvement loop.

    Moves toward the midpoint of the short arcs' common intersection (for a
    center on a point of S: directly away from its representative), with a
    halving line search that accepts the first strict improvement of
    (ell, -f)."""
    if state.profile.ell == 0:
        raise ValueError("ascent_step requires at least one violated pair")
    common = arcs_common_intersection(state.profile.short_arcs)
    if common is None:
        raise ArcHellyFailureError(
            "short arcs have empty common intersection; input is numerically degenerate"
        )
    if state.rep_dir is not None and common.contains(-state.rep_dir, 1e-9):
        direction = -state.rep_dir
    else:
        direction = common.midpoint_dir()

    cap = _step_cap(points)
    t = min(max(state.step, MIN_STEP), cap)
    base = state.profile.objective()
    while t >= MIN_STEP:
        candidate = state.p + t * direction
        try:
            plan, profile, rep, snapped = _evaluate(points, candidate, config)
        except (RadialDegeneracyError, RepresentativeDegeneracyError):
            t /= 2.0
            continue
        if profile.objective() < base:
            return SolverState(
                p=snapped,
                rep_dir=rep,
                plan=plan,
                profile=profile,
                step=min(2.0 * t, cap),
                iterations=state.iterations + 1,
            )
        t /= 2.0
    raise AscentStalledError("no improving step above the minimum step size")


def _initial_state(
    points: PointSet, start: np.ndarray, rng: np.random.Generator, config: SolverConfig
) -> Optional[SolverState]:
    scale = _step_cap(points)
    step0 = scale / 8.0
    p = np.array(start, dtype=float)
    for _ in range(16):
        try:
            plan, profile, rep, snapped = _evaluate(points, p, config)
        except (RadialDegeneracyError, RepresentativeDegeneracyError):
            p = p + rng.normal(scale=1e-6 * scale, size=2)
            continue
        return SolverState(
            p=snapped, rep_dir=rep, plan=plan, profile=profile, step=step0, iterations=0
        )
    return None


def _ascend(
    state: SolverState, points: PointSet, config: SolverConfig
) -> tuple[SolverState, bool]:
    if config.on_state is not None:
        config.on_state(state, points)
    while state.profile.ell > 0 and state.iterations < config.max_iters:
        try:
            state = ascent_step(state, points, config)
        except (AscentStalledError, ArcHellyFailureError):
            return state, False
        if config.on_state is not None:
            config.on_state(state, points)
    return state, state.profile.ell == 0


def _polish(state: SolverState, points: PointSet, config: SolverConfig) -> SolverState:
    """Raise every checked angle above pi/2 + POLISH_MARGIN when possible.

    Only applies to centers off S; a witness on S keeps its exact-boundary
    incident disks, which the closed-ball convention accepts."""
    if state.rep_dir is not None:
        return state
    bar = RIGHT_ANGLE + POLISH_MARGIN
    cap = _step_cap(points)
    t = min(max(state.step, MIN_STEP), cap)
    for _ in range(POLISH_ITERS):
        pseudo = violation_profile(state.plan, config.tol, threshold=bar)
        if pseudo.ell == 0:
            break
        common = arcs_common_intersection(pseudo.short_arcs)
        if common is None:
            break
        direction = common.midpoint_dir()
        accepted = None
        while t >= MIN_STEP:
            candidate = state.p + t * direction
            try:
                plan, profile, rep, snapped = _evaluate(points, candidate, config)
            except (RadialDegeneracyError, RepresentativeDegeneracyError):
                t /= 2.0
                continue
            if rep is not None or profile.ell > 0:
                t /= 2.0
                continue
            cand_pseudo = violation_profile(plan, config.tol, threshold=bar)
            if cand_pseudo.objective() < pseudo.objective():
                accepted = SolverState(
                    p=snapped,
                    rep_dir=None,
                    plan=plan,
                    profile=profile,
                    step=state.step,
                    iterations=state.iterations + 1,
                )
                t = min(2.0 * t, cap)
                break
            t /= 2.0
        if accepted is None:
            break
        state = accepted
    return state


def _certificate_angles(
    points: PointSet, graph: GeoGraph, witness: np.ndarray
) -> tuple[tuple[tuple[int, int], float], ...]:
    out = []
    for a, b in graph.edges:
        pa, pb = points.point(a), points.point(b)
        if np.array_equal(witness, pa) or np.array_equal(witness, pb):
            ang = math.pi  # endpoint convention: the disk contains its endpoints
        else:
            ang = angle_at(witness, pa, pb)
        out.append(((a, b), ang))
    return tuple(out)


def _search(
    work: PointSet, seed: int, config: SolverConfig, ks: range, iterations: int
) -> tuple[Optional[SolverState], int, int]:
    """Ascend from the starts numbered ``ks`` and polish the first one that
    reaches zero violations.

    Start 0 is the centroid, the others are seeded uniform points of the
    bounding box.  Returns the polished state (None if every start stalled),
    the iteration total including ``iterations`` carried in, and the index of
    the last start tried."""
    rng = np.random.default_rng(seed)
    lo, hi = work.bounding_box()
    starts = [work.centroid()] + [rng.uniform(lo, hi) for _ in range(config.restarts)]
    for k in ks:
        state = _initial_state(work, starts[k], np.random.default_rng((seed, k)), config)
        if state is None:
            continue
        state, ok = _ascend(state, work, config)
        if not ok:
            iterations += state.iterations
            continue
        final = _polish(state, work, config)
        return final, iterations + final.iterations, k
    return None, iterations, ks.stop - 1


def _cycle_result(
    work: PointSet,
    graph: GeoGraph,
    witness: np.ndarray,
    mode: SolveMode,
    seed: int,
    config: SolverConfig,
    **counts,
) -> SolveResult:
    """Result for a cycle on ``work``, verified by _check_result."""
    result = SolveResult(
        graph=graph,
        witness=witness,
        certificate=_certificate_angles(work, graph, witness),
        mode=mode,
        points=work,
        seed=seed,
        **counts,
    )
    _check_result(result, config.tol)
    return result


def solve_odd(
    points: PointSet, seed: int = 0, config: Optional[SolverConfig] = None
) -> SolveResult:
    """Hamiltonian cycle on an odd planar set whose edge disks share a point.

    Pipeline: ascend once from the centroid on the input itself and return
    the cycle if its witness is certified there.  When that ascent stalls,
    meets a degeneracy or fails certification, the input is moved by one
    seeded jitter of radius JITTER_RADIUS * max(diameter, 1), with no
    general-position check, and starts 0..restarts run on the moved copy.
    The cycle found there is re-certified on the input with
    ``is_tverberg_graph`` and returned unperturbed with that witness; only
    if the input's family is empty is the moved copy's result returned,
    marked perturbed.  Fallback start k reports ``restarts = k + 1``.
    Exhaustive enumeration of the input itself backs up at most nine
    points.  The returned witness is verified against every edge disk.
    """
    config = config or SolverConfig()
    m = len(points)
    if points.dim != 2:
        raise ValueError("solve_odd is planar")
    if m < 3 or m % 2 == 0:
        raise ValueError("solve_odd needs an odd number of points, at least 3")

    final, iterations, _ = _search(points, seed, config, range(1), 0)
    if final is not None:
        try:
            return _cycle_result(
                points, final.plan.cycle, final.p, SolveMode.ODD_CYCLE, seed, config,
                iterations=iterations,
            )
        except SearchFailedError:
            pass

    delta = JITTER_RADIUS * max(points.diameter(), 1.0)
    work = PointSet(jitter(points.coords, delta, np.random.default_rng(seed)))
    final, iterations, k = _search(work, seed, config, range(config.restarts + 1), iterations)
    if final is not None:
        graph = final.plan.cycle
        cert = is_tverberg_graph(points, graph, config.tol)
        if cert is not None:
            return _cycle_result(
                points, graph, cert.witness, SolveMode.ODD_CYCLE, seed, config,
                iterations=iterations, restarts=k + 1,
            )
        return _cycle_result(
            work, graph, final.p, SolveMode.ODD_CYCLE, seed, config,
            iterations=iterations, restarts=k + 1, perturbed=True,
        )

    if m <= 9:
        report = enumerate_hamiltonian(points, "cycles", config.tol)
        if report.tverberg_cycles:
            graph, cert = report.tverberg_cycles[0]
            return _cycle_result(
                points, graph, cert.witness, SolveMode.BRUTE_FORCE_FALLBACK, seed, config,
                iterations=iterations, restarts=config.restarts + 1,
            )
    raise SearchFailedError(
        f"no certified cycle found after {config.restarts} restarts "
        f"(existence is guaranteed; this indicates a numerical problem)"
    )


def _check_result(result: SolveResult, tol: float) -> None:
    """Hard postcondition: the witness sits in every edge's diametral disk."""
    depths = ball_depths(*edge_balls(result.points.coords, result.graph.edges), result.witness)
    k = int(np.argmin(depths))
    if depths[k] < -max(tol, 1e-9):
        a, b = result.graph.edges[k]
        raise SearchFailedError(
            f"internal verification failed on edge ({a},{b}): depth {depths[k]:.3e}"
        )


def solve_even_path(
    points: PointSet, seed: int = 0, config: Optional[SolverConfig] = None
) -> SolveResult:
    """Hamiltonian path on an even planar set whose edge disks share a point.

    Appends an auxiliary point at the centroid (jittered only if it is a
    point of the input), solves the odd problem on the extended set, and
    removes the auxiliary point with its two edges; the cycle's witness stays
    valid because the disk family only shrinks.  Degeneracies of the extended
    set are left to solve_odd, which jitters only after a failed ascent.
    """
    config = config or SolverConfig()
    m = len(points)
    if points.dim != 2:
        raise ValueError("solve_even_path is planar")
    if m < 2 or m % 2 == 1:
        raise ValueError("solve_even_path needs an even number of points, at least 2")

    rng = np.random.default_rng(seed)
    aux = points.centroid()
    k = 0
    while points.index_of(aux) is not None:
        spread = min(1e-5 * 2.0**k, 0.05) * max(points.diameter(), 1.0)
        aux = points.centroid() + rng.normal(scale=spread, size=2)
        k += 1
    extended = PointSet(np.vstack([points.coords, aux]))

    cycle_result = solve_odd(extended, seed, config)
    aux_index = m
    path_edges = tuple(e for e in cycle_result.graph.edges if aux_index not in e)
    solved_points = PointSet(cycle_result.points.coords[:m])
    graph = GeoGraph(m, path_edges)
    result = SolveResult(
        graph=graph,
        witness=cycle_result.witness,
        certificate=_certificate_angles(solved_points, graph, cycle_result.witness),
        mode=SolveMode.EVEN_PATH,
        points=solved_points,
        iterations=cycle_result.iterations,
        restarts=cycle_result.restarts,
        perturbed=cycle_result.perturbed,
        seed=seed,
    )
    _check_result(result, config.tol)
    return result


def solve(
    points: PointSet, seed: int = 0, config: Optional[SolverConfig] = None
) -> SolveResult:
    """Parity dispatch: odd sets get a cycle, even sets a path."""
    if len(points) % 2 == 1:
        return solve_odd(points, seed, config)
    return solve_even_path(points, seed, config)


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _convex_hull_clockwise(points: PointSet) -> list[int]:
    """Monotone chain; returns hull vertex indices in clockwise order."""
    idx = sorted(range(len(points)), key=lambda i: (points.coords[i][0], points.coords[i][1]))
    P = points.coords

    def half(indices):
        out = []
        for i in indices:
            while len(out) >= 2 and _orient(P[out[-2]], P[out[-1]], P[i]) <= 0.0:
                out.pop()
            out.append(i)
        return out

    lower = half(idx)
    upper = half(reversed(idx))
    ccw = lower[:-1] + upper[:-1]
    return ccw[::-1]


def convex_position_cycle(points: PointSet, tol: float = DEFAULT_TOL) -> SolveResult:
    """Closed-form cycle for odd sets in strictly convex position: order the
    points clockwise along the hull and join each to the two points halfway
    around.  Every pair of edges crosses, so the disks share a point."""
    m = len(points)
    if points.dim != 2:
        raise ValueError("convex_position_cycle is planar")
    if m < 3 or m % 2 == 0:
        raise ValueError("convex_position_cycle needs an odd number of points")
    hull = _convex_hull_clockwise(points)
    if len(hull) != m:
        raise ValueError("points are not in strictly convex position")

    n = (m - 1) // 2
    edges = []
    for i in range(m):
        a, b = hull[i], hull[(i + n) % m]
        edges.append((a, b) if a < b else (b, a))
    graph = GeoGraph(m, tuple(sorted(set(edges))))
    _assert_single_cycle(graph)

    balls = [diametral_ball(points.point(a), points.point(b)) for a, b in graph.edges]
    cert = disks_common_point(balls, tol)
    if cert is None:
        raise SearchFailedError("convex-position disk family unexpectedly empty")
    result = SolveResult(
        graph=graph,
        witness=cert.witness,
        certificate=_certificate_angles(points, graph, cert.witness),
        mode=SolveMode.CONVEX_FAST,
        points=points,
        iterations=0,
        restarts=0,
        perturbed=False,
        seed=None,
    )
    _check_result(result, tol)
    return result


def four_point_cycle(points: PointSet, tol: float = DEFAULT_TOL) -> SolveResult:
    """Hamiltonian cycle on four points in general position.

    Triangle hull: the interior point is covered by two side disks sharing a
    vertex; route the interior point between the two non-shared vertices.
    Convex hull: the diagonal crossing sees one pair of opposite rays under
    at least a right angle; that pair plus the diagonals form the cycle.
    """
    if len(points) != 4 or points.dim != 2:
        raise ValueError("four_point_cycle needs exactly 4 planar points")
    P = points.coords
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        if _orient(P[i], P[j], P[k]) == 0.0:
            raise ValueError("degenerate input: collinear triple")

    inner = None
    for w in range(4):
        tri = [i for i in range(4) if i != w]
        s0 = _orient(P[tri[0]], P[tri[1]], P[w])
        s1 = _orient(P[tri[1]], P[tri[2]], P[w])
        s2 = _orient(P[tri[2]], P[tri[0]], P[w])
        if (s0 > 0 and s1 > 0 and s2 > 0) or (s0 < 0 and s1 < 0 and s2 < 0):
            inner = w
            break

    if inner is not None:
        tri = [i for i in range(4) if i != inner]
        w = P[inner]
        sides = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
        depths = ball_depths(*edge_balls(P, sides), w)
        take = sorted(range(3), key=lambda s: -depths[s])[:2]
        if depths[take[1]] < -tol:
            raise SearchFailedError("interior point covered by fewer than two side disks")
        shared = set(sides[take[0]]) & set(sides[take[1]])
        mid = shared.pop()
        ends = [v for s in take for v in sides[s] if v != mid]
        cycle = [inner, ends[0], mid, ends[1]]
        witness = w
    else:
        # Convex quadrilateral: find the diagonal pairing.
        diag = None
        for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            if (
                _orient(P[a], P[b], P[c]) * _orient(P[a], P[b], P[d]) < 0
                and _orient(P[c], P[d], P[a]) * _orient(P[c], P[d], P[b]) < 0
            ):
                diag = ((a, b), (c, d))
                break
        if diag is None:
            raise SearchFailedError("no diagonal pairing found for convex quadruple")
        (x, y), (w_, z) = diag
        A = np.array([P[y] - P[x], P[w_] - P[z]]).T
        rhs = P[w_] - P[x]
        s = np.linalg.solve(A, rhs)
        witness = P[x] + s[0] * (P[y] - P[x])
        ang_xw = angle_at(witness, P[x], P[w_])
        ang_wy = angle_at(witness, P[w_], P[y])
        if ang_xw >= ang_wy:
            cycle = [x, w_, z, y]
        else:
            cycle = [w_, y, x, z]

    edges = tuple(
        tuple(sorted((cycle[i], cycle[(i + 1) % 4]))) for i in range(4)
    )
    graph = GeoGraph(4, edges)
    result = SolveResult(
        graph=graph,
        witness=np.array(witness, dtype=float),
        certificate=_certificate_angles(points, graph, witness),
        mode=SolveMode.FOUR_POINT,
        points=points,
        iterations=0,
        restarts=0,
        perturbed=False,
        seed=None,
    )
    _check_result(result, tol)
    return result
