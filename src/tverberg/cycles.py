"""Hamiltonian cycles built around a center point.

A center p induces a clockwise radial order of the points projected onto the
unit circle around p; joining each label to the label halfway around yields a
Hamiltonian cycle (a star polygon when the points are in convex position).
When p is itself one of the points it is represented on the circle by a
chosen direction and the same construction applies.

The violation profile of such a cycle counts the label pairs whose angle at p
falls short of a right angle; those pairs span "short arcs" on the unit
circle, and the solver moves p toward their common intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import DEFAULT_TOL, RIGHT_ANGLE, InternalError, PointSet, _as_point

TWO_PI = 2.0 * math.pi

# Closed-arc containment grace for direction tests; far below any geometric
# tolerance, only to absorb rounding at arc endpoints.
_ARC_EPS = 1e-12


class RadialDegeneracyError(ValueError):
    """Two points of S project to the same direction around the center."""


class RepresentativeDegeneracyError(ValueError):
    """The representative direction coincides with a projected point."""


class BrokenCycleError(InternalError):
    """A constructed edge set is not a single Hamiltonian cycle."""


class ShortArcStructureError(InternalError):
    """The short arcs of a violation profile break a structural fact of the
    odd-set proof (a short arc spanning too few labels, or two disjoint)."""


@dataclass(frozen=True)
class GeoGraph:
    """Undirected graph on point indices, stored as a deduplicated edge list."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        canon = []
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise ValueError(f"edge ({a},{b}) out of range")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(canon))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=int)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)


def geo_graph(n_vertices: int, edges: Iterable[Sequence[int]]) -> GeoGraph:
    return GeoGraph(n_vertices, tuple((int(a), int(b)) for a, b in edges))


def _assert_single_cycle(graph: GeoGraph) -> None:
    """Union-find check that the edge set is one cycle through every vertex."""
    n = graph.n_vertices
    if len(graph.edges) != n or np.any(graph.degrees() != 2):
        raise BrokenCycleError("edge set is not 2-regular")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    if components != 1:
        raise BrokenCycleError("edge set splits into multiple cycles")


class CycleKind(Enum):
    TYPE_I = "type_I"
    TYPE_II = "type_II"


@dataclass(frozen=True)
class RadialOrder:
    """Clockwise labeling of S around a center.

    ``labels[k]`` is the point index occupying clockwise slot k,
    ``directions[k]`` its unit direction from the center and ``angles[k]``
    that direction's atan2 angle.  When the center is a point of S, its own
    index sits in the last slot with the representative direction standing
    in for its (undefined) projection.
    """

    center: np.ndarray
    labels: tuple[int, ...]
    directions: np.ndarray
    angles: np.ndarray
    representative_dir: Optional[np.ndarray] = None
    center_index: Optional[int] = None

    def __len__(self) -> int:
        return len(self.labels)


def _unit(v) -> np.ndarray:
    v = _as_point(v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return v / n


def radial_order(
    points: PointSet,
    center,
    rep_dir=None,
    tol: float = DEFAULT_TOL,
) -> RadialOrder:
    """Project S radially onto the unit circle around ``center`` and label
    the directions clockwise (screen convention: decreasing atan2 angle).

    ``rep_dir`` is required exactly when the center coincides with a point of
    S; the synthetic projection then occupies the last slot.  Angular ties
    raise RadialDegeneracyError (callers move the center instead of
    tie-breaking).
    """
    if points.dim != 2:
        raise ValueError("radial orders require planar input")
    p = _as_point(center)
    center_index = points.index_of(p)
    if center_index is None and rep_dir is not None:
        raise ValueError("rep_dir supplied but the center is not a point of S")
    if center_index is not None and rep_dir is None:
        raise ValueError("center is a point of S: a representative direction is required")

    labels = np.arange(len(points))
    if center_index is not None:
        labels = np.delete(labels, center_index)
    vecs = points.coords[labels] - p
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms == 0.0):
        raise RadialDegeneracyError("a point of S coincides with the center")
    dirs = vecs / norms[:, None]
    syn_dir = None
    if center_index is not None:
        syn_dir = _unit(rep_dir)
        labels = np.append(labels, center_index)
        dirs = np.vstack([dirs, syn_dir])
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])

    slots = np.argsort(-angles, kind="stable")
    gaps = angles[slots] - angles[np.roll(slots, -1)]
    gaps[-1] += TWO_PI
    tied = np.flatnonzero(np.abs(gaps) <= tol)
    if tied.size:
        k = tied[0]
        a, b = int(labels[slots[k]]), int(labels[slots[(k + 1) % len(slots)]])
        if center_index is not None and center_index in (a, b):
            raise RepresentativeDegeneracyError(
                f"representative direction coincides with the projection of point "
                f"{b if a == center_index else a}"
            )
        raise RadialDegeneracyError(
            f"points {a} and {b} project to the same direction around the center"
        )

    if center_index is not None:
        syn_slot = int(np.flatnonzero(labels[slots] == center_index)[0])
        slots = np.roll(slots, -(syn_slot + 1))

    directions = dirs[slots]
    angles = angles[slots]
    directions.setflags(write=False)
    angles.setflags(write=False)
    return RadialOrder(
        center=p,
        labels=tuple(labels[slots].tolist()),
        directions=directions,
        angles=angles,
        representative_dir=syn_dir,
        center_index=center_index,
    )


@dataclass(frozen=True)
class CyclePlan:
    """A radial order together with the Hamiltonian cycle it induces."""

    order: RadialOrder
    cycle: GeoGraph
    kind: CycleKind

    @property
    def center(self) -> np.ndarray:
        return self.order.center


def _star_cycle(order: RadialOrder, kind: CycleKind, n_vertices: int) -> CyclePlan:
    m = len(order)
    if m < 3 or m % 2 == 0:
        raise ValueError("cycle construction needs an odd number of labels >= 3")
    n = (m - 1) // 2
    edges = []
    seen = set()
    for i in range(m):
        for j in (i + n, i + n + 1):
            a, b = order.labels[i], order.labels[j % m]
            e = (a, b) if a < b else (b, a)
            if e not in seen:
                seen.add(e)
                edges.append(e)
    graph = GeoGraph(n_vertices, tuple(edges))
    _assert_single_cycle(graph)
    plan = CyclePlan(order=order, cycle=graph, kind=kind)
    return plan


def type1_cycle(points: PointSet, center, tol: float = DEFAULT_TOL) -> CyclePlan:
    """Hamiltonian cycle around a center not in S: label clockwise and join
    each label to the two labels halfway around.  Independent of which label
    is called first."""
    if len(points) % 2 == 0:
        raise ValueError("type I cycles need an odd number of points")
    order = radial_order(points, center, tol=tol)
    return _star_cycle(order, CycleKind.TYPE_I, len(points))


def type2_cycle(
    points: PointSet, p_index: int, rep_dir, tol: float = DEFAULT_TOL
) -> CyclePlan:
    """Hamiltonian cycle around the point S[p_index], which is represented on
    its own unit circle by ``rep_dir`` and occupies the last label slot.  The
    cycle depends only on the angular gap containing ``rep_dir``."""
    if len(points) % 2 == 0:
        raise ValueError("type II cycles need an odd number of points")
    order = radial_order(points, points.point(p_index), rep_dir=rep_dir, tol=tol)
    return _star_cycle(order, CycleKind.TYPE_II, len(points))


def _direction(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _in_arc(start, width, angle, tol: float):
    """Whether ``angle`` lies on the closed arc running clockwise from
    ``start`` over ``width``, with grace ``tol`` at both ends.  Takes floats
    or broadcasting arrays."""
    off = (start - angle) % TWO_PI
    return (off <= width + tol) | (off >= TWO_PI - tol)


def _minor_arcs(a, b):
    """Start angles and widths of the minor arcs between angles a and b
    (floats or arrays); the start comes first clockwise.  The width is
    symmetric in a and b to the last bit, so equal pairs score equally
    whatever their slot order."""
    d = np.abs(a - b)
    return np.where((a - b) % TWO_PI <= math.pi, a, b), np.minimum(d, TWO_PI - d)


@dataclass(frozen=True)
class Arc:
    """Closed arc on the unit circle around a center, running clockwise from
    the angle ``start`` over ``width`` radians (at most pi)."""

    center: np.ndarray
    start: float
    width: float

    @property
    def start_dir(self) -> np.ndarray:
        return _direction(self.start)

    @property
    def end_dir(self) -> np.ndarray:
        return _direction(self.start - self.width)

    def contains(self, direction, tol: float = _ARC_EPS) -> bool:
        u = _unit(direction)
        return bool(_in_arc(self.start, self.width, math.atan2(u[1], u[0]), tol))

    def midpoint_dir(self) -> np.ndarray:
        return _direction(self.start - self.width / 2.0)

    def intersects(self, other: "Arc", tol: float = _ARC_EPS) -> bool:
        # Two arcs of at most pi meet iff one holds the other's start.
        return bool(
            _in_arc(self.start, self.width, other.start, tol)
            or _in_arc(other.start, other.width, self.start, tol)
        )


def minor_arc(center, u, v) -> Arc:
    """The minor arc between directions u and v, stored canonically (start
    comes first clockwise)."""
    u = _unit(u)
    v = _unit(v)
    start, width = _minor_arcs(math.atan2(u[1], u[0]), math.atan2(v[1], v[0]))
    return Arc(center=_as_point(center), start=float(start), width=float(width))


def _stack(arcs: Sequence[Arc]) -> tuple[np.ndarray, np.ndarray]:
    """Start angles and widths of ``arcs`` as two arrays."""
    sw = np.array([(arc.start, arc.width) for arc in arcs])
    return sw[:, 0], sw[:, 1]


def arcs_common_intersection(arcs: Sequence[Arc]) -> Optional[Arc]:
    """Common intersection of arcs on one circle, or None when empty.

    Works by locating a direction not covered by any arc (the arcs here are
    short, so the union never covers the circle in valid inputs), unrolling
    every arc onto a line through that cut, and intersecting intervals.  The
    circular wraparound pitfall lives entirely in the cut search.
    """
    if not arcs:
        raise ValueError("need at least one arc")
    if len(arcs) == 1:
        return arcs[0]

    starts, widths = _stack(arcs)
    # The cut is the midpoint of the first gap between consecutive arc
    # endpoints that no arc covers.
    bounds = np.unique(np.concatenate([(starts - widths) % TWO_PI, starts % TWO_PI]))
    gaps = (np.roll(bounds, -1) - bounds) % TWO_PI
    if bounds.size == 1:
        gaps[:] = TWO_PI
    mids = (bounds + gaps / 2.0) % TWO_PI
    free = (gaps > 0.0) & ~np.any(_in_arc(starts, widths, mids[:, None], _ARC_EPS), axis=1)
    if not free.any():
        return None
    cut = mids[np.argmax(free)]

    # Each arc as the counterclockwise interval [lo, lo + width] past the cut.
    lo_rel = (starts - widths - cut) % TWO_PI
    lo = float(lo_rel.max())
    hi = float((lo_rel + widths).min())
    if lo > hi + _ARC_EPS:
        return None
    hi = max(hi, lo)
    return Arc(center=arcs[0].center, start=float(cut) + hi, width=hi - lo)


@dataclass(frozen=True)
class ViolationProfile:
    """Count and angular mass of cycle pairs violating the right-angle test.

    ``ell`` counts label pairs (i, i+n) whose angle at the center is strictly
    below pi/2 (minus tol); ``f`` is the sum of those angles; ``short_arcs``
    are the corresponding minor arcs; pairs within tol of pi/2 are counted in
    ``boundary_count`` only.  For a type II plan the two pairs touching the
    representative slot are exempt.
    """

    ell: int
    f: float
    short_arcs: tuple[Arc, ...]
    boundary_count: int
    violated_slots: tuple[tuple[int, int], ...]

    def objective(self) -> tuple[int, float]:
        """Lexicographic key (ell, -f): smaller is better."""
        return (self.ell, -self.f)


def violation_profile(
    plan: CyclePlan, tol: float = DEFAULT_TOL, threshold: float = RIGHT_ANGLE
) -> ViolationProfile:
    """Profile of ``plan`` against the angle bar ``threshold`` (pi/2 for the
    standard disk test; the solver's polishing phase raises it slightly)."""
    order = plan.order
    m = len(order)
    n = (m - 1) // 2
    i = np.arange(m)
    j = (i + n) % m
    # The angle at the center of pair (i, j) is the width of its minor arc.
    starts, theta = _minor_arcs(order.angles, order.angles[j])
    exempt = m - 1 if plan.kind is CycleKind.TYPE_II else -1
    checked = (i != exempt) & (j != exempt)
    short = checked & (theta < threshold - tol)
    boundary = checked & ~short & (theta <= threshold + tol)

    profile = ViolationProfile(
        ell=int(short.sum()),
        f=math.fsum(theta[short]),
        short_arcs=tuple(
            Arc(center=order.center, start=s, width=w)
            for s, w in zip(starts[short].tolist(), theta[short].tolist())
        ),
        boundary_count=int(boundary.sum()),
        violated_slots=tuple(zip(i[short].tolist(), j[short].tolist())),
    )
    _assert_short_arc_structure(plan, profile)
    return profile


def _assert_short_arc_structure(plan: CyclePlan, profile: ViolationProfile) -> None:
    """Structural facts about short arcs: each spans at least n+1 labels
    (endpoints included) and no two are disjoint.  Violations indicate a bug,
    not bad input, hence ShortArcStructureError.

    The second fact follows from the first by pigeonhole: two arcs that each
    hold n+1 of the 2n+1 label angles share one.  Its branch can fire only
    in the sliver the 1e-9 tolerance leaves between the two tests."""
    if profile.ell == 0:
        return
    m = len(plan.order)
    n = (m - 1) // 2
    starts, widths = _stack(profile.short_arcs)
    starts, widths = starts[:, None], widths[:, None]
    spanned = np.sum(_in_arc(starts, widths, plan.order.angles, 1e-9), axis=1)
    if spanned.min() < n + 1:
        raise ShortArcStructureError(
            f"short arc spans {spanned.min()} labels, expected at least {n + 1}"
        )
    holds_start = _in_arc(starts, widths, starts.T, 1e-9)
    if not np.all(holds_start | holds_start.T):
        raise ShortArcStructureError("disjoint short arcs on an odd point set")
