"""Planar and d-dimensional primitives: angles, diametral balls, alpha-lenses,
general-position checking, and seeded perturbation.

All operations are pure; point sets are immutable once constructed.  A single
absolute tolerance (radians for angle comparisons, lengths for signed-distance
comparisons) controls every fuzzy predicate and defaults to ``DEFAULT_TOL``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

RIGHT_ANGLE = math.pi / 2.0


class DegenerateInputError(ValueError):
    """Geometrically degenerate input (zero-length segment, undefined angle)."""


class InternalError(RuntimeError):
    """A step the package guarantees to succeed failed: a numerical problem
    or a bug, not bad input."""


class PerturbationError(InternalError):
    """Perturbation failed to reach general position within the retry budget."""


class Membership(Enum):
    """Classification of a point against a closed region, with a boundary band."""

    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"

    def covered(self) -> bool:
        """True for closed-set membership (inside or on the boundary)."""
        return self is not Membership.OUTSIDE


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"expected a single point, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("point has non-finite coordinates")
    return a


@dataclass(frozen=True)
class PointSet:
    """An ordered set of d-dimensional points with index identity.

    Points are addressed by their position in the input order; no two points
    may coincide exactly.
    """

    coords: np.ndarray

    def __post_init__(self):
        a = np.array(self.coords, dtype=float)
        if a.ndim != 2:
            raise ValueError("coords must be a 2-d array of shape (m, d)")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("need at least one point of dimension >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("coordinates must be finite")
        if np.unique(a, axis=0).shape[0] != a.shape[0]:
            raise ValueError("duplicate points are not allowed")
        a.setflags(write=False)
        object.__setattr__(self, "coords", a)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def centroid(self) -> np.ndarray:
        return self.coords.mean(axis=0)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def diameter(self) -> float:
        """Largest pairwise distance (0 for a singleton)."""
        if len(self) == 1:
            return 0.0
        d = self.coords[:, None, :] - self.coords[None, :, :]
        return float(np.sqrt((d * d).sum(axis=-1)).max())

    def index_of(self, p) -> Optional[int]:
        """Index of the point exactly equal to ``p``, or None."""
        p = _as_point(p)
        hits = np.nonzero(np.all(self.coords == p, axis=1))[0]
        return int(hits[0]) if hits.size else None


def point_set(points: Iterable[Sequence[float]]) -> PointSet:
    """Build a PointSet from an iterable of coordinate sequences."""
    return PointSet(np.array(list(points), dtype=float))


@dataclass(frozen=True)
class Ball:
    """Closed ball given by center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _as_point(self.center)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not (self.radius >= 0.0):
            raise ValueError("radius must be nonnegative")

    def signed_depth(self, p) -> float:
        """radius - distance(center, p); nonnegative inside the closed ball."""
        return self.radius - float(np.linalg.norm(_as_point(p) - self.center))


@dataclass(frozen=True)
class Lens:
    """The locus of points seeing the segment S[i]S[j] under angle >= alpha."""

    endpoints: tuple[int, int]
    alpha: float

    def __post_init__(self):
        i, j = self.endpoints
        if i == j:
            raise ValueError("lens endpoints must be distinct indices")
        if not (0.0 < self.alpha < math.pi):
            raise ValueError("alpha must lie in (0, pi)")


def _scaled_norm(v: np.ndarray) -> float:
    """Euclidean norm that survives coordinates below the underflow line."""
    m = float(np.max(np.abs(v)))
    if m == 0.0:
        return 0.0
    w = v / m
    return m * math.sqrt(float(np.dot(w, w)))


def angle_at(vertex, a, b) -> float:
    """Unsigned angle between the rays vertex->a and vertex->b, in [0, pi].

    Raises DegenerateInputError when a or b coincides with the vertex.
    """
    vertex, a, b = _as_point(vertex), _as_point(a), _as_point(b)
    u = a - vertex
    v = b - vertex
    nu = _scaled_norm(u)
    nv = _scaled_norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("undefined angle: ray endpoint equals the vertex")
    # Normalize before the dot product; it can exceed [-1, 1] by a few ulps.
    c = float(np.dot(u / nu, v / nv))
    return math.acos(max(-1.0, min(1.0, c)))


def diametral_ball(x, y) -> Ball:
    """Closed ball having segment xy as a diameter."""
    x, y = _as_point(x), _as_point(y)
    if np.array_equal(x, y):
        raise DegenerateInputError("degenerate segment: identical endpoints")
    return Ball(center=(x + y) / 2.0, radius=float(np.linalg.norm(y - x)) / 2.0)


def edge_balls(coords: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the diametral balls of ``edges`` (index pairs
    into ``coords``)."""
    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    a, b = coords[e[:, 0]], coords[e[:, 1]]
    return (a + b) / 2.0, np.linalg.norm(b - a, axis=1) / 2.0


def ball_depths(centers: np.ndarray, radii: np.ndarray, q) -> np.ndarray:
    """radius - distance(center, q) per ball; nonnegative inside."""
    return radii - np.linalg.norm(np.asarray(q, dtype=float) - centers, axis=1)


def lens_membership(p, x, y, alpha: float, tol: float = DEFAULT_TOL) -> Membership:
    """Membership of p in the alpha-lens of segment xy, by the angle test.

    Endpoints count as inside for every alpha (closed-set convention).
    """
    p, x, y = _as_point(p), _as_point(x), _as_point(y)
    if np.array_equal(x, y):
        raise DegenerateInputError("degenerate segment: identical endpoints")
    if np.array_equal(p, x) or np.array_equal(p, y):
        return Membership.INSIDE
    theta = angle_at(p, x, y)
    if theta > alpha + tol:
        return Membership.INSIDE
    if theta >= alpha - tol:
        return Membership.BOUNDARY
    return Membership.OUTSIDE


def in_diametral_ball(p, x, y, tol: float = DEFAULT_TOL) -> Membership:
    """Membership of p in D(x, y): inside iff the angle at p exceeds pi/2."""
    return lens_membership(p, x, y, RIGHT_ANGLE, tol)


def in_lens(p, lens: Lens, points: PointSet, tol: float = DEFAULT_TOL) -> Membership:
    """Membership of p in the lens over ``points`` identified by ``lens``."""
    i, j = lens.endpoints
    return lens_membership(p, points.point(i), points.point(j), lens.alpha, tol)


@dataclass
class GeneralPositionReport:
    """Violations of the four planar general-position conditions.

    Empty report <=> the set is in general position up to the tolerance used.
    """

    collinear_triples: list = field(default_factory=list)
    boundary_incidences: list = field(default_factory=list)
    triple_boundary_meets: list = field(default_factory=list)
    tangent_pairs: list = field(default_factory=list)

    def ok(self) -> bool:
        return not (
            self.collinear_triples
            or self.boundary_incidences
            or self.triple_boundary_meets
            or self.tangent_pairs
        )

    def summary(self) -> str:
        return (
            f"collinear={len(self.collinear_triples)} "
            f"on-boundary={len(self.boundary_incidences)} "
            f"triple-meets={len(self.triple_boundary_meets)} "
            f"tangent={len(self.tangent_pairs)}"
        )


def _min_altitude(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Smallest of the three triangle altitudes; ~0 for collinear triples."""
    pts = (a, b, c)
    best = math.inf
    for k in range(3):
        p = pts[k]
        q = pts[(k + 1) % 3]
        r = pts[(k + 2) % 3]
        base = q - r
        nb = np.linalg.norm(base)
        if nb == 0.0:
            return 0.0
        u = p - r
        proj = u - (np.dot(u, base) / (nb * nb)) * base
        best = min(best, float(np.linalg.norm(proj)))
    return best


def circle_crossings(ca, ra, cb, rb) -> np.ndarray:
    """Crossing points of circle pairs, batched over leading axes: centers
    (..., 2) and radii (...) give points (..., 2, 2).

    Points are NaN where the circles do not meet (equal centers, disjoint or
    nested); a tangent pair gives its touching point twice.
    """
    diff = cb - ca
    d = np.linalg.norm(diff, axis=-1)
    meet = (d > 0.0) & (d <= ra + rb) & (d >= np.abs(ra - rb))
    d = np.where(meet, d, 1.0)
    s = (d * d + ra * ra - rb * rb) / (2.0 * d * d)
    base = ca + s[..., None] * diff
    h2 = ra * ra - ((d * d + ra * ra - rb * rb) / (2.0 * d)) ** 2
    h = np.sqrt(np.maximum(h2, 0.0))[..., None]
    perp = np.stack([-diff[..., 1], diff[..., 0]], axis=-1) / d[..., None]
    pts = np.stack([base + h * perp, base - h * perp], axis=-2)
    pts[~meet] = np.nan
    return pts


def check_general_position(points: PointSet, tol: float = DEFAULT_TOL) -> GeneralPositionReport:
    """Enumerate general-position violations of S.

    Planar sets are checked for all four conditions: collinear triples, a
    third point on a pair's diametral circle, three diametral circles through
    a common point (pairs sharing an index are exempt: they always cross at
    the shared point), and tangent diametral circles (again, pairs sharing an
    index are exempt, since for those tangency is literally collinearity of
    the three points, which the first condition already measures with a
    well-conditioned metric).  Triple meets are decided at the radical
    center, whose residual degrades linearly rather than quadratically under
    perturbation.  For d != 2 only collinearity is checked.
    """
    report = GeneralPositionReport()
    m = len(points)
    P = points.coords

    for i, j, k in itertools.combinations(range(m), 3):
        if _min_altitude(P[i], P[j], P[k]) <= tol:
            report.collinear_triples.append((i, j, k))

    if points.dim != 2 or m < 3:
        return report

    pairs = np.array(list(itertools.combinations(range(m), 2)))
    centers = (P[pairs[:, 0]] + P[pairs[:, 1]]) / 2.0
    radii = np.linalg.norm(P[pairs[:, 1]] - P[pairs[:, 0]], axis=1) / 2.0
    npairs = len(pairs)

    # Condition 2: z on the boundary circle of D(x, y), z not an endpoint.
    dists = np.linalg.norm(P[:, None, :] - centers[None, :, :], axis=2)
    for z, pi in zip(*np.nonzero(np.abs(dists - radii[None, :]) <= tol)):
        x, y = int(pairs[pi, 0]), int(pairs[pi, 1])
        if z != x and z != y:
            report.boundary_incidences.append((int(z), (x, y)))

    # Condition 4: tangent circles, shared-endpoint pairs exempt.
    ii, jj = np.triu_indices(npairs, k=1)
    share = (pairs[ii, 0:1] == pairs[jj]).any(axis=1) | (
        pairs[ii, 1:2] == pairs[jj]
    ).any(axis=1)
    d = np.linalg.norm(centers[jj] - centers[ii], axis=1)
    tangent = (
        (np.abs(d - (radii[ii] + radii[jj])) <= tol)
        | (np.abs(d - np.abs(radii[ii] - radii[jj])) <= tol)
    ) & ~share
    for k in np.nonzero(tangent)[0]:
        report.tangent_pairs.append((tuple(pairs[ii[k]]), tuple(pairs[jj[k]])))

    # Condition 3: three circles through one point, measured at the radical
    # center (the unique equal-power point when the centers are not
    # collinear; it coincides with a true common point when one exists).
    trips = np.array(list(itertools.combinations(range(npairs), 3)))
    if len(trips):
        a, b, c = trips[:, 0], trips[:, 1], trips[:, 2]
        pa, pb, pc = pairs[a], pairs[b], pairs[c]
        common = (
            (pa[:, 0:1] == pb).any(axis=1) & (pa[:, 0:1] == pc).any(axis=1)
        ) | ((pa[:, 1:2] == pb).any(axis=1) & (pa[:, 1:2] == pc).any(axis=1))
        ca, cb, cc = centers[a], centers[b], centers[c]
        ra, rb, rc = radii[a], radii[b], radii[c]
        pow_a = (ca * ca).sum(axis=1) - ra * ra
        pow_b = (cb * cb).sum(axis=1) - rb * rb
        pow_c = (cc * cc).sum(axis=1) - rc * rc
        A1 = 2.0 * (cb - ca)
        A2 = 2.0 * (cc - ca)
        rhs1 = pow_b - pow_a
        rhs2 = pow_c - pow_a
        det = A1[:, 0] * A2[:, 1] - A1[:, 1] * A2[:, 0]
        scale = np.linalg.norm(A1, axis=1) * np.linalg.norm(A2, axis=1)
        good = np.abs(det) > 1e-12 * (scale + 1e-300)
        det_safe = np.where(good, det, 1.0)
        qx = (rhs1 * A2[:, 1] - rhs2 * A1[:, 1]) / det_safe
        qy = (A1[:, 0] * rhs2 - A2[:, 0] * rhs1) / det_safe
        q = np.stack([qx, qy], axis=1)
        resid = np.maximum(
            np.abs(np.linalg.norm(q - ca, axis=1) - ra),
            np.maximum(
                np.abs(np.linalg.norm(q - cb, axis=1) - rb),
                np.abs(np.linalg.norm(q - cc, axis=1) - rc),
            ),
        )
        for k in np.nonzero(good & ~common & (resid <= tol))[0]:
            report.triple_boundary_meets.append(
                (tuple(pairs[a[k]]), tuple(pairs[b[k]]), tuple(pairs[c[k]]))
            )
        # Collinear-center triples: probe the third circle at the most
        # transversal pairwise intersection instead.
        bad = trips[~good & ~common]
        combos = np.array([(0, 1, 2), (0, 2, 1), (1, 2, 0)])
        u, v = bad[:, combos[:, 0]], bad[:, combos[:, 1]]
        meets = circle_crossings(centers[u], radii[u], centers[v], radii[v])  # (K, 3, 2, 2)
        spread = np.linalg.norm(meets[:, :, 0] - meets[:, :, 1], axis=-1)
        pick = np.where(np.isnan(spread), -np.inf, spread).argmax(axis=1)
        rows = np.arange(len(bad))
        other = bad[rows, combos[pick, 2]]
        dist = np.linalg.norm(meets[rows, pick] - centers[other][:, None], axis=-1)
        on_other = (np.abs(dist - radii[other][:, None]) <= tol).any(axis=1)
        for k in np.nonzero((spread[rows, pick] > tol) & on_other)[0]:
            report.triple_boundary_meets.append(tuple(tuple(pairs[i]) for i in bad[k]))
    return report


def jitter(coords: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """``coords`` with every row moved by a uniform sample from the closed
    ball of radius delta, drawn point by point from ``rng``."""
    m, d = coords.shape
    moves = np.zeros((m, d))
    for i in range(m):
        v = rng.normal(size=d)
        n = np.linalg.norm(v)
        if n > 0.0:
            moves[i] = (delta * rng.uniform() ** (1.0 / d) / n) * v
    return coords + moves


def perturb(
    points: PointSet,
    delta: float,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_attempts: int = 64,
) -> PointSet:
    """Move every point by at most delta so the result is in general position.

    Deterministic for a fixed (points, delta, seed).  Each attempt re-jitters
    from the original coordinates, so the output is always within delta of
    the input.  Raises PerturbationError after ``max_attempts`` failures.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    m = len(points)
    last = None
    for _ in range(max_attempts):
        moved = jitter(points.coords, delta, rng)
        if np.unique(moved, axis=0).shape[0] != m:
            continue
        candidate = PointSet(moved)
        report = check_general_position(candidate, tol)
        if report.ok():
            return candidate
        last = report
    raise PerturbationError(
        f"no general-position perturbation found after {max_attempts} attempts "
        f"(delta={delta:g}); last report: {last.summary() if last else 'n/a'}"
    )
