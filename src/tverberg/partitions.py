"""Point-set partitions with intersecting convex hulls and the dense graphs
they induce.

A partition of S into r parts whose hulls share a point p yields a graph in
which every vertex is adjacent to at least one point of every part: for a
vertex q, each part must contain a point on the far side of the hyperplane
through p normal to q - p, and the disk on that pair contains p.  Partition
search is exhaustive at desk scale, driven by a dense phase-one simplex
feasibility solve with Bland's anti-cycling rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .cycles import GeoGraph
from .geometry import DEFAULT_TOL, InternalError, PointSet, ball_depths, edge_balls
from .oracle import WitnessCertificate


class PivotLimitError(InternalError):
    """The simplex solve exceeded its pivot budget (should not happen with
    Bland's rule; indicates conditioning trouble)."""


class TheoremViolationError(InternalError):
    """No feasible partition found although the size bound guarantees one."""


class ProofViolationError(InternalError):
    """A construction step that is guaranteed to succeed found no candidate."""


@dataclass(frozen=True)
class HalfSpace:
    """Points x with <x, normal> <= offset (the side containing the disk mate)."""

    normal: np.ndarray
    offset: float

    def contains(self, x, tol: float = 0.0) -> bool:
        return float(np.dot(x, self.normal)) <= self.offset + tol


@dataclass(frozen=True)
class TverbergPartition:
    """Parts with intersecting hulls, the common point, and per-part convex
    coefficients reconstructing it."""

    parts: tuple[tuple[int, ...], ...]
    common_point: np.ndarray
    barycentric_witnesses: tuple[np.ndarray, ...]

    @property
    def r(self) -> int:
        return len(self.parts)


def _phase_one_feasible(
    A: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL, max_pivots: Optional[int] = None
) -> Optional[np.ndarray]:
    """Solve A x = b, x >= 0 for feasibility with a dense phase-one tableau.

    Returns a feasible x or None.  Bland's rule (smallest eligible index)
    guarantees termination; a generous pivot cap guards against numerical
    cycling anyway.
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Tableau columns: n structural, m artificial, then the rhs.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    # Objective: minimize the sum of artificials; express in terms of nonbasics.
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()

    basis = list(range(n, n + m))
    if max_pivots is None:
        max_pivots = 200 + 20 * (m + n)

    for _ in range(max_pivots):
        # Bland: entering column = smallest index with a negative reduced cost.
        enter = -1
        for j in range(n + m):
            if T[m, j] < -tol:
                enter = j
                break
        if enter < 0:
            break
        ratios = []
        for i in range(m):
            if T[i, enter] > tol:
                ratios.append((T[i, -1] / T[i, enter], basis[i], i))
        if not ratios:
            raise PivotLimitError("phase-one objective unbounded (inconsistent tableau)")
        _, _, leave = min(ratios)
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    else:
        raise PivotLimitError(f"pivot cap {max_pivots} exceeded")

    # Feasible iff the artificials can be driven to (numerical) zero.  The
    # residual of a truly feasible basic solution is roundoff-sized; real
    # separations are macroscopic after normalization.
    if -T[m, -1] > max(100.0 * tol, 1e-7):
        return None
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, -1]
    return np.maximum(x, 0.0)


def hulls_common_point(
    points: PointSet, parts: Sequence[Sequence[int]], tol: float = DEFAULT_TOL
) -> Optional[tuple[np.ndarray, list[np.ndarray]]]:
    """A point in the convex hull of every part, with per-part coefficients.

    Feasibility of sum_i lam_i^j S_i = x, sum_i lam_i^j = 1, lam >= 0 for all
    parts j, solved by equating every part's combination to the first one.
    Coordinates are normalized first so the tolerance is scale-free.
    """
    parts = [tuple(part) for part in parts]
    if any(len(p) == 0 for p in parts):
        raise ValueError("parts must be nonempty")
    flat = [i for p in parts for i in p]
    if len(set(flat)) != len(flat):
        raise ValueError("parts must be disjoint")

    d = points.dim
    P = points.coords[flat]
    shift = P.mean(axis=0)
    scale = max(float(np.abs(P - shift).max()), 1.0)
    norm = {i: (points.point(i) - shift) / scale for i in flat}

    sizes = [len(p) for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    nvar = int(offsets[-1])
    r = len(parts)

    rows = []
    rhs = []
    for j in range(1, r):
        for k in range(d):
            row = np.zeros(nvar)
            for pos, i in enumerate(parts[0]):
                row[offsets[0] + pos] = norm[i][k]
            for pos, i in enumerate(parts[j]):
                row[offsets[j] + pos] = -norm[i][k]
            rows.append(row)
            rhs.append(0.0)
    for j in range(r):
        row = np.zeros(nvar)
        row[offsets[j] : offsets[j + 1]] = 1.0
        rows.append(row)
        rhs.append(1.0)

    x = _phase_one_feasible(np.array(rows), np.array(rhs), tol)
    if x is None:
        return None
    coeffs = []
    recons = []
    for j in range(r):
        lam = x[offsets[j] : offsets[j + 1]]
        total = lam.sum()
        lam = lam / total if total > 0 else lam
        coeffs.append(lam)
        recons.append(sum(c * points.point(i) for c, i in zip(lam, parts[j])))
    # Average the per-part reconstructions; their spread is the residual.
    common = np.mean(recons, axis=0)
    return common, coeffs


def _restricted_growth_partitions(m: int, r: int) -> Iterable[tuple[tuple[int, ...], ...]]:
    """All partitions of range(m) into exactly r nonempty blocks, in canonical
    restricted-growth-string order."""
    rgs = [0] * m

    def rec(i: int, used: int):
        if i == m:
            if used == r:
                blocks = [[] for _ in range(r)]
                for k, g in enumerate(rgs):
                    blocks[g].append(k)
                yield tuple(tuple(b) for b in blocks)
            return
        for g in range(min(used + 1, r)):
            new_used = used + 1 if g == used else used
            if r - new_used > m - i - 1:  # not enough slots left to open r blocks
                continue
            rgs[i] = g
            yield from rec(i + 1, new_used)

    if m >= 1 and r >= 1:
        yield from rec(1, 1)


def _bbox_prune(points: PointSet, parts) -> bool:
    """Necessary condition: the parts' bounding boxes share a point."""
    lo = None
    hi = None
    for part in parts:
        block = points.coords[list(part)]
        blo, bhi = block.min(axis=0), block.max(axis=0)
        lo = blo if lo is None else np.maximum(lo, blo)
        hi = bhi if hi is None else np.minimum(hi, bhi)
    return bool(np.all(lo <= hi))


def default_parts(n_points: int, dim: int) -> int:
    """Largest r for which a partition is guaranteed: floor((|S|-1)/(d+1)) + 1."""
    return (n_points - 1) // (dim + 1) + 1


def tverberg_partition(
    points: PointSet, r: int, tol: float = DEFAULT_TOL
) -> TverbergPartition:
    """First partition (canonical order) of S into r parts with intersecting
    hulls.  Exhaustive; capped at 12 points."""
    m = len(points)
    d = points.dim
    if r < 1:
        raise ValueError("r must be at least 1")
    if m < (r - 1) * (d + 1) + 1:
        raise ValueError(
            f"need at least (r-1)(d+1)+1 = {(r - 1) * (d + 1) + 1} points for r={r}, d={d}"
        )
    if m > 12:
        raise ValueError("exhaustive partition search is capped at 12 points")

    for parts in _restricted_growth_partitions(m, r):
        if not _bbox_prune(points, parts):
            continue
        hit = hulls_common_point(points, parts, tol)
        if hit is not None:
            common, coeffs = hit
            return TverbergPartition(
                parts=parts,
                common_point=common,
                barycentric_witnesses=tuple(np.array(c) for c in coeffs),
            )
    raise TheoremViolationError(
        f"no {r}-part partition with intersecting hulls found for {m} points in R^{d}"
    )


def half_space_toward(p: np.ndarray, q: np.ndarray) -> HalfSpace:
    """Half-space through p, on the far side from q: {x : <x-p, q-p> <= 0}.

    Any point y in it makes an angle of at least pi/2 with q at p, so the
    disk on segment qy contains p.
    """
    normal = q - p
    return HalfSpace(normal=normal, offset=float(np.dot(p, normal)))


def partition_covering_graph(
    points: PointSet,
    r: Optional[int] = None,
    partition: Optional[TverbergPartition] = None,
    tol: float = DEFAULT_TOL,
) -> tuple[GeoGraph, TverbergPartition, WitnessCertificate]:
    """Tverberg graph in which every vertex is adjacent to every part.

    For each vertex q and part j, picks the part member deepest inside the
    half-space through the common point p away from q; the edge's diametral
    ball then contains p.  When q coincides with p the half-space degenerates
    and any member works (the ball contains its endpoint p); a singleton part
    equal to {q} is skipped since self-loops are meaningless.
    """
    m = len(points)
    if partition is None:
        if r is None:
            r = default_parts(m, points.dim)
        partition = tverberg_partition(points, r, tol)
    p = partition.common_point

    # The half-space argument degrades gracefully with the reconstruction
    # residual of the common point; widen the eligibility band accordingly.
    dev = 0.0
    for part, lam in zip(partition.parts, partition.barycentric_witnesses):
        recon = sum(c * points.point(i) for c, i in zip(lam, part))
        dev = max(dev, float(np.linalg.norm(recon - p)))
    band = max(tol, 2.0 * dev)

    edges = set()
    for q_idx in range(m):
        q = points.point(q_idx)
        gap = q - p
        gap_norm = float(np.linalg.norm(gap))
        for part in partition.parts:
            if gap_norm <= band:
                members = [i for i in part if i != q_idx]
                if not members:
                    continue  # singleton part at the common point itself
                pick = members[0]
            else:
                unit = gap / gap_norm
                depths = [(float(np.dot(points.point(i) - p, unit)), i) for i in part]
                eligible = [(dep, i) for dep, i in depths if dep <= band and i != q_idx]
                if not eligible:
                    raise ProofViolationError(
                        f"part {part} misses the half-space opposite vertex {q_idx}"
                    )
                pick = min(eligible)[1]
            edges.add((q_idx, pick) if q_idx < pick else (pick, q_idx))

    graph = GeoGraph(m, tuple(sorted(edges)))
    depths = ball_depths(*edge_balls(points.coords, graph.edges), p)
    if depths.min() < -max(tol, 2.0 * band):
        raise ProofViolationError(
            f"common point left a constructed edge disk (depth {depths.min():.3e})"
        )
    cert = WitnessCertificate(
        witness=np.array(p),
        per_edge_margin=tuple((tuple(edge), float(dep)) for edge, dep in zip(graph.edges, depths)),
    )
    return graph, partition, cert


def covers_all_parts(graph: GeoGraph, partition: TverbergPartition, points: PointSet,
                     tol: float = DEFAULT_TOL) -> bool:
    """Every vertex has a neighbor in every part (the degenerate singleton
    part sitting exactly at the common point is exempt for its own member)."""
    adj = {v: set() for v in range(graph.n_vertices)}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    p = partition.common_point
    for q in range(graph.n_vertices):
        at_common = float(np.linalg.norm(points.point(q) - p)) <= tol
        for part in partition.parts:
            if adj[q] & set(part):
                continue
            if at_common and part == (q,):
                continue
            return False
    return True


def min_degree_check(graph: GeoGraph, points: PointSet, dim: Optional[int] = None) -> bool:
    """True iff the minimum degree meets the bound |S|/(d+1)."""
    d = dim if dim is not None else points.dim
    bound = len(points) / (d + 1)
    return bool(graph.degrees().min() >= bound)
