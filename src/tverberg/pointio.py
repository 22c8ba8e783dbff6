"""Point-file parsing and formatting, plus seeded point-set generators.

File format: one point per line, whitespace-separated decimal coordinates.
Lines starting with '#' are comments; a leading "# d=K" comment declares the
dimension.  Coordinates are written with 17 significant digits so files
round-trip doubles exactly.
"""

from __future__ import annotations

import math
import re
from typing import Optional

import numpy as np

from .geometry import PointSet

_DIM_RE = re.compile(r"#\s*d\s*=\s*(\d+)\s*$")


class PointParseError(ValueError):
    """Malformed point file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_points(text: str) -> PointSet:
    """Parse a point file into a PointSet.

    Raises PointParseError on ragged rows, non-numeric tokens, non-finite
    values, or duplicate points.
    """
    declared: Optional[int] = None
    rows: list[list[float]] = []
    seen: dict[tuple, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _DIM_RE.match(line)
            if m and declared is None and not rows:
                declared = int(m.group(1))
            continue
        tokens = line.split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise PointParseError(line_no, f"non-numeric token in {line!r}")
        if any(not math.isfinite(v) for v in values):
            raise PointParseError(line_no, "coordinates must be finite")
        want = declared if declared is not None else (len(rows[0]) if rows else len(values))
        if len(values) != want:
            raise PointParseError(
                line_no, f"expected {want} coordinates, got {len(values)}"
            )
        key = tuple(values)
        if key in seen:
            raise PointParseError(
                line_no, f"duplicate point (first seen on line {seen[key]})"
            )
        seen[key] = line_no
        rows.append(values)
    if not rows:
        raise PointParseError(0, "no points in input")
    return PointSet(np.array(rows))


def format_points(points: PointSet) -> str:
    """Serialize a PointSet; parse_points(format_points(S)) reproduces S."""
    lines = [f"# d={points.dim}"]
    for p in points.coords:
        lines.append(" ".join(f"{v:.17g}" for v in p))
    return "\n".join(lines) + "\n"


_KINDS = ("uniform", "convex", "grid_perturbed")


def generate(
    kind: str,
    m: int,
    seed: int = 0,
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
) -> PointSet:
    """Deterministic planar point-set generator.

    uniform: i.i.d. in the box.  convex: strictly convex position on a
    jittered circle, affinely mapped to the box.  grid_perturbed: jittered
    grid cells.  Every kind is in general position with probability 1; this
    is not checked (``check_general_position`` does it on request).
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if m < 2:
        raise ValueError("m must be at least 2")
    x0, y0, x1, y1 = bbox
    if not (x1 > x0 and y1 > y0):
        raise ValueError("bbox must have positive width and height")
    rng = np.random.default_rng(seed)

    if kind == "uniform":
        pts = rng.uniform((x0, y0), (x1, y1), size=(m, 2))
    elif kind == "convex":
        pts = _convex_points(m, rng, bbox)
    else:
        k = math.isqrt(m - 1) + 1
        if k * k > 65536:
            raise ValueError(f"m={m} too large for a grid in this bbox")
        w, h = (x1 - x0) / k, (y1 - y0) / k
        cells = [(i, j) for j in range(k) for i in range(k)][:m]
        jitter = rng.uniform(-0.25, 0.25, size=(m, 2))
        pts = np.array(
            [
                (x0 + (i + 0.5 + jx) * w, y0 + (j + 0.5 + jy) * h)
                for (i, j), (jx, jy) in zip(cells, jitter)
            ]
        )

    return PointSet(pts)


def _strictly_convex(P: np.ndarray) -> bool:
    m = len(P)
    c = P.mean(axis=0)
    order = np.argsort(np.arctan2(P[:, 1] - c[1], P[:, 0] - c[0]))
    Q = P[order]
    cross = []
    for i in range(m):
        a, b, cc = Q[i], Q[(i + 1) % m], Q[(i + 2) % m]
        cross.append((b[0] - a[0]) * (cc[1] - a[1]) - (b[1] - a[1]) * (cc[0] - a[0]))
    cross = np.array(cross)
    return bool(np.all(cross > 0) or np.all(cross < 0))


def _convex_points(m: int, rng: np.random.Generator, bbox) -> np.ndarray:
    """Rejection-sample a jittered circle; after 64 rejections, fall back to
    the unit circle at stratified angles 2*pi*(k + u_k)/m with u_k in
    [0, 1/2), whose gaps are at least pi/m by construction."""
    x0, y0, x1, y1 = bbox
    for _ in range(64):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=m))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * math.pi]]))
        if gaps.min() < math.pi / (8.0 * m):
            continue
        radii = 1.0 + 0.08 * rng.uniform(-1.0, 1.0, size=m)
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        if _strictly_convex(pts):
            break
    else:
        angles = 2.0 * math.pi * (np.arange(m) + 0.5 * rng.uniform(size=m)) / m
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    pts = (pts - lo) / span
    return pts * (x1 - x0, y1 - y0) + (x0, y0)
