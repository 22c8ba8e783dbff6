import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tverberg
from tverberg.cli import cli_main
from tverberg.cycles import GeoGraph, geo_graph
from tverberg.geometry import Ball, ball_depths, edge_balls, in_diametral_ball, point_set
from tverberg.oracle import (
    _candidate_minimax,
    _disk_minimax,
    _edge_angles,
    _hamiltonian_sequences,
    disks_common_point,
    enumerate_hamiltonian,
    is_tverberg_graph,
    lens_family_common_point,
    matching_common_point,
)
from tverberg.pointio import format_points, generate
from tverberg.solver import solve

SQUARE = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])


def ball(cx, cy, r):
    return Ball(center=np.array([cx, cy], dtype=float), radius=r)


def cycle_graph(m, seq):
    return geo_graph(m, [tuple(sorted((seq[i], seq[(i + 1) % len(seq)]))) for i in range(len(seq))])


class TestDisksCommonPoint:
    def test_single_ball(self):
        cert = disks_common_point([ball(0, 0, 2)])
        assert cert is not None
        assert np.allclose(cert.witness, (0, 0))
        assert cert.min_margin() == pytest.approx(2.0)

    def test_right_triangle_side_disks(self):
        # Sides of the right isoceles triangle (0,0),(2,0),(0,2); the foot of
        # the altitude from the right angle, (1,1), lies in all three disks.
        balls = [
            ball(1, 0, 1.0),
            ball(0, 1, 1.0),
            ball(1, 1, math.sqrt(2)),
        ]
        foot = np.array([1.0, 1.0])
        for b in balls:
            assert b.signed_depth(foot) >= -1e-12
        cert = disks_common_point(balls)
        assert cert is not None
        assert cert.min_margin() >= -1e-9

    def test_disjoint_absent(self):
        assert disks_common_point([ball(0, 0, 1), ball(10, 0, 1)]) is None

    def test_requires_balls(self):
        with pytest.raises(ValueError):
            disks_common_point([])

    def test_witness_is_deepest_point(self, rng):
        # The candidate method must match a fine grid search on the minimax.
        for trial in range(10):
            g = np.random.default_rng(trial)
            centers = g.uniform(0, 1, size=(4, 2))
            radii = g.uniform(0.3, 0.8, size=4)
            balls = [ball(c[0], c[1], r) for c, r in zip(centers, radii)]
            cert = disks_common_point(balls)
            xs, ys = np.meshgrid(np.linspace(-0.5, 1.5, 201), np.linspace(-0.5, 1.5, 201))
            grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
            vals = np.max(
                np.linalg.norm(grid[:, None, :] - centers[None], axis=2) - radii[None],
                axis=1,
            )
            grid_best = vals.min()
            if cert is None:
                # Grid may found nothing either (up to resolution).
                assert grid_best > -1e-2
            else:
                witness_val = max(
                    np.linalg.norm(cert.witness - centers[k]) - radii[k] for k in range(4)
                )
                assert witness_val <= grid_best + 1e-6


def _points(kind, g, m):
    if kind == "uniform":
        return g.uniform(size=(m, 2))
    if kind == "gaussian":
        return g.standard_normal(size=(m, 2))
    if kind == "clustered":
        hubs = g.uniform(-1.0, 1.0, size=(3, 2))
        return hubs[g.integers(0, 3, size=m)] + 0.05 * g.standard_normal(size=(m, 2))
    t = g.uniform(0.0, 2.0 * math.pi, size=m)
    return np.stack([2.0 * np.cos(t), np.sin(t)], axis=1)  # convex


def _star_edges(P):
    # Each point joined to the two halfway around the radial order about the
    # centroid, as solve's cycles are.
    m = len(P)
    d = P - P.mean(axis=0)
    order = np.argsort(np.arctan2(d[:, 1], d[:, 0]))
    return [(order[i], order[(i + (m - 1) // 2) % m]) for i in range(m)]


def _tight_families(E, scale, g):
    """Families whose every ball is tight (or within 1e-12 of it) at the
    deepest point."""
    t = np.sort(g.uniform(0.0, 2.0 * math.pi, size=E))
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    through = ring * g.uniform(0.5, 2.0, size=E)[:, None]
    jitter = 1.0 + 1e-12 * g.standard_normal(size=E)
    return [
        (ring * scale, np.full(E, scale)),  # equal disks centred on a circle
        (through * scale, np.linalg.norm(through, axis=1) * scale),  # through 0
        (ring * scale, scale * jitter),
    ]


class TestDiskMinimaxActiveSet:
    """The active-set decision against the full candidate scan."""

    @staticmethod
    def _agree(centers, radii, tol=1e-9):
        q, val = _disk_minimax(centers, radii)
        q_full, val_full = _candidate_minimax(centers, radii)
        bound = 1e-12 * max(1.0, float(np.abs(centers).max()))
        assert (val <= tol) == (val_full <= tol)
        assert abs(val - val_full) <= bound
        assert np.abs(q - q_full).max() <= bound
        # The value is the family's own maximum at the returned point.
        assert val == pytest.approx(-ball_depths(centers, radii, q).min(), abs=bound)

    def test_matches_full_scan_on_random_families(self):
        # The kinds rotate over E: the full scan is O(E^4) per family.
        kinds = ("uniform", "gaussian", "clustered", "convex")
        for E in range(1, 61):
            g = np.random.default_rng(7000 + E)
            m = max(3, math.ceil(math.sqrt(2 * E)) + 1)
            P = _points(kinds[E % 4], g, m)
            pairs = list(itertools.combinations(range(m), 2))
            picks = g.choice(len(pairs), size=E, replace=False)
            self._agree(*edge_balls(P, [pairs[k] for k in picks]))
            if E >= 3 and E % 2 == 1:
                P = _points(kinds[(E // 2) % 4], g, E)
                self._agree(*edge_balls(P, _star_edges(P)))

    def test_matches_full_scan_on_special_families(self):
        g = np.random.default_rng(71)
        self._agree(np.array([[0.3, -2.0]]), np.array([0.7]))
        self._agree(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 0.2]))
        self._agree(np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([1.0, 1.0]))
        c, r = g.uniform(size=(6, 2)), g.uniform(0.3, 0.6, size=6)
        self._agree(np.concatenate([c, c, c[:2]]), np.concatenate([r, r, r[:2]]))
        self._agree(np.tile([[0.2, 0.4]], (5, 1)), np.full(5, 0.5))
        line = np.stack([np.linspace(-1.0, 1.0, 9), 0.5 * np.linspace(-1.0, 1.0, 9)], axis=1)
        self._agree(line, g.uniform(0.1, 1.5, size=9))
        for E in (3, 8, 25):
            for scale in (1e-6, 1.0, 1e6):
                for centers, radii in _tight_families(E, scale, g):
                    self._agree(centers, radii)
        for decide in (_disk_minimax, _candidate_minimax):
            with pytest.raises(ValueError):
                decide(np.empty((0, 2)), np.empty(0))


class TestIsTverbergGraph:
    def test_triangle_present(self):
        S = point_set([(0, 0), (2.1, 0), (0.9, 1.7)])
        cert = is_tverberg_graph(S, cycle_graph(3, (0, 1, 2)))
        assert cert is not None
        for (a, b), _ in cert.per_edge_margin:
            assert in_diametral_ball(cert.witness, S.point(a), S.point(b)).covered()

    def test_square_boundary_cycle(self):
        # The four side-disks of the unit square meet exactly at the center.
        cert = is_tverberg_graph(SQUARE, cycle_graph(4, (0, 1, 2, 3)))
        assert cert is not None
        assert np.allclose(cert.witness, (0.5, 0.5), atol=1e-9)
        assert cert.min_margin() == pytest.approx(0.0, abs=1e-12)

    def test_solved_thousand_point_cycle(self, tmp_path):
        # The full candidate scan needed every triple of the 1001 balls
        # (gigabytes); the active set keeps the call small.
        S = point_set(np.random.default_rng(1001).uniform(size=(1001, 2)))
        graph = solve(S, seed=0).graph
        tracemalloc.start()
        try:
            cert = is_tverberg_graph(S, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert is not None
        centers, radii = edge_balls(S.coords, graph.edges)
        assert ball_depths(centers, radii, cert.witness).min() >= -1e-9
        assert peak < 32 * 2**20
        path = tmp_path / "pts.txt"
        path.write_text(format_points(S))
        edges = ",".join(f"{a}-{b}" for a, b in graph.edges)
        assert cli_main(["verify", str(path), "--edges", edges]) == 0

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            is_tverberg_graph(SQUARE, GeoGraph(4, ()))

    def test_non_tverberg_cycle_absent(self):
        S = generate("uniform", 7, seed=11)
        report = enumerate_hamiltonian(S, "cycles")
        good = {g.edge_set() for g, _ in report.tverberg_cycles}
        bad = None
        for seq in _hamiltonian_sequences(7, "cycles"):
            g = cycle_graph(7, seq)
            if g.edge_set() not in good:
                bad = g
                break
        assert bad is not None
        assert is_tverberg_graph(S, bad) is None

    def test_three_dimensional_matching(self):
        S = point_set([(0, 0, 0), (1, 0, 0), (0.5, 1, 0.2), (0.5, -1, -0.2)])
        m = geo_graph(4, [(0, 1), (2, 3)])
        cert = matching_common_point(S, m)
        assert cert is not None
        assert cert.min_margin() >= -1e-9


class TestMatching:
    def test_two_points_midpoint(self):
        S = point_set([(0, 0), (2, 4)])
        cert = matching_common_point(S, geo_graph(2, [(0, 1)]))
        assert np.allclose(cert.witness, (1, 2))
        assert cert.min_margin() == pytest.approx(math.sqrt(5))

    def test_rejects_non_matching(self):
        S = point_set([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError, match="matching"):
            matching_common_point(S, geo_graph(4, [(0, 1), (1, 2)]))

    def test_some_matching_of_six_points(self, rng):
        S = point_set(rng.uniform(size=(6, 2)))
        found = 0
        for perm in itertools.permutations(range(6)):
            if perm[0] != 0 or perm[1] > perm[3] or perm[3] > perm[5]:
                continue  # canonical matchings only (15 of them)
            g = geo_graph(6, [(perm[0], perm[1]), (perm[2], perm[3]), (perm[4], perm[5])])
            if matching_common_point(S, g) is not None:
                found += 1
        assert found >= 1


class TestLensFamily:
    def test_square_cycles_absent_above_right_angle(self):
        alpha = math.pi / 2 + 0.01
        for seq in _hamiltonian_sequences(4, "cycles"):
            cert = lens_family_common_point(SQUARE, cycle_graph(4, seq), alpha)
            assert cert is None

    def test_square_at_right_angle_present(self):
        cert = lens_family_common_point(SQUARE, cycle_graph(4, (0, 1, 2, 3)), math.pi / 2)
        assert cert is not None
        assert np.allclose(cert.witness, (0.5, 0.5), atol=1e-5)

    def test_square_verdicts_scale_free(self):
        # At 1e-170, |u|*|v| underflows to 0; read as "q is an endpoint", it
        # would cover every edge.
        for scale in (1.0, 1e-150, 1e-170):
            S = point_set(SQUARE.coords * scale)
            for seq in _hamiltonian_sequences(4, "cycles"):
                cycle = cycle_graph(4, seq)
                assert lens_family_common_point(S, cycle, math.pi / 2 + 0.01) is None
                cert = lens_family_common_point(S, cycle, math.pi / 2)
                assert cert is not None
                assert np.allclose(cert.witness / scale, (0.5, 0.5), atol=1e-5)
            q, x, y = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]]) * scale
            angle = _edge_angles(q[None], x[None], y[None])[0, 0]
            assert angle == pytest.approx(math.pi / 2)

    def test_convex_heptagon_two_thirds_present(self):
        from tverberg.solver import convex_position_cycle

        S = generate("convex", 7, seed=4)
        result = convex_position_cycle(S)
        cert = lens_family_common_point(S, result.graph, 2 * math.pi / 3, tol=1e-7)
        assert cert is not None

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            lens_family_common_point(SQUARE, cycle_graph(4, (0, 1, 2, 3)), math.pi)

    def test_graph_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            lens_family_common_point(SQUARE, cycle_graph(3, (0, 1, 2)), math.pi / 2)

    def test_matches_grid_sweep(self):
        # Independent cross-check: a dense grid of max_e(alpha - angle_e), with
        # angles by atan2, plus the input points (where the endpoint
        # convention makes the objective jump).  Whenever that sweep finds a
        # point of the family, the exact oracle must report one whose value
        # is no worse than 0 (the lowest point lies on a lens boundary).
        for m in range(4, 8):
            for seed in range(30):
                g = np.random.default_rng(1000 * m + seed)
                S = point_set(g.uniform(size=(m, 2)))
                graph = cycle_graph(m, [0] + list(1 + g.permutation(m - 1)))
                for alpha in (float(g.uniform(0.0, math.pi)), math.pi / 2):
                    self._check_against_grid(S, graph, alpha)
        # A triangle whose angle theta at x exceeds alpha > 2pi/3 pinches its
        # family to the input point x: the lens corners at x meet only there.
        for seed in range(10):
            g = np.random.default_rng(seed)
            phi, theta = g.uniform(0.0, 2.0 * math.pi), g.uniform(2.2, 3.0)
            r1, r2 = g.uniform(0.5, 1.5, size=2)
            S = point_set(
                [
                    (0.0, 0.0),
                    (r1 * math.cos(phi), r1 * math.sin(phi)),
                    (r2 * math.cos(phi + theta), r2 * math.sin(phi + theta)),
                ]
            )
            alpha = float(g.uniform(2.0 * math.pi / 3.0, theta))
            self._check_against_grid(S, cycle_graph(3, (0, 1, 2)), alpha)

    @staticmethod
    def _check_against_grid(S, graph, alpha, tol=1e-9, n=161):
        P = S.coords
        e = np.array(graph.edges)
        xs, ys = P[e[:, 0]], P[e[:, 1]]
        # The family lies in every lens, so in the box around the two lens
        # disks of each edge.
        d = ys - xs
        mid = (xs + ys) / 2.0
        reach = np.abs(np.stack([-d[:, 1], d[:, 0]], axis=1)) * abs(0.5 / math.tan(alpha))
        reach += (np.linalg.norm(d, axis=1) / (2.0 * math.sin(alpha)))[:, None]
        lo, hi = (mid - reach).max(axis=0), (mid + reach).min(axis=0)
        sweep = [P]
        if np.all(lo <= hi):
            gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n))
            sweep.append(np.stack([gx.ravel(), gy.ravel()], axis=1))
        q = np.concatenate(sweep)
        u = xs[None] - q[:, None]
        v = ys[None] - q[:, None]
        ang = np.arctan2(np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]), (u * v).sum(axis=2))
        at_end = np.all(u == 0.0, axis=2) | np.all(v == 0.0, axis=2)
        grid_min = (alpha - np.where(at_end, math.pi, ang)).max(axis=1).min()

        cert = lens_family_common_point(S, graph, alpha, tol)
        if cert is not None:
            assert cert.min_margin() >= -tol
        if grid_min <= 0.0:
            assert cert is not None, f"grid found {grid_min:.3g} at alpha={alpha}"
            assert -cert.min_margin() <= 1e-12

    def test_decides_without_scipy(self):
        script = (
            "import math, sys\n"
            "sys.modules['scipy'] = None\n"
            "import tverberg as tv, tverberg.cli\n"
            "from tverberg.cycles import geo_graph\n"
            "sq = tv.point_set([(0, 0), (1, 0), (1, 1), (0, 1)])\n"
            "sqc = tv.point_set([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])\n"
            "side = geo_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])\n"
            "star = geo_graph(5, [(0, 1), (1, 4), (2, 4), (2, 3), (0, 3)])\n"
            "print(tv.lens_family_common_point(sq, side, math.pi / 2) is not None,\n"
            "      tv.lens_family_common_point(sqc, star, math.pi / 2 + 0.01) is None)\n"
        )
        src = pathlib.Path(tverberg.__file__).parents[1]
        out = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "True"]


class TestEnumeration:
    def test_three_points(self):
        S = point_set([(0, 0), (1.1, 0.1), (0.4, 0.9)])
        report = enumerate_hamiltonian(S, "cycles")
        assert report.total_cycles == 1
        assert len(report.tverberg_cycles) == 1
        assert not report.counterexample

    def test_five_point_counts(self):
        S = generate("uniform", 5, seed=1)
        report = enumerate_hamiltonian(S, "cycles")
        assert report.total_cycles == 12
        assert len(report.tverberg_cycles) >= 1

    def test_four_points_cycles(self):
        S = generate("uniform", 4, seed=2)
        report = enumerate_hamiltonian(S, "cycles")
        assert report.total_cycles == 3
        assert len(report.tverberg_cycles) >= 1

    def test_path_counts(self):
        S = generate("uniform", 4, seed=3)
        report = enumerate_hamiltonian(S, "paths")
        assert report.total_cycles == 12  # 4!/2
        assert len(report.tverberg_cycles) >= 1

    def test_two_point_paths(self):
        S = point_set([(0, 0), (1, 0)])
        report = enumerate_hamiltonian(S, "paths")
        assert report.total_cycles == 1
        assert len(report.tverberg_cycles) == 1

    def test_reported_cycles_reverify(self):
        S = generate("uniform", 6, seed=9)
        report = enumerate_hamiltonian(S, "cycles")
        assert len(report.tverberg_cycles) <= report.total_cycles
        for graph, cert in report.tverberg_cycles:
            again = is_tverberg_graph(S, graph)
            assert again is not None
            assert cert.min_margin() >= -1e-9

    def test_matches_direct_decision(self):
        S = generate("uniform", 6, seed=21)
        report = enumerate_hamiltonian(S, "cycles")
        good = {g.edge_set() for g, _ in report.tverberg_cycles}
        for seq in _hamiltonian_sequences(6, "cycles"):
            g = cycle_graph(6, seq)
            assert (is_tverberg_graph(S, g) is not None) == (g.edge_set() in good)

    def test_caps(self):
        S = generate("uniform", 10, seed=0)
        with pytest.raises(ValueError):
            enumerate_hamiltonian(S, "cycles")
        with pytest.raises(ValueError):
            enumerate_hamiltonian(point_set([(0, 0), (1, 1)]), "cycles")

    def test_helly_triple_consistency(self, rng):
        # Planar family has a common point iff every triple does.
        for trial in range(40):
            g = np.random.default_rng(trial + 100)
            k = int(g.integers(3, 8))
            centers = g.uniform(0, 1, size=(k, 2))
            radii = g.uniform(0.25, 0.7, size=k)
            balls = [ball(c[0], c[1], r) for c, r in zip(centers, radii)]
            whole = disks_common_point(balls) is not None
            triples = all(
                disks_common_point([balls[a], balls[b], balls[c]]) is not None
                for a, b, c in itertools.combinations(range(k), 3)
            )
            assert whole == triples
