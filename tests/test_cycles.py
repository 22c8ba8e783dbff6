import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import tverberg
from tverberg.cycles import (
    Arc,
    BrokenCycleError,
    CycleKind,
    GeoGraph,
    RadialDegeneracyError,
    RepresentativeDegeneracyError,
    ShortArcStructureError,
    _assert_short_arc_structure,
    arcs_common_intersection,
    geo_graph,
    minor_arc,
    radial_order,
    type1_cycle,
    type2_cycle,
    violation_profile,
)
from tverberg.geometry import angle_at, point_set
from tverberg.pointio import generate


def regular_polygon(m, radius=1.0, phase=math.pi / 2):
    return point_set(
        [
            (radius * math.cos(phase + 2 * math.pi * k / m),
             radius * math.sin(phase + 2 * math.pi * k / m))
            for k in range(m)
        ]
    )


def dir_at(deg):
    return np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])


def _random_plan(seed, m, kind):
    """A random planar set and a plan around a center chosen so pairs violate."""
    g = np.random.default_rng([seed, m])
    S = point_set(g.uniform(size=(m, 2)))
    if kind is CycleKind.TYPE_I:
        p = g.uniform(0.05, 0.5, size=2)  # off-center
        return S, type1_cycle(S, p)
    k = int(np.argmin(S.coords.sum(axis=1)))  # a hull vertex
    vecs = np.delete(S.coords, k, axis=0) - S.point(k)
    hi, lo = np.sort(np.arctan2(vecs[:, 1], vecs[:, 0]))[::-1][:2]
    mid = (hi + lo) / 2
    return S, type2_cycle(S, k, (math.cos(mid), math.sin(mid)))


def _check_profile_against_scalar(S, plan, threshold):
    """Compare violation_profile with scalar angle_at / atan2 arithmetic;
    returns the number of violated pairs."""
    profile = violation_profile(plan, threshold=threshold)
    p = plan.center
    labels = plan.order.labels
    m = len(labels)
    n = (m - 1) // 2
    ell, f, slots, ends = 0, 0.0, [], []
    for i in range(m):
        j = (i + n) % m
        if plan.kind is CycleKind.TYPE_II and m - 1 in (i, j):
            continue
        a, b = labels[i], labels[j]
        theta = angle_at(p, S.point(a), S.point(b))
        if theta < threshold - 1e-9:
            ell += 1
            f += theta
            slots.append((i, j))
            ta, tb = (math.atan2(*(S.point(k) - p)[::-1]) for k in (a, b))
            # The arc starts at whichever endpoint comes first clockwise.
            ends.append((ta, tb) if (ta - tb) % (2 * math.pi) <= math.pi else (tb, ta))
    assert profile.ell == ell
    assert profile.f == pytest.approx(f, rel=1e-12)
    assert profile.violated_slots == tuple(slots)
    for arc, (start, end) in zip(profile.short_arcs, ends):
        assert np.allclose(arc.start_dir, (math.cos(start), math.sin(start)), atol=1e-12)
        assert np.allclose(arc.end_dir, (math.cos(end), math.sin(end)), atol=1e-12)
    return ell


def _doctored_structure_check():
    """Run the short-arc check on a real profile whose only arc is cut to
    1e-6 rad, so it spans one label instead of at least n + 1."""
    plan = type1_cycle(point_set(np.random.default_rng(3).uniform(size=(7, 2))), (0.1, 0.1))
    profile = violation_profile(plan)
    arc = profile.short_arcs[0]
    narrow = Arc(center=arc.center, start=arc.start, width=1e-6)
    _assert_short_arc_structure(plan, dataclasses.replace(profile, short_arcs=(narrow,)))


class TestGeoGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            geo_graph(3, [(0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            geo_graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            geo_graph(3, [(0, 3)])

    def test_degrees(self):
        g = geo_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert list(g.degrees()) == [2, 2, 2, 2]


class TestRadialOrder:
    def test_square_clockwise(self):
        S = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])
        order = radial_order(S, (0.5, 0.5))
        # Clockwise from the entry with the largest atan2 angle (corner 3
        # at 135 degrees), then 45, -45, -135.
        assert order.labels == (3, 2, 1, 0)

    def test_matches_atan2_descending(self, rng):
        S = point_set(rng.uniform(size=(7, 2)))
        p = S.centroid()
        order = radial_order(S, p)
        angles = np.arctan2(*(S.coords - p).T[::-1])
        expected = tuple(np.argsort(-angles))
        assert order.labels == expected

    def test_pentagon_plus_center_synthetic_last(self):
        S5 = regular_polygon(5)
        coords = np.vstack([S5.coords, [0.0, 0.0]])
        S = point_set(coords)
        order = radial_order(S, (0.0, 0.0), rep_dir=(1.0, 0.0))
        assert len(order) == 6
        assert order.labels[-1] == 5  # the center itself, represented by (1,0)
        assert np.allclose(order.representative_dir, (1.0, 0.0))
        # The five real points stay clockwise.
        real = [l for l in order.labels if l != 5]
        angles = np.arctan2(*(S5.coords).T[::-1])
        clockwise = list(np.argsort(-angles))
        k = clockwise.index(real[0])
        assert real == clockwise[k:] + clockwise[:k]

    def test_tie_raises(self):
        S = point_set([(1, 0), (2, 0), (0, 1)])
        with pytest.raises(RadialDegeneracyError):
            radial_order(S, (0.0, 0.0))

    def test_rep_required_iff_center_in_set(self):
        S = point_set([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            radial_order(S, (0, 0))  # center in S, rep missing
        with pytest.raises(ValueError):
            radial_order(S, (0.4, 0.4), rep_dir=(1, 0))  # rep given, center not in S

    def test_rep_collision_raises(self):
        S = point_set([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(RepresentativeDegeneracyError):
            radial_order(S, (0, 0), rep_dir=(1, 0))


class TestTypeOneCycle:
    def test_pentagon_gives_pentagram(self):
        S = regular_polygon(5)
        plan = type1_cycle(S, (0.0, 0.0))
        expected = {tuple(sorted((i, (i + 2) % 5))) for i in range(5)}
        assert plan.cycle.edge_set() == frozenset(expected)
        assert plan.kind is CycleKind.TYPE_I

    def test_three_points_triangle(self):
        S = point_set([(0, 0), (2, 0), (1, 1.4)])
        plan = type1_cycle(S, (1.0, 0.5))
        assert plan.cycle.edge_set() == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_matches_definition_on_random_set(self, rng):
        S = point_set(rng.uniform(size=(7, 2)))
        p = S.centroid()
        plan = type1_cycle(S, p)
        # Independent reconstruction: sort by descending atan2, join i to i+n.
        angles = np.arctan2(*(S.coords - p).T[::-1])
        labels = list(np.argsort(-angles))
        n = 3
        expected = {
            tuple(sorted((labels[i], labels[(i + n) % 7]))) for i in range(7)
        }
        assert plan.cycle.edge_set() == frozenset(expected)

    def test_rotation_invariance_of_definition(self, rng):
        # Joining i to i+n and i+n+1 yields the same edges for every choice
        # of starting label.
        S = point_set(rng.uniform(size=(9, 2)))
        p = S.centroid()
        plan = type1_cycle(S, p)
        labels = list(plan.order.labels)
        m, n = 9, 4
        for shift in range(m):
            rolled = labels[shift:] + labels[:shift]
            edges = set()
            for i in range(m):
                edges.add(tuple(sorted((rolled[i], rolled[(i + n) % m]))))
                edges.add(tuple(sorted((rolled[i], rolled[(i + n + 1) % m]))))
            assert frozenset(edges) == plan.cycle.edge_set()

    def test_even_count_rejected(self):
        S = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError):
            type1_cycle(S, (0.5, 0.5))

    def test_single_cycle_validation(self):
        with pytest.raises(BrokenCycleError):
            from tverberg.cycles import _assert_single_cycle

            _assert_single_cycle(geo_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


class TestTypeTwoCycle:
    def test_three_points_any_rep_is_triangle(self):
        S = point_set([(0, 0), (2, 0), (1, 1.4)])
        for deg in (10, 100, 200, 300):
            plan = type2_cycle(S, 0, dir_at(deg))
            assert plan.cycle.edge_set() == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_square_plus_center_matches_hand_arithmetic(self):
        # Corners 0..3, center 4.  Representative bisects the gap between the
        # projections of corners 2 (at 135 deg) and 1 (at 45 deg).
        S = point_set([(1, -1), (1, 1), (-1, 1), (-1, -1), (0, 0)])
        plan = type2_cycle(S, 4, dir_at(90))
        # Clockwise order starting after the synthetic: 1(45), 0(-45),
        # 3(-135), 2(135), then the synthetic slot (center).
        assert plan.order.labels == (1, 0, 3, 2, 4)
        # Edges join slot i to slot i+2 (mod 5) on the label sequence.
        labels = plan.order.labels
        expected = {tuple(sorted((labels[i], labels[(i + 2) % 5]))) for i in range(5)}
        assert plan.cycle.edge_set() == frozenset(expected)

    def test_same_gap_same_cycle(self, rng):
        S = point_set(rng.uniform(size=(7, 2)))
        # Two representatives inside one angular gap give identical cycles.
        vecs = S.coords[1:] - S.coords[0]
        angles = np.sort(np.arctan2(vecs[:, 1], vecs[:, 0]))[::-1]
        hi, lo = angles[0], angles[1]
        r1 = hi - 0.25 * (hi - lo)
        r2 = hi - 0.75 * (hi - lo)
        p1 = type2_cycle(S, 0, (math.cos(r1), math.sin(r1)))
        p2 = type2_cycle(S, 0, (math.cos(r2), math.sin(r2)))
        assert p1.cycle.edge_set() == p2.cycle.edge_set()

    def test_cycle_covers_all_points(self):
        S = point_set([(1, -1), (1, 1), (-1, 1), (-1, -1), (0, 0)])
        plan = type2_cycle(S, 4, dir_at(90))
        assert sorted(plan.cycle.degrees()) == [2, 2, 2, 2, 2]


class TestViolationProfile:
    def test_pentagon_center_clean(self):
        S = regular_polygon(5)
        plan = type1_cycle(S, (0.0, 0.0))
        profile = violation_profile(plan)
        assert profile.ell == 0
        assert profile.f == 0.0
        assert profile.short_arcs == ()

    def test_zero_ell_zero_f_generic(self, rng):
        for seed in range(5):
            S = point_set(np.random.default_rng(seed).uniform(size=(5, 2)))
            plan = type1_cycle(S, S.centroid())
            profile = violation_profile(plan)
            if profile.ell == 0:
                assert profile.f == 0.0

    def test_matches_brute_enumeration(self):
        # Type I and II plans, small to large m, the right-angle bar and the
        # raised bar of the solver's polish phase.
        for seed, m, kind, threshold in itertools.product(
            (0, 1, 2),
            (5, 7, 21, 101),
            (CycleKind.TYPE_I, CycleKind.TYPE_II),
            (math.pi / 2, math.pi / 2 + 1e-6),
        ):
            S, plan = _random_plan(seed, m, kind)
            assert _check_profile_against_scalar(S, plan, threshold) > 0
        # A pair at pi/2 + 5e-7 passes the right-angle bar and fails the polish bar.
        angles = (0.0, -1.0, -(math.pi / 2 + 5e-7), -3.0, -4.5)
        radii = (1, 2, 1.5, 1, 2)
        S = point_set([(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)])
        plan = type1_cycle(S, (0.0, 0.0))
        assert _check_profile_against_scalar(S, plan, math.pi / 2) == 0
        assert _check_profile_against_scalar(S, plan, math.pi / 2 + 1e-6) == 1

    def test_structural_check_raises_named_error(self):
        with pytest.raises(ShortArcStructureError, match="spans 1 labels"):
            _doctored_structure_check()
        # The same check under python -O, which strips assert statements.
        script = (
            "import test_cycles\n"
            "from tverberg.cycles import ShortArcStructureError\n"
            "try:\n"
            "    test_cycles._doctored_structure_check()\n"
            "except ShortArcStructureError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        paths = [pathlib.Path(tverberg.__file__).parents[1], pathlib.Path(__file__).parent]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("False short arc spans 1 labels")

    def test_type2_exemptions(self):
        S = point_set([(1, -1), (1, 1), (-1, 1), (-1, -1), (0, 0)])
        plan = type2_cycle(S, 4, dir_at(90))
        profile = violation_profile(plan)
        syn = len(plan.order) - 1
        for i, j in profile.violated_slots:
            assert syn not in (i, j)

    def test_short_arc_width_below_right_angle(self, rng):
        # Violated pairs subtend less than pi/2 by construction.
        for seed in range(20):
            S = point_set(np.random.default_rng(seed).uniform(size=(7, 2)))
            p = S.coords[0] + np.array([0.31, 0.17])  # off-center on purpose
            try:
                plan = type1_cycle(S, p)
            except RadialDegeneracyError:
                continue
            profile = violation_profile(plan)
            for arc in profile.short_arcs:
                assert arc.width < math.pi / 2


class TestArcs:
    def test_single_arc_identity(self):
        arc = minor_arc(np.zeros(2), dir_at(40), dir_at(0))
        assert arcs_common_intersection([arc]) is arc

    def test_two_overlapping(self):
        a = minor_arc(np.zeros(2), dir_at(0), dir_at(40))
        b = minor_arc(np.zeros(2), dir_at(30), dir_at(70))
        got = arcs_common_intersection([a, b])
        assert got is not None
        assert np.allclose(got.start_dir, dir_at(40), atol=1e-9)
        assert np.allclose(got.end_dir, dir_at(30), atol=1e-9)
        assert got.width == pytest.approx(math.radians(10))

    def test_disjoint_pair_empty(self):
        a = minor_arc(np.zeros(2), dir_at(0), dir_at(40))
        b = minor_arc(np.zeros(2), dir_at(100), dir_at(140))
        assert arcs_common_intersection([a, b]) is None

    def test_wraparound(self):
        a = minor_arc(np.zeros(2), dir_at(170), dir_at(-170))
        b = minor_arc(np.zeros(2), dir_at(175), dir_at(-150))
        got = arcs_common_intersection([a, b])
        assert got is not None
        assert got.contains(dir_at(180))
        assert got.width == pytest.approx(math.radians(15), abs=1e-9)

    def test_minor_arc_canonical(self):
        arc = minor_arc(np.zeros(2), dir_at(10), dir_at(80))
        # Clockwise from start to end: start must be the 80-degree direction.
        assert np.allclose(arc.start_dir, dir_at(80))
        assert arc.width == pytest.approx(math.radians(70))

    def test_against_degree_sweep(self, rng):
        # Random pairwise-intersecting short arcs vs a 1-degree membership sweep.
        for trial in range(30):
            g = np.random.default_rng(trial)
            base = g.uniform(0, 2 * math.pi)
            arcs = []
            for _ in range(4):
                lo = base + g.uniform(-0.3, 0.3)
                width = g.uniform(0.2, math.pi / 2 - 0.05)
                arcs.append(
                    minor_arc(
                        np.zeros(2),
                        np.array([math.cos(lo + width), math.sin(lo + width)]),
                        np.array([math.cos(lo), math.sin(lo)]),
                    )
                )
            if not all(
                a.intersects(b) for a, b in itertools.combinations(arcs, 2)
            ):
                continue
            got = arcs_common_intersection(arcs)
            for deg in range(360):
                u = dir_at(deg)
                inside_all = all(arc.contains(u, 1e-9) for arc in arcs)
                if got is None:
                    assert not inside_all
                    continue
                in_result = got.contains(u, 1e-9)
                # Skip directions within numerical reach of an arc endpoint.
                near_boundary = any(
                    min(
                        abs((math.radians(deg) - math.atan2(v[1], v[0])) % (2 * math.pi)),
                        abs((math.atan2(v[1], v[0]) - math.radians(deg)) % (2 * math.pi)),
                    )
                    < 1e-6
                    for arc in arcs
                    for v in (arc.start_dir, arc.end_dir)
                )
                if not near_boundary:
                    assert in_result == inside_all
