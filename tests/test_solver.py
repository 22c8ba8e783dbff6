import math

import numpy as np
import pytest

from tverberg.cycles import type1_cycle, violation_profile
from tverberg.geometry import (
    PerturbationError,
    angle_at,
    in_diametral_ball,
    perturb,
    point_set,
)
from tverberg.oracle import (
    enumerate_hamiltonian,
    is_tverberg_graph,
    matching_common_point,
)
from tverberg.pointio import generate
from tverberg.solver import (
    SolveMode,
    SolverConfig,
    SolverState,
    ascent_step,
    convex_position_cycle,
    four_point_cycle,
    handle_center_on_point,
    solve,
    solve_even_path,
    solve_odd,
)


def regular_polygon(m, radius=1.0, phase=math.pi / 2):
    return point_set(
        [
            (radius * math.cos(phase + 2 * math.pi * k / m),
             radius * math.sin(phase + 2 * math.pi * k / m))
            for k in range(m)
        ]
    )


def witness_in_all_disks(points, graph, witness):
    return all(
        in_diametral_ball(witness, points.point(a), points.point(b)).covered()
        for a, b in graph.edges
    )


def _state_at(points, p, step=0.1):
    plan = type1_cycle(points, p)
    profile = violation_profile(plan)
    return SolverState(
        p=np.asarray(p, dtype=float),
        rep_dir=None,
        plan=plan,
        profile=profile,
        step=step,
        iterations=0,
    )


def _find_violated_state(n_points=5, want_ell=1):
    """Seeded search for a type I state with a prescribed violation count."""
    for seed in range(200):
        g = np.random.default_rng(seed)
        S = point_set(g.uniform(size=(n_points, 2)))
        p = g.uniform(0.1, 0.9, size=2)
        try:
            state = _state_at(S, p)
        except Exception:
            continue
        if state.profile.ell == want_ell:
            return S, state
    raise RuntimeError("no configuration found")


class TestAscentStep:
    def test_requires_violation(self):
        S = regular_polygon(5)
        state = _state_at(S, (0.0, 0.0))
        assert state.profile.ell == 0
        with pytest.raises(ValueError):
            ascent_step(state, S, SolverConfig())

    def test_single_arc_improves_f(self):
        S, state = _find_violated_state(5, want_ell=1)
        nxt = ascent_step(state, S, SolverConfig())
        assert nxt.profile.ell <= state.profile.ell
        if nxt.profile.ell == state.profile.ell:
            assert nxt.profile.f > state.profile.f

    def test_repeated_steps_reach_zero(self):
        wins = 0
        total = 0
        config = SolverConfig()
        for seed in range(100):
            g = np.random.default_rng(seed + 7000)
            S = point_set(g.uniform(size=(7, 2)))
            try:
                state = _state_at(S, g.uniform(0.2, 0.8, size=2))
            except Exception:
                continue
            total += 1
            for _ in range(10_000):
                if state.profile.ell == 0:
                    wins += 1
                    break
                try:
                    state = ascent_step(state, S, config)
                except Exception:
                    break
        assert total >= 80
        assert wins / total >= 0.99


class TestCenterOnPoint:
    def test_obtuse_vertex_clean(self):
        # At the obtuse vertex the opposite side's disk contains the vertex.
        S = point_set([(0, 0), (4, 0.3), (-4, 0.3)])
        rep, profile = handle_center_on_point(S, 0)
        assert profile.ell == 0

    def test_acute_triangle_single_violation(self):
        S = point_set([(0, 0), (2, 0.01), (1, 1.8)])  # all angles acute
        rep, profile = handle_center_on_point(S, 0)
        assert profile.ell == 1  # the opposite side's disk misses the vertex

    def test_matches_gap_enumeration(self):
        # Exhaustive oracle over gap midpoints for the square plus center.
        from tverberg.cycles import type2_cycle

        S = point_set([(1, -1), (1, 1), (-1, 1), (-1, -1), (0, 0)])
        rep, profile = handle_center_on_point(S, 4)
        vecs = S.coords[:4] - S.coords[4]
        angles = np.sort(np.arctan2(vecs[:, 1], vecs[:, 0]))[::-1]
        best = None
        for k in range(4):
            hi = angles[k]
            lo = angles[(k + 1) % 4] - (2 * math.pi if k == 3 else 0)
            mid = (hi + lo) / 2
            plan = type2_cycle(S, 4, (math.cos(mid), math.sin(mid)))
            prof = violation_profile(plan)
            key = (prof.ell, -prof.f)
            if best is None or key < best:
                best = key
        assert (profile.ell, -profile.f) == pytest.approx(best)

    def test_rotation_equivariance(self):
        S = point_set([(0, 0), (2, 0.01), (1, 1.8)])
        rep, _ = handle_center_on_point(S, 0)
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        S2 = point_set(S.coords @ R.T)
        rep2, _ = handle_center_on_point(S2, 0)
        assert np.allclose(R @ rep, rep2, atol=1e-9)

    def test_even_rejected(self):
        S = point_set([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            handle_center_on_point(S, 0)


class TestSolveOdd:
    def test_pentagon_pentagram(self):
        S = regular_polygon(5)
        result = solve_odd(S, seed=0)
        expected = {tuple(sorted((i, (i + 2) % 5))) for i in range(5)}
        assert result.graph.edge_set() == frozenset(expected)
        assert witness_in_all_disks(result.points, result.graph, result.witness)

    def test_triangle(self):
        S = point_set([(0, 0), (2.3, 0.1), (0.9, 1.9)])
        result = solve_odd(S, seed=0)
        assert result.graph.edge_set() == frozenset({(0, 1), (1, 2), (0, 2)})
        assert witness_in_all_disks(result.points, result.graph, result.witness)

    def test_matches_oracle_on_small_sets(self):
        for seed in range(10):
            S = generate("uniform", 7, seed=seed + 50)
            result = solve_odd(S, seed=seed)
            report = enumerate_hamiltonian(result.points, "cycles")
            assert report.contains_edge_set(result.graph)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            solve_odd(point_set([(0, 0), (1, 0), (0, 1), (1, 1)]), seed=0)

    def test_certifies_degenerate_input_unperturbed(self):
        S = point_set([(0, 0), (1, 0), (2, 0), (0.5, 1), (1.5, 1)])  # collinear triple
        result = solve_odd(S, seed=0)
        assert not result.perturbed
        assert np.array_equal(result.points.coords, S.coords)
        assert witness_in_all_disks(S, result.graph, result.witness)

    def test_certifies_collinear_input_unperturbed(self):
        S = point_set([(k, 0) for k in range(5)])
        result = solve_odd(S, seed=0)
        assert not result.perturbed and result.restarts >= 1
        assert np.array_equal(result.points.coords, S.coords)
        assert is_tverberg_graph(S, result.graph) is not None
        assert witness_in_all_disks(S, result.graph, result.witness)
        report = enumerate_hamiltonian(S, "cycles")
        assert report.contains_edge_set(result.graph)

    def test_perturbed_last_resort(self, monkeypatch):
        # When the graph found on the jittered copy is not certified on the
        # input, the jittered copy's result is returned, marked perturbed.
        monkeypatch.setattr("tverberg.solver.is_tverberg_graph", lambda *a: None)
        S = point_set([(k, 0) for k in range(5)])
        result = solve_odd(S, seed=0)
        assert result.perturbed and result.restarts >= 1
        moved = np.linalg.norm(result.points.coords - S.coords, axis=1).max()
        assert 0.0 < moved <= 1e-6 * max(S.diameter(), 1.0)
        assert witness_in_all_disks(result.points, result.graph, result.witness)

    def test_fallback_jitter_is_first_perturb_draw(self, monkeypatch):
        import tverberg.solver as solver

        real_check = solver._check_result

        def fail_on_input(result, tol):
            if result.restarts == 0:
                raise solver.SearchFailedError("forced")
            real_check(result, tol)

        monkeypatch.setattr(solver, "_check_result", fail_on_input)
        compared = 0
        for seed in range(12):
            S = generate("uniform", 7, seed=seed + 500)
            if seed % 3 == 0:
                S = point_set([(k, 0) for k in range(7)])
            seen = []
            solve_odd(S, seed=seed, config=SolverConfig(on_state=lambda st, pts: seen.append(pts)))
            copies = {pts.coords.tobytes() for pts in seen if pts is not S}
            assert len(copies) == 1
            try:
                expected = perturb(S, 1e-6 * max(S.diameter(), 1.0), seed, max_attempts=1)
            except PerturbationError:
                continue
            assert copies == {expected.coords.tobytes()}
            compared += 1
        assert compared >= 8

    def test_failed_certification_moves_to_next_start(self, monkeypatch):
        import tverberg.solver as solver

        checked = []

        def fail_first(result, tol):
            checked.append(result)
            if len(checked) == 1:
                raise solver.SearchFailedError("forced")
            real_check(result, tol)

        real_check = solver._check_result
        monkeypatch.setattr(solver, "_check_result", fail_first)
        S = generate("uniform", 7, seed=3)
        result = solve_odd(S, seed=0)
        assert len(checked) == 2
        assert result.restarts >= 1 and not result.perturbed
        assert witness_in_all_disks(S, result.graph, result.witness)

    def test_deterministic(self):
        S = generate("uniform", 9, seed=77)
        a = solve_odd(S, seed=5)
        b = solve_odd(S, seed=5)
        assert a.graph.edge_set() == b.graph.edge_set()
        assert np.array_equal(a.witness, b.witness)

    def test_margins_clean_after_polish(self):
        for seed in range(20):
            S = generate("uniform", 7, seed=seed + 300)
            result = solve_odd(S, seed=seed)
            P = result.points.coords
            for a, b in result.graph.edges:
                c = (P[a] + P[b]) / 2
                r = np.linalg.norm(P[b] - P[a]) / 2
                assert r - np.linalg.norm(result.witness - c) >= -1e-9


class TestGeneralPositionOffSolvePath:
    @pytest.fixture(autouse=True)
    def forbid_general_position_pass(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("general-position pass on the solve path")

        monkeypatch.setattr("tverberg.geometry.check_general_position", forbidden)
        monkeypatch.setattr("tverberg.geometry.perturb", forbidden)

    def test_large_generic_inputs_skip_the_check(self):
        for m in (1001, 1000):
            S = point_set(np.random.default_rng(m).uniform(size=(m, 2)))
            result = solve(S, seed=0)
            assert not result.perturbed
            assert np.array_equal(result.points.coords, S.coords)
            assert witness_in_all_disks(S, result.graph, result.witness)

    @pytest.mark.parametrize(
        "coords",
        [
            [(k, 0) for k in range(15)],
            [(k, 0) for k in range(21)],
            [(0, 0)] + [(s * k, 0) for s in (-1, 1) for k in (1, 2)]
            + [(0, s * k) for s in (-1, 1) for k in (1, 2)],
        ],
        ids=["collinear15", "collinear21", "cross9"],
    )
    def test_degenerate_inputs_certified_unperturbed(self, coords):
        S = point_set(coords)
        result = solve(S, seed=0)
        assert not result.perturbed
        assert np.array_equal(result.points.coords, S.coords)
        assert is_tverberg_graph(S, result.graph) is not None
        assert witness_in_all_disks(S, result.graph, result.witness)


class TestScaleRegression:
    """Small scales once made the absolute tolerance read generic sets as
    degenerate, and the perturbation then moved points by more than the
    set's size.  Graphs are checked on the similarity-equivalent unit-scale
    copy."""

    @pytest.mark.parametrize("scale", [1e-3, 1e-6])
    @pytest.mark.parametrize("seed", range(10))
    def test_small_scale_solved_on_input(self, seed, scale):
        S = generate("uniform", 9, seed=seed)
        result = solve(point_set(S.coords * scale), seed=0)
        assert not result.perturbed
        assert is_tverberg_graph(S, result.graph) is not None

    @pytest.mark.xfail(
        strict=True,
        reason="absolute tolerance and jitter radius (ROADMAP item 4, "
        "scale-free numerics): the fallback's jitter (about 9e-6) dwarfs the "
        "set, and the absolute tol accepts any graph on the input at this "
        "scale, so the graph fails on the unit-scale copy",
    )
    def test_tiny_scale_solved_on_input(self):
        S = generate("uniform", 9, seed=6)
        result = solve(point_set(S.coords * 1e-9), seed=0)
        assert not result.perturbed
        assert is_tverberg_graph(S, result.graph) is not None


class TestSolveEvenPath:
    def test_two_points(self):
        S = point_set([(0, 0), (2, 2)])
        result = solve_even_path(S, seed=0)
        assert result.graph.edge_set() == frozenset({(0, 1)})
        assert result.mode is SolveMode.EVEN_PATH
        assert witness_in_all_disks(result.points, result.graph, result.witness)
        # The midpoint is itself a valid witness via the matching oracle.
        cert = matching_common_point(S, result.graph)
        assert np.allclose(cert.witness, (1, 1))

    def test_square_path(self):
        S = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])
        result = solve_even_path(S, seed=0)
        deg = result.graph.degrees()
        assert sorted(deg) == [1, 1, 2, 2]
        assert len(result.graph.edges) == 3
        report = enumerate_hamiltonian(result.points, "paths")
        assert report.contains_edge_set(result.graph)

    def test_path_structure_and_oracle(self):
        for seed in range(8):
            S = generate("uniform", 8, seed=seed + 400)
            result = solve_even_path(S, seed=seed)
            deg = sorted(result.graph.degrees())
            assert deg == [1, 1] + [2] * 6
            assert witness_in_all_disks(result.points, result.graph, result.witness)

    def test_witness_certifies_contained_matching(self):
        # A Hamiltonian path on 2r points contains a perfect matching; the
        # path's witness certifies it too.
        S = generate("uniform", 6, seed=17)
        result = solve_even_path(S, seed=0)
        adj = {v: [] for v in range(6)}
        for a, b in result.graph.edges:
            adj[a].append(b)
            adj[b].append(a)
        start = next(v for v, ns in adj.items() if len(ns) == 1)
        walk = [start]
        while len(walk) < 6:
            walk.append(next(n for n in adj[walk[-1]] if len(walk) < 2 or n != walk[-2]))
        matching = [(walk[i], walk[i + 1]) for i in range(0, 6, 2)]
        g = point_set(result.points.coords)  # same coords
        from tverberg.cycles import geo_graph

        cert = matching_common_point(g, geo_graph(6, matching))
        assert cert is not None

    def test_centroid_on_input_point(self):
        # The auxiliary point would coincide with S[0], so it is jittered.
        S = point_set([(0, 0), (1, 2), (3, 1), (-4, -3), (2, -1), (-2, 1)])
        result = solve_even_path(S, seed=3)
        assert not result.perturbed
        assert is_tverberg_graph(S, result.graph) is not None

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            solve_even_path(point_set([(0, 0), (1, 0), (0, 1)]), seed=0)

    def test_dispatch(self):
        odd = generate("uniform", 5, seed=1)
        even = generate("uniform", 6, seed=1)
        assert solve(odd, seed=0).mode in (SolveMode.ODD_CYCLE, SolveMode.BRUTE_FORCE_FALLBACK)
        assert solve(even, seed=0).mode is SolveMode.EVEN_PATH


class TestConvexPosition:
    def test_pentagon(self):
        S = regular_polygon(5)
        result = convex_position_cycle(S)
        expected = {tuple(sorted((i, (i + 2) % 5))) for i in range(5)}
        assert result.graph.edge_set() == frozenset(expected)
        assert np.allclose(result.witness, (0, 0), atol=1e-9)

    def test_heptagon_star(self):
        S = regular_polygon(7)
        result = convex_position_cycle(S)
        expected = {tuple(sorted((i, (i + 3) % 7))) for i in range(7)}
        assert result.graph.edge_set() == frozenset(expected)

    def test_random_convex_all_edges_cross(self):
        S = generate("convex", 9, seed=13)
        result = convex_position_cycle(S)
        assert is_tverberg_graph(S, result.graph) is not None
        P = S.coords

        def crosses(e, f):
            (a, b), (c, d) = e, f
            if {a, b} & {c, d}:
                return True  # sharing an endpoint counts as meeting
            o = lambda p, q, r: (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
            return (
                o(P[a], P[b], P[c]) * o(P[a], P[b], P[d]) < 0
                and o(P[c], P[d], P[a]) * o(P[c], P[d], P[b]) < 0
            )

        edges = result.graph.edges
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                assert crosses(edges[i], edges[j])

    def test_rejects_non_convex(self):
        S = point_set([(0, 0), (4, 0), (0, 4), (1, 1), (2.2, 1.7)])
        with pytest.raises(ValueError, match="convex"):
            convex_position_cycle(S)

    def test_rigid_motion_equivariance(self):
        S = generate("convex", 7, seed=3)
        result = convex_position_cycle(S)
        theta = 1.1
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        t = np.array([3.0, -2.0])
        S2 = point_set(S.coords @ R.T + t)
        result2 = convex_position_cycle(S2)
        assert result2.graph.edge_set() == result.graph.edge_set()
        assert np.allclose(result2.witness, R @ result.witness + t, atol=1e-6)


class TestFourPoint:
    def test_unit_square(self):
        S = point_set([(0, 0), (1, 0), (1, 1), (0, 1)])
        result = four_point_cycle(S)
        assert np.allclose(result.witness, (0.5, 0.5))
        assert {(0, 2), (1, 3)} <= set(result.graph.edges)  # both diagonals
        assert witness_in_all_disks(S, result.graph, result.witness)

    def test_triangle_with_interior_point(self):
        S = point_set([(0, 0), (4, 0), (0, 4), (1, 1)])
        result = four_point_cycle(S)
        w = S.point(3)
        assert np.allclose(result.witness, w)
        # The two disks named by the right-angle test at w:
        assert in_diametral_ball(w, S.point(0), S.point(1)).covered()
        assert in_diametral_ball(w, S.point(0), S.point(2)).covered()
        assert witness_in_all_disks(S, result.graph, result.witness)
        assert sorted(result.graph.degrees()) == [2, 2, 2, 2]

    def test_random_quadruples_verified(self):
        hull_types = set()
        for seed in range(100):
            S = generate("uniform", 4, seed=seed + 900)
            result = four_point_cycle(S)
            assert is_tverberg_graph(S, result.graph) is not None
            report = enumerate_hamiltonian(S, "cycles")
            assert report.contains_edge_set(result.graph)
            hull_types.add(result.witness.tobytes() in {S.point(k).tobytes() for k in range(4)})
        assert hull_types == {True, False}  # saw both triangle and convex hulls

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            four_point_cycle(point_set([(0, 0), (1, 0), (2, 0), (0, 1)]))

    def test_translation_equivariance(self):
        S = point_set([(0, 0), (4, 0), (0, 4), (1, 1)])
        result = four_point_cycle(S)
        S2 = point_set(S.coords + (5.0, 7.0))
        result2 = four_point_cycle(S2)
        assert result2.graph.edge_set() == result.graph.edge_set()
        assert np.allclose(result2.witness, result.witness + (5, 7))
