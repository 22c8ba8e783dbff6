"""Property-based suites: geometric duality, monotonicity laws, rotation
invariance, and structural facts the solver maintains along its trajectory."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tverberg.cycles import (
    RadialDegeneracyError,
    geo_graph,
    type1_cycle,
    violation_profile,
)
from tverberg.geometry import (
    Membership,
    angle_at,
    check_general_position,
    in_diametral_ball,
    lens_membership,
    perturb,
    point_set,
)
from tverberg.oracle import disks_common_point, is_tverberg_graph, lens_family_common_point
from tverberg.pointio import generate
from tverberg.solver import SolverConfig, solve_odd

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)


def planar_point(draw):
    return np.array([draw(coord), draw(coord)])


@st.composite
def angle_triple(draw):
    p = planar_point(draw)
    x = planar_point(draw)
    y = planar_point(draw)
    assume(not np.array_equal(x, y))
    assume(not np.array_equal(p, x) and not np.array_equal(p, y))
    return p, x, y


@given(angle_triple())
@settings(max_examples=1500)
def test_angle_disk_duality(triple):
    p, x, y = triple
    theta = angle_at(p, x, y)
    if abs(theta - math.pi / 2) <= 1e-8:
        return  # boundary band: both classifications legal
    member = in_diametral_ball(p, x, y)
    if theta > math.pi / 2:
        assert member is Membership.INSIDE
    else:
        assert member is Membership.OUTSIDE


@given(angle_triple(), st.floats(min_value=0.2, max_value=2.9),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=1500)
def test_lens_monotone_in_alpha(triple, alpha1, frac):
    p, x, y = triple
    alpha2 = alpha1 + frac * (3.0 - alpha1)
    alpha2 = min(alpha2, 3.1)
    m1 = lens_membership(p, x, y, alpha1, tol=0.0)
    m2 = lens_membership(p, x, y, alpha2, tol=0.0)
    # Bigger alpha means a smaller lens: covered at alpha2 implies covered at alpha1.
    if m2.covered():
        assert m1.covered() or m1 is Membership.BOUNDARY


def test_lens_disk_agreement_at_right_angle(rng):
    # Exact agreement on ten thousand random triples at the same tolerance.
    n = 10_000
    P = rng.uniform(-5, 5, size=(n, 2))
    X = rng.uniform(-5, 5, size=(n, 2))
    Y = rng.uniform(-5, 5, size=(n, 2))
    for k in range(n):
        a = lens_membership(P[k], X[k], Y[k], math.pi / 2, tol=1e-9)
        b = in_diametral_ball(P[k], X[k], Y[k], tol=1e-9)
        assert a is b


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200)
def test_perturb_never_exceeds_delta(seed):
    g = np.random.default_rng(seed)
    S = point_set(g.uniform(size=(6, 2)))
    delta = 10.0 ** g.uniform(-7, -2)
    moved = perturb(S, delta, seed=seed)
    assert np.linalg.norm(moved.coords - S.coords, axis=1).max() <= delta * (1 + 1e-12)


@given(st.integers(min_value=0, max_value=2_000))
@settings(max_examples=150)
def test_general_position_report_permutation_invariant(seed):
    g = np.random.default_rng(seed)
    coords = g.uniform(size=(5, 2))
    if g.uniform() < 0.5:
        coords[2] = (coords[0] + coords[1]) / 2  # force a collinear triple
    S = point_set(coords)
    sigma = g.permutation(5)
    T = point_set(coords[sigma])
    inv = np.argsort(sigma)
    rep_s = check_general_position(S)
    rep_t = check_general_position(T)

    def canon(entries):
        return sorted(tuple(sorted(t)) for t in entries)

    assert canon(rep_t.collinear_triples) == canon(
        [tuple(inv[list(t)]) for t in rep_s.collinear_triples]
    )


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=400)
def test_type1_rotation_invariance(seed):
    g = np.random.default_rng(seed)
    m = int(g.integers(2, 5)) * 2 + 1
    S = point_set(g.uniform(size=(m, 2)))
    p = S.centroid() + g.normal(scale=0.05, size=2)
    try:
        plan = type1_cycle(S, p)
    except RadialDegeneracyError:
        return
    labels = list(plan.order.labels)
    n = (m - 1) // 2
    for shift in range(m):
        rolled = labels[shift:] + labels[:shift]
        edges = {tuple(sorted((rolled[i], rolled[(i + n) % m]))) for i in range(m)}
        assert frozenset(edges) == plan.cycle.edge_set()


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=120)
def test_certificates_survive_edge_removal(seed):
    g = np.random.default_rng(seed)
    S = point_set(g.uniform(size=(5, 2)))
    edges = [tuple(sorted(e)) for e in itertools.combinations(range(5), 2)]
    g_idx = g.permutation(len(edges))[:4]
    graph = geo_graph(5, [edges[i] for i in sorted(g_idx)])
    cert = is_tverberg_graph(S, graph)
    if cert is None:
        return
    for drop in range(len(graph.edges)):
        sub = [e for k, e in enumerate(graph.edges) if k != drop]
        assert is_tverberg_graph(S, geo_graph(5, sub)) is not None


@given(st.integers(min_value=0, max_value=3_000))
@settings(max_examples=60)
def test_lens_alpha_monotonicity(seed):
    g = np.random.default_rng(seed)
    S = point_set(g.uniform(size=(5, 2)))
    seq = [0] + list(1 + g.permutation(4))
    graph = geo_graph(5, [tuple(sorted((seq[i], seq[(i + 1) % 5]))) for i in range(5)])
    alpha2 = math.pi / 2 + 0.1
    alpha1 = math.pi / 2 - 0.2
    if lens_family_common_point(S, graph, alpha2) is not None:
        assert lens_family_common_point(S, graph, alpha1) is not None


def test_ascent_trace_is_lexicographically_monotone():
    # Claim-style structural assertions run inside violation_profile on every
    # state; here we additionally require the objective never to worsen along
    # accepted steps, across one hundred traced solves.
    solves = 0
    steps = 0
    for seed in range(100):
        S = generate("uniform", 7, seed=seed + 2025)
        trace = []

        def hook(state, points, _trace=trace):
            _trace.append((state.profile.ell, -state.profile.f))

        result = solve_odd(S, seed=seed, config=SolverConfig(on_state=hook))
        assert result.mode.value in ("odd_cycle", "brute_force_fallback")
        for a, b in zip(trace, trace[1:]):
            steps += 1
            assert b <= a, f"objective worsened: {a} -> {b}"
        solves += 1
    assert solves == 100
    assert steps >= 1


def test_short_arc_structure_on_forced_violations():
    # Pick off-center evaluation points so profiles carry violations; the
    # span and pairwise-intersection checks inside violation_profile must
    # hold every time.
    checked = 0
    for seed in range(300):
        g = np.random.default_rng(seed)
        m = 5 if seed % 2 == 0 else 7
        S = point_set(g.uniform(size=(m, 2)))
        p = g.uniform(0.05, 0.95, size=2)
        try:
            plan = type1_cycle(S, p)
        except RadialDegeneracyError:
            continue
        profile = violation_profile(plan)  # raises ShortArcStructureError on violation
        if profile.ell >= 1:
            checked += 1
            n = (m - 1) // 2
            for arc in profile.short_arcs:
                spanned = sum(
                    1 for k in range(m) if arc.contains(plan.order.directions[k], 1e-9)
                )
                assert spanned >= n + 1
    assert checked >= 50


def test_helly_number_three_for_disks(rng):
    # Planar families: all triples intersect iff the family intersects.
    from tverberg.geometry import Ball

    agree = 0
    for trial in range(60):
        g = np.random.default_rng(trial + 7)
        k = int(g.integers(4, 8))
        centers = g.uniform(0, 1, size=(k, 2))
        radii = g.uniform(0.3, 0.75, size=k)
        balls = [Ball(center=c, radius=r) for c, r in zip(centers, radii)]
        whole = disks_common_point(balls) is not None
        triples = all(
            disks_common_point([balls[a], balls[b], balls[c]]) is not None
            for a, b, c in itertools.combinations(range(k), 3)
        )
        assert whole == triples
        agree += 1
    assert agree == 60
