"""Tverberg graphs on finite point sets.

A graph drawn on a point set is a Tverberg graph when the closed balls having
its edges as diameters share a common point.  This package constructs such
graphs with explicit witness points: Hamiltonian cycles for odd planar sets,
Hamiltonian paths for even ones, closed-form cycles in convex position, the
four-point case, and dense graphs from hull-intersecting partitions in any
dimension.  A verification oracle (exact at desk scale) backs every result.
"""

__version__ = "0.1.0"

from .cycles import (
    Arc,
    CycleKind,
    CyclePlan,
    GeoGraph,
    RadialDegeneracyError,
    RadialOrder,
    RepresentativeDegeneracyError,
    ViolationProfile,
    arcs_common_intersection,
    geo_graph,
    minor_arc,
    radial_order,
    type1_cycle,
    type2_cycle,
    violation_profile,
)
from .geometry import (
    DEFAULT_TOL,
    Ball,
    DegenerateInputError,
    GeneralPositionReport,
    InternalError,
    Lens,
    Membership,
    PerturbationError,
    PointSet,
    angle_at,
    check_general_position,
    diametral_ball,
    in_diametral_ball,
    in_lens,
    lens_membership,
    perturb,
    point_set,
)
from .oracle import (
    EnumerationReport,
    WitnessCertificate,
    disks_common_point,
    enumerate_hamiltonian,
    is_tverberg_graph,
    lens_family_common_point,
    matching_common_point,
)
from .partitions import (
    HalfSpace,
    TverbergPartition,
    covers_all_parts,
    default_parts,
    half_space_toward,
    hulls_common_point,
    min_degree_check,
    partition_covering_graph,
    tverberg_partition,
)
from .pointio import PointParseError, format_points, generate, parse_points
from .solver import (
    ArcHellyFailureError,
    AscentStalledError,
    SearchFailedError,
    SolveMode,
    SolveResult,
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
from .svg import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
