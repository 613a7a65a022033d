"""Equilibrium classification and robustness measures for convex solids.

2D: polygons resting on a line — stable edges, unstable vertices, caustic
distances, internal/external robustness, full-robustness line bounds and
kinematic truncation sweeps (``geom2d``, ``equilib2d``, ``robust2d``).

3D: polyhedra resting on a plane — face/edge/vertex equilibria, wall-based
internal robustness with a sampled cross-check, bounding-box shape
predicates and a plane-truncation search for partial robustness
(``geom3d``, ``equilib3d``).

The ``equirobust`` console script exposes the same analyses on built-in and
user-supplied shapes.
"""

from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    DegeneratePresent,
    FixtureError,
    GeometryError,
    NonConvexInput,
    ReferenceOutside,
    TooFewStable,
)
from .reports import RobustnessReport, json_dumps_g17
from .geom2d import (
    ConvexPolygon2,
    Ray2,
    centroid,
    clip_halfplane_nd,
    polygon_from_json,
    polygon_new,
    polygon_to_json,
    regular_ngon,
)
from .equilib2d import EquilibriumPoint2, EquilibriumSet2, equilibria, stable_count
from .robust2d import (
    dowker_convexity_check,
    full_robustness_line_bound,
    rho_ex_exact,
    rho_in_exact,
    rho_in_sampled,
    rho_regular_closed,
    summarize_sweep,
    summary_csv,
    summary_svg,
    sweep_csv,
    truncation_sweep,
)
from .geom3d import (
    BoundingBox,
    ConvexPolyhedron3,
    aabb,
    bounding_box,
    centroid3,
    clip_halfspace3,
    generator_ellipsoid_mesh,
    generator_prism,
    generator_truncated_cylinder,
    hull3,
    off_dumps,
    off_loads,
    platonic,
    polyhedron_new,
    read_off,
    surface_area,
    volume,
    write_off,
)
from .equilib3d import (
    EquilibriumClass,
    EquilibriumPoint3,
    EquilibriumSet3,
    bounding_box_predicates,
    centroid_quarter_width_check,
    classify3,
    ellipsoid_class,
    example_truncated_tetra_fixture,
    plane_truncation_search,
    poincare_hopf_check,
    rho_in_exact_3d,
    rho_in_sampled_3d,
    stable_count3,
)

__version__ = "0.1.0"

__all__ = [
    "GeometryError",
    "NonConvexInput",
    "DegenerateInput",
    "ReferenceOutside",
    "DegenerateConfiguration",
    "TooFewStable",
    "DegeneratePresent",
    "FixtureError",
    "RobustnessReport",
    "json_dumps_g17",
    "ConvexPolygon2",
    "Ray2",
    "polygon_new",
    "regular_ngon",
    "centroid",
    "clip_halfplane_nd",
    "polygon_to_json",
    "polygon_from_json",
    "EquilibriumPoint2",
    "EquilibriumSet2",
    "equilibria",
    "stable_count",
    "rho_regular_closed",
    "rho_in_exact",
    "rho_in_sampled",
    "rho_ex_exact",
    "full_robustness_line_bound",
    "truncation_sweep",
    "summarize_sweep",
    "sweep_csv",
    "summary_csv",
    "summary_svg",
    "dowker_convexity_check",
    "ConvexPolyhedron3",
    "BoundingBox",
    "polyhedron_new",
    "hull3",
    "volume",
    "centroid3",
    "surface_area",
    "aabb",
    "bounding_box",
    "clip_halfspace3",
    "platonic",
    "generator_prism",
    "generator_truncated_cylinder",
    "generator_ellipsoid_mesh",
    "off_dumps",
    "off_loads",
    "read_off",
    "write_off",
    "EquilibriumPoint3",
    "EquilibriumSet3",
    "EquilibriumClass",
    "classify3",
    "stable_count3",
    "poincare_hopf_check",
    "bounding_box_predicates",
    "centroid_quarter_width_check",
    "rho_in_exact_3d",
    "rho_in_sampled_3d",
    "ellipsoid_class",
    "example_truncated_tetra_fixture",
    "plane_truncation_search",
]
