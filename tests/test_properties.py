"""Property tests on drawn inputs; skipped where hypothesis is not installed.

The cut properties work at the tolerance scale: every cut passes within a few
``eps`` of a vertex, along a drawn direction or parallel to an edge or face,
where the clips snap, merge and drop points and the counts sit on their
tolerance edges.  The line search property draws polygons a few ``eps`` off
regular, and bisects down to tolerances below the offsets' spacing.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from equirobust.equilib3d import _CutEvaluator3, classify3  # noqa: E402
from equirobust.errors import GeometryError  # noqa: E402
from equirobust.geom2d import ConvexPolygon2, clip_halfplane_nd, regular_ngon  # noqa: E402
from equirobust.geom3d import (  # noqa: E402
    centroid3,
    clip_halfspace3,
    generator_prism,
    generator_truncated_cylinder,
    platonic,
)
from equirobust.robust2d import (  # noqa: E402
    TruncationSweep,
    _CutEvaluator,
    _piece_stable,
    full_robustness_line_bound,
    summarize_sweep,
)
from equirobust.tol import EPS_GEOM  # noqa: E402

from conftest import assert_summary_is_reference, face_normal_error, random_convex_polygon, random_hull3  # noqa: E402
from test_cut_evaluator3 import _scalar  # noqa: E402

#: A cut's offset from its vertex, in units of the body's ``eps``: k * scale.
_STEPS = st.tuples(st.integers(-6, 6), st.sampled_from([0.5, 1.0, 2.0]))

_BIN_TYPES = [int, np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64]


@st.composite
def _sweeps(draw):
    """(sweep, bins): random sweep columns, areas often exactly on a bin edge."""
    bins = draw(st.sampled_from(_BIN_TYPES))(draw(st.integers(1, 64)))
    edges = np.linspace(0.0, 1.0, int(bins) + 1).tolist()
    rows = draw(st.integers(1, 80))
    area = st.one_of(st.floats(0.0, 1.0), st.sampled_from(edges), st.integers(0, int(bins)).map(lambda k: k / int(bins)))
    relative_area = np.array(draw(st.lists(area, min_size=rows, max_size=rows)))
    piece_S = np.array(draw(st.lists(st.integers(-1, 12), min_size=rows, max_size=rows)))
    S0 = draw(st.integers(2, 12))
    zeros = np.zeros(rows)
    return TruncationSweep(S0, zeros, zeros, np.ones(rows, dtype=int), relative_area, piece_S), bins


@settings(max_examples=100, deadline=None)
@given(_sweeps())
def test_summary_matches_the_per_category_reference(drawn):
    sweep, bins = drawn
    assert_summary_is_reference(summarize_sweep(sweep, bins), sweep, bins)


@st.composite
def _polygon_cuts(draw):
    """(P, M, fam, e): a regular, near-regular, near-flat, random or large
    polygon, unit normals drawn or perpendicular to an edge, and cuts through
    its vertices.  A near-flat polygon is a regular one with a vertex added
    just outside an edge's midpoint, turning by 1.05 to 4 ``EPS_GEOM D²``,
    where the cleanup's turn test reads the piece's diameter; a large one,
    regular or near-regular, has 351 to 520 vertices and at most 4 cuts."""
    kind = draw(st.sampled_from(["regular", "near-regular", "near-flat", "random", "large"]))
    n = draw(st.integers(351, 520) if kind == "large" else st.integers(3, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        P = random_convex_polygon(rng, n)
    else:
        P = regular_ngon(n)
        xy = np.asarray(P.vertices)
        if kind == "near-regular" or (kind == "large" and draw(st.booleans())):
            P = ConvexPolygon2(xy + rng.normal(size=(n, 2)) * 4 * P.eps)
        elif kind == "near-flat":
            j = draw(st.integers(0, n - 1))
            (ax, ay), (bx, by) = xy[j], xy[(j + 1) % n]
            length = math.hypot(bx - ax, by - ay)
            h = draw(st.floats(1.05, 4.0)) * EPS_GEOM * P.diameter**2 / length  # the new turn is length * h
            mid = (0.5 * (ax + bx) + h * (by - ay) / length, 0.5 * (ay + by) - h * (bx - ax) / length)
            P = ConvexPolygon2(np.insert(xy, j + 1, mid, axis=0))
    n = P.n
    xy = np.asarray(P.vertices)
    normals = []
    for _ in range(draw(st.integers(1, 3))):
        edge = draw(st.one_of(st.none(), st.integers(0, n - 1)))
        if edge is None:
            theta = draw(st.floats(0.0, 2 * math.pi))
            normals.append((math.cos(theta), math.sin(theta)))
        else:
            ex, ey = xy[(edge + 1) % n] - xy[edge]
            side = draw(st.sampled_from([1.0, -1.0]))
            normals.append((side * ey / math.hypot(ex, ey), -side * ex / math.hypot(ex, ey)))
    M = np.array(normals)
    cut = st.tuples(st.integers(0, len(M) - 1), st.integers(0, n - 1), _STEPS)
    cuts = draw(st.lists(cut, min_size=1, max_size=4 if kind == "large" else 64))
    fam = np.array([f for f, _, _ in cuts])
    e = np.array([M[f] @ xy[j] + k * scale * P.eps for f, j, (k, scale) in cuts])
    return P, M, fam, e


@settings(max_examples=400, deadline=None)
@given(_polygon_cuts())
def test_2d_evaluator_is_the_scalar_path_at_the_tolerance_scale(drawn):
    P, M, fam, e = drawn
    kept, counts = _CutEvaluator(P, M)(fam, e)
    for i, (f, d) in enumerate(zip(fam.tolist(), e.tolist())):
        piece = clip_halfplane_nd(P, M[f, 0], M[f, 1], d)
        want = 0.0 if piece is None else 1.0 if piece is P else piece.area / P.area
        s = _piece_stable(P, piece)
        assert np.float64(kept[i]).view(np.int64) == np.float64(want).view(np.int64)
        assert counts[i] == (-1 if s is None else s)


@st.composite
def _line_searches(draw):
    """(P, grid_theta, grid_offset, refine_tol): a random convex polygon or a
    regular one with vertices moved by up to 6 ``eps``, some shifted far from
    the origin, and a grid of up to 8 x 12."""
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xy = np.asarray(random_convex_polygon(rng, n).vertices)
    else:
        P = regular_ngon(n)
        xy = np.asarray(P.vertices) + rng.integers(-6, 7, size=(n, 2)) * P.eps
    shift = draw(st.sampled_from([0.0, 0.0, 1e3, 1e4, 1e5]))
    angle = draw(st.floats(0.0, 2 * math.pi))
    P = ConvexPolygon2(xy + shift * np.array([math.cos(angle), math.sin(angle)]))
    return P, draw(st.integers(1, 8)), draw(st.integers(1, 12)), draw(st.sampled_from([1e-4, 1e-7, 1e-300]))


def _line_search(P, *args):
    """The line search's report and its JSON, or None and the documented exception."""
    try:
        rep = full_robustness_line_bound(P, *args)
    except GeometryError as exc:
        return None, repr(exc)
    return rep, rep.to_json()


@settings(max_examples=200, deadline=None)
@given(_line_searches())
def test_line_search_stop_rule_keeps_every_byte_and_its_witness_reduces(drawn):
    # The stop rule drops only brackets that end above the witness, so the
    # report is that of bisecting every bracket (delta = inf stops none).
    P, *args = drawn
    rep, got = _line_search(P, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_CutEvaluator, "delta", math.inf)
        assert _line_search(P, *args)[1] == got
    if rep is not None and rep.status == "ok":
        w = rep.witness
        m = w["side"] * np.array([math.cos(w["theta"]), math.sin(w["theta"])])
        piece = clip_halfplane_nd(P, m[0], m[1], w["side"] * w["offset"])
        S = _piece_stable(P, piece)
        assert piece is not None and piece is not P and S is not None and S < rep.details["S"]
        assert abs(1.0 - piece.area / P.area - w["relative_area_removed"]) <= 1e-12


@lru_cache(maxsize=None)
def _fixed_body(name):
    if name == "prism":
        return generator_prism(5, 1.0)
    if name == "cylcut":
        return generator_truncated_cylinder(1, 3)
    return platonic(name)


@st.composite
def _body_cuts(draw):
    """(P, M, fam, e): a platonic solid, a prism, ``cylcut:1:3`` or a Gaussian
    hull, normals drawn or along a face normal, and cuts through its vertices."""
    name = draw(st.sampled_from(["tetra", "cube", "octa", "dodeca", "icosa", "prism", "cylcut", "gauss"]))
    if name == "gauss":
        P = random_hull3(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(5, 16)))
    else:
        P = _fixed_body(name)
    normals = []
    for _ in range(draw(st.integers(1, 2))):
        face = draw(st.one_of(st.none(), st.integers(0, len(P.plane_normals) - 1)))
        if face is None:
            g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
            normals.append(g / np.linalg.norm(g) if np.linalg.norm(g) > 0.1 else np.array([0.0, 0.0, 1.0]))
        else:
            normals.append(P.plane_normals[face] * draw(st.sampled_from([1.0, -1.0])))
    M = np.array(normals)
    vertex = st.integers(0, len(P.coords) - 1)
    cuts = draw(st.lists(st.tuples(st.integers(0, len(M) - 1), vertex, _STEPS), min_size=1, max_size=12))
    fam = np.array([f for f, _, _ in cuts])
    e = np.array([M[f] @ P.coords[j] + k * scale * P.eps for f, j, (k, scale) in cuts])
    return P, M, fam, e


@settings(max_examples=200, deadline=None)
@given(_body_cuts())
def test_3d_evaluator_is_the_scalar_path_at_the_tolerance_scale(drawn):
    P, M, fam, e = drawn
    rel, S, U = _CutEvaluator3(P, M)(fam, e)
    for i, (f, d) in enumerate(zip(fam.tolist(), e.tolist())):
        want = _scalar(P, M[f], d)
        assert np.float64(rel[i]).view(np.int64) == np.float64(want[0]).view(np.int64)
        assert (S[i], U[i]) == want[1:]


@settings(max_examples=150, deadline=None)
@given(_body_cuts())
def test_3d_pieces_keep_euler_characteristic(drawn):
    # S - H + U = 2 on every piece classified without degeneracy; a piece
    # that cannot be classified raises a documented exception.  Two kinds of
    # piece are not checked, as the classification cannot read them (see
    # test_equilib3d.TestPiecesAtTheTolerance): one with a stored face normal
    # off its face's own by more than the tolerance, and one with a vertex on
    # fewer than three faces.
    P, M, fam, e = drawn
    for f, d in zip(fam.tolist(), e.tolist()):
        piece = clip_halfspace3(P, M[f], d)
        if piece is None or piece is P:
            continue
        try:
            eq = classify3(piece, centroid3(piece))
        except GeometryError:
            continue
        if not eq.any_degenerate and face_normal_error(piece) <= 1e-9 and np.bincount(piece.tails).min() >= 3:
            assert eq.S - eq.H + eq.U == 2
