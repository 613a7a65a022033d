"""The signed-normal cut searches against the side-by-side code they replaced.

``full_robustness_line_bound``, ``plane_truncation_search`` and
``rho_ex_exact`` write the piece on either side of a cut as one half space
``m·z <= e`` with ``m = side·n`` and ``e = side·d``.  The references below are
the versions that branched on the side; the plane-search reference also clips
each bracket end a second time.  Outputs must match them byte for byte.
"""

import math
from typing import Optional

import numpy as np
import pytest

from equirobust import equilib3d, tol
from equirobust.equilib2d import equilibria
from equirobust.equilib3d import _search_counts, classify3, plane_truncation_search
from equirobust.errors import DegenerateConfiguration, TooFewStable
from equirobust.geom2d import area_outside_disk, clip_halfplane_nd, polygon_new, regular_ngon
from equirobust.geom3d import (
    centroid3,
    clip_halfspace3,
    generator_prism,
    generator_truncated_cylinder,
    platonic,
    volume,
)
from equirobust.reports import RobustnessReport
from equirobust.robust2d import full_robustness_line_bound, rho_ex_exact
from equirobust.util import fibonacci_sphere, rotation_from_seed

from conftest import random_convex_polygon, random_hull3, random_interior_point
from test_cut_evaluator import _line_bound_reference
from test_robust2d import REFLEX_QUAD, REFLEX_REF


def _plane_search_reference(P, target="reduce_any", grid=(32, 16), refine_tol=1e-4, seed=0):
    kinds = {"reduce_S": "partial_s", "reduce_U": "partial_u", "reduce_any": "partial_any"}
    n_normals, n_offsets = grid
    eq0 = classify3(P, centroid3(P))
    if eq0.any_degenerate:
        raise DegenerateConfiguration("base classification is degenerate")
    S0, U0 = eq0.S, eq0.U
    vol0 = volume(P)
    normals = fibonacci_sphere(n_normals) @ rotation_from_seed(seed).T

    def evaluate(n, d, side):
        piece = clip_halfspace3(P, side * n, side * d)
        if piece is None or piece is P:
            return None
        counts = _search_counts(piece)
        if counts is None:
            return None
        rel = 1.0 - volume(piece) / vol0
        return rel, counts[0] < S0, counts[1] < U0

    best: dict[str, Optional[dict]] = {"S": None, "U": None}

    def offer(pred, rel, n, d, side):
        if best[pred] is None or rel < best[pred]["relative_volume_removed"]:
            best[pred] = {
                "type": "plane",
                "normal": [float(c) for c in n],
                "offset": float(d),
                "side": side,
                "relative_volume_removed": float(rel),
            }

    for n in normals:
        lo, hi = P.support_interval(n)
        offs = np.linspace(lo, hi, n_offsets + 2)[1:-1]
        rows = {+1: [], -1: []}
        for d in offs:
            for side in (+1, -1):
                res = evaluate(n, float(d), side)
                if res is not None:
                    rows[side].append((float(d), res))
        for side in (+1, -1):
            for pred_idx, pred in ((1, "S"), (2, "U")):
                reducing = [(d, r[0]) for d, r in rows[side] if r[pred_idx]]
                if not reducing:
                    continue
                d_a, rel_a = min(reducing, key=lambda t: t[1])
                if side == +1:
                    d_b = min((d for d, r in rows[side] if not r[pred_idx] and d > d_a), default=hi)
                else:
                    d_b = max((d for d, r in rows[side] if not r[pred_idx] and d < d_a), default=lo)
                res_b = evaluate(n, d_b, side)
                rel_b = res_b[0] if res_b is not None else 0.0
                for _ in range(60):
                    if abs(rel_a - rel_b) <= refine_tol:
                        break
                    cur = best[pred]
                    if cur is not None and rel_b >= cur["relative_volume_removed"]:
                        break
                    mid = 0.5 * (d_a + d_b)
                    res = evaluate(n, mid, side)
                    if res is not None and res[pred_idx]:
                        d_a, rel_a = mid, res[0]
                    else:
                        d_b = mid
                        if res is not None:
                            rel_b = res[0]
                offer(pred, rel_a, n, d_a, side)

    vS = None if best["S"] is None else best["S"]["relative_volume_removed"]
    vU = None if best["U"] is None else best["U"]["relative_volume_removed"]
    if target == "reduce_S":
        value, witness = vS, best["S"]
    elif target == "reduce_U":
        value, witness = vU, best["U"]
    else:
        pool = [(v, w) for v, w in ((vS, best["S"]), (vU, best["U"])) if v is not None]
        value, witness = min(pool, key=lambda t: t[0]) if pool else (None, None)
    return RobustnessReport(
        kind=kinds[target],
        value=value,
        method="search",
        witness=witness,
        status="ok" if value is not None else "no_reduction_found",
        details={
            "S0": S0,
            "U0": U0,
            "grid": [n_normals, n_offsets],
            "seed": seed,
            "refine_tol": refine_tol,
            "partial_s": vS,
            "partial_u": vU,
            "upper_bound": True,
        },
    )


def _rho_ex_exact_reference(P, p, reflex: list):
    """``rho_ex_exact`` with the side of each sector clip spelled out; appends
    one entry to ``reflex`` per reflex sector."""
    eq = equilibria(P, p)
    if eq.any_degenerate:
        raise DegenerateConfiguration("reference point gives a degenerate configuration")
    feet = [e for e in eq.points if e.kind == "stable"]
    S = len(feet)
    if S < 3:
        raise TooFewStable(f"external robustness needs S >= 3, got S={S}")
    px, py = float(p[0]), float(p[1])
    total = P.area
    cross_tol = tol.EPS_GEOM * P.diameter * P.diameter
    best = math.inf
    best_idx = -1
    sector_areas = []
    for i in range(S):
        ax, ay = feet[i].location
        bx, by = feet[(i + 1) % S].location
        u1 = (ax - px, ay - py)
        u2 = (bx - px, by - py)
        r = max(math.hypot(*u1), math.hypot(*u2))
        cr = u1[0] * u2[1] - u1[1] * u2[0]
        dot = u1[0] * u2[0] + u1[1] * u2[1]

        def clip_left(Q, ux, uy):
            if Q is None:
                return None
            return clip_halfplane_nd(Q, uy, -ux, uy * px - ux * py)

        def clip_right(Q, ux, uy):
            if Q is None:
                return None
            return clip_halfplane_nd(Q, -uy, ux, -uy * px + ux * py)

        if cr > cross_tol or (abs(cr) <= cross_tol and dot > 0.0):
            sector = clip_right(clip_left(P, *u1), *u2)
            area_i = sector.area if sector is not None else 0.0
            x_i = area_outside_disk(sector, (px, py), r) if sector is not None else 0.0
        else:
            reflex.append(i)
            h1 = clip_left(P, *u1)
            h2 = clip_right(P, *u2)
            h12 = clip_right(h1, *u2)
            area_i = (
                (h1.area if h1 is not None else 0.0)
                + (h2.area if h2 is not None else 0.0)
                - (h12.area if h12 is not None else 0.0)
            )
            x_i = (
                (area_outside_disk(h1, (px, py), r) if h1 is not None else 0.0)
                + (area_outside_disk(h2, (px, py), r) if h2 is not None else 0.0)
                - (area_outside_disk(h12, (px, py), r) if h12 is not None else 0.0)
            )
        sector_areas.append(area_i)
        if x_i < best:
            best = x_i
            best_idx = i
    return RobustnessReport(
        kind="external",
        value=best / total,
        method="exact",
        witness={
            "type": "sector",
            "index": best_idx,
            "foot_a": list(feet[best_idx].location),
            "foot_b": list(feet[(best_idx + 1) % S].location),
            "area": best,
        },
        details={"S": S, "area": total, "sector_areas": sector_areas},
    )


def _outcome(f, *args):
    """The report's JSON, or the exception's type and message."""
    try:
        return f(*args).to_json()
    except (DegenerateConfiguration, TooFewStable) as exc:
        return f"{type(exc).__name__}: {exc}"


def _bodies():
    rng = np.random.default_rng(17)
    named = [(name, platonic(name)) for name in ("tetra", "cube", "octa", "dodeca", "icosa")]
    named += [(f"prism{k}", generator_prism(k, 1.0)) for k in (3, 5, 8)]
    named += [("cylcut", generator_truncated_cylinder(1, 3))]
    named += [(f"hull{k}", random_hull3(rng, 8 + 4 * k)) for k in range(3)]
    return named


_TARGETS = ("reduce_S", "reduce_U", "reduce_any")


class TestPlaneSearch:
    @pytest.mark.parametrize("index", range(len(_bodies())), ids=[name for name, _ in _bodies()])
    def test_matches_reference(self, index):
        # Every report carries both partial values and its target's witness;
        # tolerances, targets and seeds rotate over the bodies and grids.
        body = _bodies()[index][1]
        for k, grid in enumerate(((2, 2), (4, 4), (9, 7))):
            args = (body, _TARGETS[(index + k) % 3], grid, (1e-4, 1e-7)[(index + k) % 2], 3 * index + k)
            assert _outcome(plane_truncation_search, *args) == _outcome(_plane_search_reference, *args)

    def test_all_targets_match_reference(self):
        for _, body in _bodies()[::3]:
            for target in _TARGETS:
                args = (body, target, (4, 4), 1e-7, 8)
                assert _outcome(plane_truncation_search, *args) == _outcome(_plane_search_reference, *args)

    def test_bracket_around_zero_reports_unsigned_zero(self):
        # The cube's support interval is (-h, h) and its two grid offsets are
        # exact negatives, so a -n bracket bisects to e = +0.0.
        args = (platonic("cube"), "reduce_any", (4, 2), 0.5, 1)
        rep = plane_truncation_search(*args)
        assert rep.to_json() == _plane_search_reference(*args).to_json()
        assert rep.witness["side"] == -1
        assert math.copysign(1.0, rep.witness["offset"]) == 1.0 and rep.witness["offset"] == 0.0

    def test_no_cut_is_clipped_twice(self, monkeypatch):
        cuts = []

        def recording(P, normal, offset):
            cuts.append((tuple(float(c) for c in normal), float(offset)))
            return clip_halfspace3(P, normal, offset)

        monkeypatch.setattr(equilib3d, "clip_halfspace3", recording)
        for body, grid, seed in (
            (platonic("cube"), (4, 4), 1),
            (platonic("tetra"), (9, 7), 2),
            (generator_truncated_cylinder(1, 3), (4, 4), 5),
            (generator_prism(5, 1.0), (6, 5), 0),
        ):
            cuts.clear()
            rep = plane_truncation_search(body, "reduce_any", grid, 1e-7, seed)
            assert rep.status == "ok"
            # The grid, then at least one bracket end or bisection probe.
            assert len(cuts) > 2 * grid[0] * grid[1]
            assert len(set(cuts)) == len(cuts)


class TestRhoExExact:
    def test_random_polygons_match_reference(self):
        rng = np.random.default_rng(23)
        reflex: list = []
        reports = 0
        for k in range(360):
            P = random_convex_polygon(rng, 3 + k % 9)
            for p in [P.centroid] + [random_interior_point(rng, P) for _ in range(3)]:
                assert _outcome(rho_ex_exact, P, p) == _outcome(_rho_ex_exact_reference, P, p, reflex)
                reports += 1
        assert reports == 1440
        assert len(reflex) >= 50

    def test_reflex_quad_matches_reference(self):
        P = polygon_new(REFLEX_QUAD)
        reflex: list = []
        assert rho_ex_exact(P, REFLEX_REF).to_json() == _rho_ex_exact_reference(P, REFLEX_REF, reflex).to_json()
        assert len(reflex) == 1


class TestLineBound:
    def test_more_grids_and_tolerances_match_reference(self):
        rng = np.random.default_rng(29)
        polys = [regular_ngon(S) for S in (3, 7)] + [random_convex_polygon(rng, S) for S in (4, 11)]
        for P in polys:
            for grid in ((12, 48), (13, 2), (5, 3)):
                for refine_tol in (None, 1e-300, 1e-3):
                    got = full_robustness_line_bound(P, *grid, refine_tol).to_json()
                    assert got == _line_bound_reference(P, *grid, refine_tol).to_json()

    def test_bracket_around_zero_reports_unsigned_zero(self):
        # The hexagon is symmetric about the y axis, so the -n family of
        # direction 0 has the grid bracket (-x, x), whose midpoint is +0.0 in
        # either family; one bisection step leaves it as the witness.
        P = polygon_new([(1.378, -0.426), (1.114, 0.043), (0.469, 0.682), (-0.469, 0.682), (-1.114, 0.043), (-1.378, -0.426)])
        lo, hi = P.support_interval(1.0, 0.0)
        refine_tol = 0.75 * (hi - lo) / 11
        rep = full_robustness_line_bound(P, 1, 10, refine_tol)
        assert rep.to_json() == _line_bound_reference(P, 1, 10, refine_tol).to_json()
        assert rep.witness["side"] == -1
        assert math.copysign(1.0, rep.witness["offset"]) == 1.0 and rep.witness["offset"] == 0.0
