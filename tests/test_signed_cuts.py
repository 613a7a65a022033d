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

from equirobust import equilib3d, robust2d, tol
from equirobust.equilib2d import equilibria
from equirobust.equilib3d import _search_counts, classify3, plane_truncation_search
from equirobust.errors import DegenerateConfiguration, TooFewStable
from equirobust.geom2d import ConvexPolygon2, area_outside_disk, clip_halfplane_nd, polygon_new, regular_ngon
from equirobust.geom3d import (
    ConvexPolyhedron3,
    centroid3,
    clip_halfspace3,
    generator_prism,
    generator_truncated_cylinder,
    platonic,
    volume,
)
from equirobust.reports import RobustnessReport
from equirobust.robust2d import full_robustness_line_bound, rho_ex_exact
from equirobust.util import SPECULATE_CELLS, fibonacci_sphere, rotation_from_seed

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
        # Every cut the search makes enters the batched evaluator (which clips
        # the cuts it cannot certify); none enters it twice.
        cuts = []
        evaluate = equilib3d._CutEvaluator3.__call__

        def recording(self, fam, e):
            cuts.extend((tuple(row), float(x)) for row, x in zip(self.M[np.asarray(fam)].tolist(), e))
            return evaluate(self, fam, e)

        monkeypatch.setattr(equilib3d._CutEvaluator3, "__call__", recording)
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

    def test_support_end_is_never_clipped(self, monkeypatch):
        # A bracket with no usable grid cut above its last reducing one runs to
        # the family's support end, where the cut removes nothing.
        # Every cut the search makes enters the batched evaluator.
        at_end = []
        evaluate = equilib3d._CutEvaluator3.__call__

        def recording(self, fam, e):
            at_end.extend(float(x) == float(np.max(self.P.coords @ row)) for row, x in zip(self.M[np.asarray(fam)], e))
            return evaluate(self, fam, e)

        monkeypatch.setattr(equilib3d._CutEvaluator3, "__call__", recording)
        for body, grid, seed in (
            (platonic("cube"), (4, 4), 1),
            (platonic("icosa"), (6, 3), 4),
            (generator_prism(5, 1.0), (6, 5), 0),
        ):
            at_end.clear()
            assert plane_truncation_search(body, "reduce_any", grid, 1e-7, seed).status == "ok"
            assert at_end and not any(at_end)

    def test_earlier_midpoints_are_not_clipped_again(self, monkeypatch):
        # In these searches one bracket's bisection reaches a midpoint that an
        # earlier step already evaluated for another bracket of the same
        # family (4, 3 and 14 times); the search's cut cache answers it.
        cuts = []
        evaluate = equilib3d._CutEvaluator3.__call__

        def recording(self, fam, e):
            cuts.extend((tuple(row), float(x)) for row, x in zip(self.M[np.asarray(fam)].tolist(), e))
            return evaluate(self, fam, e)

        monkeypatch.setattr(equilib3d._CutEvaluator3, "__call__", recording)
        for name, grid, seed in (("tetra", (2, 2), 2), ("octa", (4, 4), 1), ("cube", (6, 5), 1)):
            cuts.clear()
            assert plane_truncation_search(platonic(name), "reduce_any", grid, 1e-7, seed).status == "ok"
            assert len(set(cuts)) == len(cuts)

    @staticmethod
    def _calls(monkeypatch):
        return _counting(monkeypatch, equilib3d._CutEvaluator3)

    def test_two_steps_per_evaluator_call(self, monkeypatch):
        # Each call that a step's midpoints need also takes both of the next
        # step's midpoints per live bracket, so that step makes no call.
        sizes = self._calls(monkeypatch)
        args = (platonic("tetra"), "reduce_any", (4, 4), 1e-4, 0)
        assert plane_truncation_search(*args).to_json() == _plane_search_reference(*args).to_json()
        assert len(sizes) == 8  # the grid, then 13 steps in 7 calls

    def test_no_speculation_above_the_cell_budget(self, monkeypatch):
        # cylcut:1:3 has 832 slots, so a batch stays within SPECULATE_CELLS
        # only for one live bracket.  This search bisects four brackets, two
        # mirror pairs that tie in volume; after 7 steps one pair ends above
        # the other's incumbent and stops, and the tied pair stays live to
        # the end, so every step makes its own call.
        sizes = self._calls(monkeypatch)
        body = generator_truncated_cylinder(1, 3)
        assert 3 * 2 * len(body.tails) > SPECULATE_CELLS
        args = (body, "reduce_any", (4, 4), 1e-4, 0)
        assert plane_truncation_search(*args).to_json() == _plane_search_reference(*args).to_json()
        assert sizes == [32] + [4] * 7 + [2] * 3

    def test_step_cap_matches_reference(self):
        # At refine_tol 1e-300 the brackets never meet the tolerance; the
        # 60-step cap counts steps, not evaluator calls.
        args = (platonic("cube"), "reduce_any", (4, 4), 1e-300, 0)
        assert plane_truncation_search(*args).to_json() == _plane_search_reference(*args).to_json()


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

    def test_two_steps_per_evaluator_call(self, monkeypatch):
        # Each call holds one step's midpoints and, per bracket, step two's
        # candidate on either side where its stop test passes; no call is empty.
        sizes = []
        evaluate = robust2d._CutEvaluator.__call__

        def recording(self, fam, e):
            sizes.append(len(e))
            return evaluate(self, fam, e)

        monkeypatch.setattr(robust2d._CutEvaluator, "__call__", recording)
        P = regular_ngon(8)
        assert full_robustness_line_bound(P, 12, 48, 1e-6).to_json() == _line_bound_reference(P, 12, 48, 1e-6).to_json()
        assert len(sizes) == 8 and all(sizes)


    def test_no_cut_is_evaluated_twice(self, monkeypatch):
        # Every cut of the grid rounds and the bisection enters the batched
        # evaluator once; a step that speculation served makes no call.
        cuts = []
        evaluate = robust2d._CutEvaluator.__call__

        def recording(self, fam, e):
            cuts.extend(zip(*self.M[fam].T.tolist(), np.asarray(e).tolist()))
            return evaluate(self, fam, e)

        monkeypatch.setattr(robust2d._CutEvaluator, "__call__", recording)
        rng = np.random.default_rng(53)
        polys = [regular_ngon(S) for S in (3, 8, 64)] + [random_convex_polygon(rng, S) for S in (6, 9, 30)]
        for P in polys:
            for grid, refine_tol in (((12, 48), 1e-6), ((7, 5), 1e-9), ((30, 16), 1e-4)):
                cuts.clear()
                assert full_robustness_line_bound(P, *grid, refine_tol).status == "ok"
                assert len(cuts) > grid[1]
                assert len(set(cuts)) == len(cuts)


def _shifted3(P, shift):
    """``P`` moved by ``shift`` along a fixed direction.  Built from its face
    cycles directly: far from the origin ``polyhedron_new`` rejects the
    octahedron's triangles as non-planar."""
    return ConvexPolyhedron3(P.coords + shift * np.array([1.0, -0.6, 0.3]), P.faces)


def _shifted2(P, shift):
    return ConvexPolygon2([(x + shift, y - 0.7 * shift) for x, y in P.vertices])


def _counting(monkeypatch, evaluator):
    """Counts the cuts that enter ``evaluator`` (one total per call)."""
    sizes = []
    evaluate = evaluator.__call__

    def recording(self, *args):
        sizes.append(len(args[-1]))
        return evaluate(self, *args)

    monkeypatch.setattr(evaluator, "__call__", recording)
    return sizes


_GRIDS = ((2, 2), (4, 4), (9, 7), (12, 48))
_TOLS = (1e-4, 1e-7, 1e-300)


class TestStopRule:
    """A bracket stops once its non-reducing end removes more than its
    predicate's incumbent plus twice the search's slack.  With an infinite
    slack nothing stops, and every report must stay the same to the byte."""

    @staticmethod
    def _with_and_without(monkeypatch, evaluator, runs):
        sizes = _counting(monkeypatch, evaluator)
        stopped = [_outcome(*run) for run in runs]
        cuts = sum(sizes)
        sizes.clear()
        monkeypatch.setattr(evaluator, "delta", math.inf)
        full = [_outcome(*run) for run in runs]
        return stopped, full, cuts, sum(sizes)

    def test_plane_search_reports_keep_every_byte(self, monkeypatch):
        rng = np.random.default_rng(41)
        bodies = [body for _, body in _bodies()]
        bodies += [random_hull3(rng, 10), random_hull3(rng, 20)]
        bodies += [_shifted3(platonic("octa"), 1e4), _shifted3(platonic("cube"), 1e5)]
        bodies += [_shifted3(random_hull3(rng, 12), 1e3), _shifted3(generator_prism(5, 1.0), 1e5)]
        # Two grids per body; targets, grids and tolerances rotate over them.
        runs = [
            (plane_truncation_search, body, _TARGETS[(i + k) % 3], _GRIDS[(i + k) % 4], _TOLS[(i + 2 * k) % 3], i + k)
            for i, body in enumerate(bodies)
            for k in (0, 2)
        ]
        stopped, full, cuts, full_cuts = self._with_and_without(monkeypatch, equilib3d._CutEvaluator3, runs)
        assert stopped == full
        assert sum(out.startswith("{") for out in full) == len(runs)
        assert cuts < 0.75 * full_cuts

    def test_line_search_reports_keep_every_byte(self, monkeypatch):
        rng = np.random.default_rng(43)
        polys = [regular_ngon(S) for S in (3, 7, 64)] + [random_convex_polygon(rng, S) for S in (4, 11, 30)]
        polys += [_shifted2(regular_ngon(8), 1e3), _shifted2(random_convex_polygon(rng, 6), 1e5)]
        polys += [ConvexPolygon2([(1e6, 1e6), (1e6 + 1, 1e6), (1e6 + 1, 1e6 + 1.5), (1e6, 1e6 + 1)])]
        runs = [
            (full_robustness_line_bound, P, *grid, _TOLS[(i + k) % 3])
            for i, P in enumerate(polys)
            for k, grid in enumerate(_GRIDS)
        ]
        stopped, full, cuts, full_cuts = self._with_and_without(monkeypatch, robust2d._CutEvaluator, runs)
        assert stopped == full
        assert cuts < 0.9 * full_cuts

    def test_pinned_dodecahedron_at_cli_grid(self, monkeypatch):
        # The CLI's default 32 x 16 grid: the stop rule halves the calls and
        # the cuts, and the report stays the same.
        args = (platonic("dodeca"), "reduce_any", (32, 16), 1e-4, 5)
        sizes = _counting(monkeypatch, equilib3d._CutEvaluator3)
        got = plane_truncation_search(*args).to_json()
        assert (len(sizes), sum(sizes)) == (6, 1100)
        sizes.clear()
        monkeypatch.setattr(equilib3d._CutEvaluator3, "delta", math.inf)
        assert plane_truncation_search(*args).to_json() == got
        assert (len(sizes), sum(sizes)) == (11, 2202)

    @staticmethod
    def _centres(lo, hi, levels):
        """Offsets around which the rise tests probe: three inside the support
        interval ``(lo, hi)`` and each of the vertex ``levels`` strictly inside
        it, where the clip keeps a vertex on the plane or merges points."""
        return list(np.linspace(lo, hi, 5)[1:-1]) + [float(x) for x in levels if lo < x < hi]

    def test_computed_volume_removed_rises_less_than_slack(self):
        # 200 offsets spanning 1e-9 of the support width around each centre.
        seen = {}
        for shift in (0.0, 1e5):
            for name in ("octa", "dodeca"):
                P = _shifted3(platonic(name), shift)
                normals = fibonacci_sphere(2)
                evaluate = equilib3d._CutEvaluator3(P, normals)
                delta = evaluate.delta
                worst = 0.0
                for f, n in enumerate(normals):
                    lo, hi = P.support_interval(n)
                    for c in self._centres(lo, hi, (P.coords @ n)[:2]):
                        e = c + np.linspace(-0.5e-9, 0.5e-9, 200) * (hi - lo)
                        rel = evaluate(np.full(len(e), f), e)[0]
                        worst = max(worst, float(np.diff(rel).max()))
                assert worst <= delta
                seen[name, shift] = worst
        # Far from the origin the rounding alone lifts the fraction by more
        # than any fixed 1e-12.
        assert max(seen[name, 1e5] for name in ("octa", "dodeca")) > 1e-12

    def test_computed_area_removed_rises_less_than_slack(self):
        rng = np.random.default_rng(47)
        seen = {}
        for shift in (0.0, 1e3, 1e5):
            for P in (_shifted2(regular_ngon(8), shift), _shifted2(random_convex_polygon(rng, 12), shift)):
                normals = [(math.cos(theta), math.sin(theta)) for theta in (0.1, 1.3, 2.2)]
                evaluate = robust2d._CutEvaluator(P, normals)
                delta = evaluate.delta
                worst = 0.0
                for f, (nx, ny) in enumerate(normals):
                    lo, hi = P.support_interval(nx, ny)
                    for c in self._centres(lo, hi, [nx * x + ny * y for x, y in P.vertices]):
                        e = c + np.linspace(-0.5e-9, 0.5e-9, 200) * (hi - lo)
                        kept = evaluate(np.full(len(e), f), e)[0]
                        worst = max(worst, float(np.diff(1.0 - kept).max()))
                assert worst <= delta
                seen[shift] = max(seen.get(shift, 0.0), worst)
        assert seen[1e5] > 1e-12


class TestNoReducingCut:
    def test_plane_search_with_one_stable_and_one_unstable_point_returns_at_once(self, monkeypatch):
        # No body known has S = U = 1, so the base classification is faked;
        # the reference still reads every grid cut and bisects nothing, as no
        # usable piece has S < 1 or U < 1.
        class OneAndOne:
            S = U = 1
            any_degenerate = False

        monkeypatch.setattr(equilib3d, "classify3", lambda P, p: OneAndOne())
        monkeypatch.setitem(globals(), "classify3", lambda P, p: OneAndOne())
        sizes = _counting(monkeypatch, equilib3d._CutEvaluator3)
        for body in (platonic("cube"), generator_prism(5, 1.0)):
            for target in _TARGETS:
                args = (body, target, (4, 4), 1e-4, 3)
                got = plane_truncation_search(*args)
                assert sizes == [] and got.status == "no_reduction_found"
                assert got.to_json() == _plane_search_reference(*args).to_json()
