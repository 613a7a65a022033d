import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from equirobust import robust2d
from equirobust.errors import DegenerateConfiguration, TooFewStable
from equirobust.geom2d import clip_halfplane_nd, polygon_new, regular_ngon, strip_cover_admits
from equirobust.robust2d import (
    TruncationSample,
    _piece_stable,
    average_robustness,
    dowker_area,
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

from conftest import random_convex_polygon, random_interior_point


def unit_square():
    return polygon_new([(0, 0), (1, 0), (1, 1), (0, 1)])


def rect_3x1():
    return polygon_new([(-1.5, -0.5), (1.5, -0.5), (1.5, 0.5), (-1.5, 0.5)])


# Quadrilateral whose stable feet, seen from (0.5, 0.55), leave a gap wider
# than a half turn between the bottom and top feet.
REFLEX_QUAD = [(0, 0), (4, 0), (6, 1.5), (0, 1.2)]
REFLEX_REF = (0.5, 0.55)


class TestClosedForms:
    def test_external_values(self):
        assert rho_regular_closed(3, "external") == pytest.approx(0.13180007064064242, abs=1e-15)
        assert rho_regular_closed(4, "external") == pytest.approx(0.053650459150637909, abs=1e-15)
        assert rho_regular_closed(6, "external") == pytest.approx(0.015516719647148521, abs=1e-15)

    def test_square_external_from_quarter_disk(self):
        # Independent derivation: quarter of the unit square minus the quarter
        # disk of radius 1/2 around the center.
        expected = (0.25 - math.pi * 0.25 / 4.0) / 1.0
        assert rho_regular_closed(4, "external") == pytest.approx(expected, abs=1e-15)

    def test_internal_is_half_reciprocal(self):
        for S in range(3, 40):
            assert rho_regular_closed(S, "internal") == pytest.approx(1.0 / (2 * S), abs=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rho_regular_closed(2, "internal")
        with pytest.raises(ValueError):
            rho_regular_closed(5, "sideways")

    def test_dowker_values(self):
        assert dowker_area(3) == pytest.approx(3.0 * math.sqrt(3.0), abs=1e-12)
        assert dowker_area(4) == pytest.approx(4.0, abs=1e-12)
        assert dowker_area(6) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)

    def test_dowker_decreases_to_pi(self):
        prev = dowker_area(3)
        for n in range(4, 200):
            cur = dowker_area(n)
            assert cur < prev
            prev = cur
        assert prev > math.pi

    def test_dowker_convexity_full_range(self):
        for n in range(4, 65):
            for k in range(1, n - 2):
                if n + k <= 64 and n - k >= 3:
                    assert dowker_convexity_check(n, k)

    def test_dowker_preconditions(self):
        with pytest.raises(ValueError):
            dowker_area(2)
        with pytest.raises(ValueError):
            dowker_convexity_check(6, 0)
        with pytest.raises(ValueError):
            dowker_convexity_check(6, 4)


class TestInternalExact:
    def test_rectangle_center(self):
        rep = rho_in_exact(rect_3x1(), (0, 0))
        assert rep.value == pytest.approx(0.0625, abs=1e-15)
        assert rep.kind == "internal"
        assert rep.method == "exact"

    def test_square_off_center(self):
        rep = rho_in_exact(unit_square(), (0.6, 0.5))
        assert rep.value == pytest.approx(0.1, abs=1e-15)

    def test_regular_ngon_closed_form(self):
        for S in range(3, 13):
            rep = rho_in_exact(regular_ngon(S), (0, 0))
            assert rep.value == pytest.approx(rho_regular_closed(S, "internal"), abs=1e-12)

    def test_rays_match_lines_for_interior_reference(self, rng):
        # For an interior reference the perpendicular foot on each candidate
        # line falls on the inward half, so both variants must agree.
        for _ in range(100):
            P = random_convex_polygon(rng, int(rng.integers(3, 9)))
            p = random_interior_point(rng, P)
            try:
                a = rho_in_exact(P, p).value
                b = rho_in_exact(P, p, rays_only=True).value
            except DegenerateConfiguration:
                continue
            assert b == pytest.approx(a, rel=1e-12, abs=1e-15)

    def test_similarity_invariance(self, rng):
        for _ in range(50):
            P = random_convex_polygon(rng, int(rng.integers(3, 9)))
            p = random_interior_point(rng, P)
            try:
                base = rho_in_exact(P, p).value
            except DegenerateConfiguration:
                continue
            c, s = math.cos(0.7), math.sin(0.7)
            scale = 7.5
            moved = polygon_new([(scale * (c * x - s * y) + 3, scale * (s * x + c * y) - 2) for x, y in P.vertices])
            q = (scale * (c * p[0] - s * p[1]) + 3, scale * (s * p[0] + c * p[1]) - 2)
            assert rho_in_exact(moved, q).value == pytest.approx(base, rel=1e-9)

    def test_witness_names_a_caustic(self):
        rep = rho_in_exact(unit_square(), (0.6, 0.5))
        assert rep.witness["type"] == "caustic_line"
        assert 0 <= rep.witness["vertex"] < 4
        assert rep.witness["distance"] == pytest.approx(0.4, abs=1e-15)

    def test_degenerate_reference_rejected(self):
        P = polygon_new([(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)])
        # The foot of (1, 1) on the right edge sits exactly on its top vertex.
        with pytest.raises(DegenerateConfiguration):
            rho_in_exact(P, (1, 1))


class TestInternalSampled:
    def test_square_center(self):
        rep = rho_in_sampled(unit_square(), (0.5, 0.5))
        assert rep.method == "sampled"
        assert rep.value == pytest.approx(0.125, abs=1e-6)
        assert rep.value >= 0.125 - 1e-12  # sampling can only overshoot

    def test_rectangle_center(self):
        rep = rho_in_sampled(rect_3x1(), (0, 0))
        assert rep.value == pytest.approx(0.0625, abs=1e-6)

    @pytest.mark.parametrize("directions", [0, -3])
    def test_directions_must_be_positive(self, directions):
        with pytest.raises(ValueError, match="^directions must be positive$"):
            rho_in_sampled(unit_square(), (0.5, 0.5), directions=directions)

    def test_one_direction_is_enough(self):
        rep = rho_in_sampled(unit_square(), (0.5, 0.5), directions=1)
        assert rep.details["directions"] == 1
        assert rep.value == pytest.approx(0.125, abs=1e-6)

    def test_matches_exact_on_random_polygons(self, rng):
        for _ in range(10):
            P = random_convex_polygon(rng, int(rng.integers(4, 9)))
            p = P.centroid
            try:
                exact = rho_in_exact(P, p).value
            except DegenerateConfiguration:
                continue
            sampled = rho_in_sampled(P, p).value
            assert abs(sampled - exact) <= max(2e-6, 5e-3 * exact)

    def test_strip_cover_of_unstable_hull(self, rng):
        # The disk of radius rho_in * perimeter around the reference admits a
        # strip cover by the sides of the convex hull of the unstable points.
        from equirobust.equilib2d import equilibria
        from equirobust.errors import DegenerateInput

        checked = 0
        while checked < 50:
            P = random_convex_polygon(rng, int(rng.integers(3, 9)))
            p = random_interior_point(rng, P)
            try:
                eq = equilibria(P, p)
                rho = rho_in_exact(P, p).value
            except DegenerateConfiguration:
                continue
            if eq.S < 3:
                continue
            try:
                hull = polygon_new([e.location for e in eq.points if e.kind == "unstable"])
            except DegenerateInput:
                continue
            assert strip_cover_admits(hull, p, rho * P.perimeter * (1.0 - 1e-9))
            checked += 1

    def test_square_strip_cover_transition(self):
        P = unit_square()
        assert strip_cover_admits(P, (0.5, 0.5), 0.5)
        assert not strip_cover_admits(P, (0.5, 0.5), 0.51)


class TestExternalExact:
    def test_square_center(self):
        rep = rho_ex_exact(unit_square(), (0.5, 0.5))
        assert rep.value == pytest.approx(0.053650459150637909, abs=1e-12)
        assert rep.kind == "external"

    def test_regular_ngon_closed_form(self):
        for S in range(3, 9):
            rep = rho_ex_exact(regular_ngon(S), (0, 0))
            assert rep.value == pytest.approx(rho_regular_closed(S, "external"), abs=1e-10)

    def test_sector_partition_square(self):
        rep = rho_ex_exact(unit_square(), (0.5, 0.5))
        assert sum(rep.details["sector_areas"]) == pytest.approx(1.0, abs=1e-12)

    def test_right_triangle_partition_and_positivity(self):
        P = polygon_new([(0, 0), (4, 0), (0, 3)])
        rep = rho_ex_exact(P, P.centroid)
        assert sum(rep.details["sector_areas"]) == pytest.approx(P.area, abs=1e-10)
        assert 0.0 < rep.value < 1.0

    def test_right_triangle_monte_carlo(self, rng):
        P = polygon_new([(0, 0), (4, 0), (0, 3)])
        p = P.centroid
        rep = rho_ex_exact(P, p)
        feet = [(w["foot_a"], w["foot_b"]) for w in [rep.witness]][0]
        # Monte Carlo estimate of the winning sector's truncation area.
        n = 400_000
        pts = np.column_stack([rng.uniform(0, 4, n), rng.uniform(0, 3, n)])
        inside = (pts[:, 1] >= 0) & (pts[:, 0] >= 0) & (3 * pts[:, 0] + 4 * pts[:, 1] <= 12)
        a = np.array(feet[0]) - p
        b = np.array(feet[1]) - p
        rel = pts - np.asarray(p)
        in_wedge = (a[0] * rel[:, 1] - a[1] * rel[:, 0] >= 0) & (b[0] * rel[:, 1] - b[1] * rel[:, 0] <= 0)
        r = max(np.hypot(*a), np.hypot(*b))
        far = np.hypot(rel[:, 0], rel[:, 1]) > r
        est = (inside & in_wedge & far).sum() / n * 12.0
        exact = rep.witness["area"]
        sigma = 12.0 * math.sqrt(max(exact / 12.0, 1e-9) / n)
        assert abs(est - exact) <= 5 * sigma

    def test_reflex_sector_partition(self):
        P = polygon_new(REFLEX_QUAD)
        rep = rho_ex_exact(P, REFLEX_REF)
        assert rep.details["S"] == 3
        assert sum(rep.details["sector_areas"]) == pytest.approx(P.area, abs=1e-10)
        assert rep.value == pytest.approx(0.0042901855190293405, abs=1e-12)

    def test_reflex_sector_really_is_reflex(self):
        from equirobust.equilib2d import equilibria

        P = polygon_new(REFLEX_QUAD)
        eq = equilibria(P, REFLEX_REF)
        feet = [e.location for e in eq.points if e.kind == "stable"]
        angs = [math.atan2(y - REFLEX_REF[1], x - REFLEX_REF[0]) for x, y in feet]
        spans = [(angs[(i + 1) % 3] - angs[i]) % (2 * math.pi) for i in range(3)]
        assert max(spans) > math.pi + 1e-3
        assert sum(spans) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_partition_on_random_polygons(self, rng):
        checked = 0
        while checked < 40:
            P = random_convex_polygon(rng, int(rng.integers(4, 9)))
            p = random_interior_point(rng, P)
            try:
                rep = rho_ex_exact(P, p)
            except (DegenerateConfiguration, TooFewStable):
                continue
            assert sum(rep.details["sector_areas"]) == pytest.approx(P.area, rel=1e-9)
            assert rep.value >= 0.0
            checked += 1

    def test_too_few_stable(self):
        P = polygon_new([(0, 0), (1, 0), (0.9, 0.1)])
        with pytest.raises(TooFewStable):
            rho_ex_exact(P, P.centroid)

    def test_degenerate_reference_rejected(self):
        P = polygon_new([(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)])
        with pytest.raises(DegenerateConfiguration):
            rho_ex_exact(P, (1, 1))


class TestFullLineBound:
    def test_square(self):
        rep = full_robustness_line_bound(unit_square(), grid_theta=60, grid_offset=24)
        assert rep.status == "ok"
        # Best found: a diagonal corner cut at the depth where the piece loses
        # two feet at once.
        assert rep.witness["theta"] == pytest.approx(3 * math.pi / 4, abs=1e-12)
        assert rep.value == pytest.approx(0.1556121, abs=2e-4)

    def test_square_value_bounded(self):
        rep = full_robustness_line_bound(unit_square(), grid_theta=60, grid_offset=24)
        assert 0.0 < rep.value < 0.5

    def test_refinement_does_not_increase(self):
        coarse = full_robustness_line_bound(unit_square(), grid_theta=30, grid_offset=12)
        fine = full_robustness_line_bound(unit_square(), grid_theta=60, grid_offset=24)
        assert fine.value <= coarse.value + 1e-9

    def test_rectangle_finds_cheap_oblique_cut(self):
        rep = full_robustness_line_bound(rect_3x1(), grid_theta=60, grid_offset=24)
        assert rep.status == "ok"
        assert rep.value < 0.05

    def test_no_reduction_status(self):
        rep = full_robustness_line_bound(unit_square(), grid_theta=1, grid_offset=1)
        assert rep.status == "no_reduction_found"
        assert rep.value is None

    def test_refinement_toggle(self):
        rough = full_robustness_line_bound(unit_square(), grid_theta=30, grid_offset=12, refine_tol=None)
        refined = full_robustness_line_bound(unit_square(), grid_theta=30, grid_offset=12, refine_tol=1e-6)
        assert refined.value <= rough.value + 1e-12


class TestSweep:
    def test_row_bookkeeping(self):
        rows, summary = truncation_sweep(unit_square(), 500, seed=42)
        assert len(rows) == 1000
        for i in range(500):
            a, b = rows[2 * i], rows[2 * i + 1]
            assert a.theta == b.theta and a.offset == b.offset
            assert a.side == +1 and b.side == -1
            if not (a.degenerate or b.degenerate):
                assert a.relative_area + b.relative_area == pytest.approx(1.0, abs=1e-9)

    def test_square_outcomes(self):
        rows, _ = truncation_sweep(unit_square(), 2000, seed=42)
        cats = {r.delta_S for r in rows if not r.degenerate}
        assert cats <= {-1, 0, 1}
        degenerate = sum(r.degenerate for r in rows)
        assert degenerate / len(rows) < 0.01

    def test_small_pieces_lose_large_pieces_keep(self):
        _, summary = truncation_sweep(unit_square(), 4000, seed=42)
        f0 = summary.fractions(0)
        assert f0[-1] > 0.5
        assert f0[0] < 0.1

    def test_determinism(self):
        rows_a, summ_a = truncation_sweep(unit_square(), 300, seed=7)
        rows_b, summ_b = truncation_sweep(unit_square(), 300, seed=7)
        assert sweep_csv(rows_a) == sweep_csv(rows_b)
        assert summary_csv(summ_a) == summary_csv(summ_b)
        rows_c, _ = truncation_sweep(unit_square(), 300, seed=8)
        assert sweep_csv(rows_c) != sweep_csv(rows_a)

    def test_csv_headers(self):
        rows, summary = truncation_sweep(unit_square(), 50, seed=1)
        assert sweep_csv(rows).splitlines()[0] == "theta,offset,side,relative_area,piece_S,delta_S,degenerate"
        lines = summary_csv(summary).splitlines()
        assert lines[0] == "bin_lo,bin_hi,frac_dS_-2,frac_dS_-1,frac_dS_0,frac_dS_+1,frac_degenerate"
        assert len(lines) == 21

    def test_summary_rejects_out_of_schema_delta(self):
        rows = [TruncationSample(0.1, 0.2, 1, 0.3, 1, -3, False)]
        summary = summarize_sweep(rows, bins=5)
        with pytest.raises(ValueError):
            summary_csv(summary)

    def test_fraction_rows_sum_to_one(self):
        _, summary = truncation_sweep(unit_square(), 1000, seed=3)
        total = np.zeros(len(summary.totals))
        for cat in summary.counts:
            total += summary.fractions(cat)
        occupied = summary.totals > 0
        assert np.allclose(total[occupied], 1.0)

    def test_svg_well_formed(self):
        _, summary = truncation_sweep(unit_square(), 500, seed=5)
        svg = summary_svg(summary)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polys = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polys) >= 2
        assert 'width="800"' in svg and 'height="600"' in svg

    def test_sliver_with_centroid_near_boundary_is_degenerate(self, monkeypatch):
        # y <= 2e-9 keeps a valid sliver whose centroid lies within eps of its
        # boundary, so it cannot be classified at its own centroid.
        sq = unit_square()
        sliver = clip_halfplane_nd(sq, 0.0, 1.0, 2e-9)
        assert sliver is not None and sliver is not sq
        assert _piece_stable(sq, sliver) is None
        line = (np.array([math.pi / 2]), np.array([2e-9]))
        monkeypatch.setattr(robust2d, "_draw_sweep_lines", lambda P, samples, seed: line)
        rows, _ = truncation_sweep(sq, 1, seed=0)
        assert rows[0].degenerate and rows[0].piece_S is None
        assert rows[0].relative_area == sliver.area
        assert not rows[1].degenerate

    def test_input_validation(self):
        with pytest.raises(ValueError):
            truncation_sweep(unit_square(), 0, seed=1)
        with pytest.raises(ValueError):
            summarize_sweep([], bins=0)


class TestAverageRobustness:
    def test_single_cut_matches_sweep_fraction(self):
        rows, _ = truncation_sweep(unit_square(), 2000, seed=42)
        frac0 = sum(1 for r in rows if not r.degenerate and r.delta_S == 0) / len(rows)
        mu1 = average_robustness(unit_square(), 1, 2000, seed=11)
        assert abs(mu1 - frac0) < 0.05

    def test_more_cuts_less_neutral(self):
        mu1 = average_robustness(unit_square(), 1, 1500, seed=11)
        mu2 = average_robustness(unit_square(), 2, 1500, seed=11)
        assert mu2 <= mu1 + 0.04

    def test_determinism(self):
        a = average_robustness(unit_square(), 1, 400, seed=9)
        b = average_robustness(unit_square(), 1, 400, seed=9)
        assert a == b

    def test_range_and_validation(self):
        mu = average_robustness(unit_square(), 1, 200, seed=2)
        assert 0.0 <= mu <= 1.0
        with pytest.raises(ValueError):
            average_robustness(unit_square(), 0, 10, seed=1)
        with pytest.raises(ValueError):
            average_robustness(unit_square(), 1, 0, seed=1)
