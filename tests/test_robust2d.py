import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from equirobust import robust2d
from equirobust.errors import DegenerateConfiguration, TooFewStable
from equirobust.geom2d import clip_halfplane_nd, polygon_new, regular_ngon, strip_cover_admits
from equirobust.robust2d import (
    TruncationSweep,
    _piece_stable,
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

from conftest import assert_summary_is_reference, random_convex_polygon, random_interior_point


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

    @pytest.mark.parametrize("directions", [2.5, True, np.float64(8)])
    def test_directions_must_be_an_integer(self, directions):
        # 2.5 used to walk 3 directions spaced 2pi/2.5 apart, True one direction.
        with pytest.raises(ValueError, match="^directions must be an integer$"):
            rho_in_sampled(unit_square(), (0.5, 0.5), directions=directions)

    def test_numpy_integer_directions_are_stored_as_int(self):
        rep = rho_in_sampled(unit_square(), (0.5, 0.5), directions=np.int64(16))
        assert type(rep.details["directions"]) is int
        assert rep.to_json() == rho_in_sampled(unit_square(), (0.5, 0.5), directions=16).to_json()

    @pytest.mark.parametrize("tol_step", [0.0, -1e-6, math.nan, math.inf, -math.inf])
    def test_tol_step_must_be_positive_and_finite(self, tol_step):
        # NaN used to skip the bisection (0.12507 for 0.125), zero or a
        # negative value to run 200 bisection steps per direction.
        with pytest.raises(ValueError, match="^tol_step must be a positive finite number$"):
            rho_in_sampled(unit_square(), (0.5, 0.5), tol_step=tol_step)

    def test_numpy_float_tol_step_is_stored_as_float(self):
        # A float32 used to reach the report and fail its JSON.
        tol = np.float32(1e-6)
        rep = rho_in_sampled(unit_square(), (0.5, 0.5), directions=16, tol_step=tol)
        assert type(rep.details["tol"]) is float
        assert rep.to_json() == rho_in_sampled(unit_square(), (0.5, 0.5), directions=16, tol_step=float(tol)).to_json()

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

    def test_support_intervals_match_the_scalar_supports(self, rng):
        # The line search's supports, bit for bit: zero projections of both
        # signs tie at the extremes on the squares, where the first one wins.
        grid = [(math.cos(j * math.pi / 180), math.sin(j * math.pi / 180)) for j in range(180)]
        axes = [(a, b) for a in (1.0, -1.0, 0.0, -0.0) for b in (1.0, -1.0, 0.0, -0.0) if abs(a) != abs(b)]
        drawn = rng.normal(size=(50, 2)).tolist()
        normals = np.array(grid + axes + drawn)
        squares = [unit_square(), polygon_new([(-0.0, -0.0), (1, 0), (1, 1), (0, 1)])]
        zeros = set()
        for P in squares + [random_convex_polygon(rng, n) for n in (3, 8, 64)]:
            lo, hi = robust2d._support_intervals(P, normals)
            want_lo, want_hi = np.array([P.support_interval(nx, ny) for nx, ny in normals.tolist()]).T
            assert (lo.view(np.int64) == want_lo.view(np.int64)).all()
            assert (hi.view(np.int64) == want_hi.view(np.int64)).all()
            zeros |= {math.copysign(1.0, z) for z in np.concatenate([want_lo, want_hi]).tolist() if z == 0.0}
        assert zeros == {1.0, -1.0}

    def test_refinement_toggle(self):
        rough = full_robustness_line_bound(unit_square(), grid_theta=30, grid_offset=12, refine_tol=None)
        refined = full_robustness_line_bound(unit_square(), grid_theta=30, grid_offset=12, refine_tol=1e-6)
        assert refined.value <= rough.value + 1e-12


class TestSweep:
    def test_row_bookkeeping(self):
        sweep, summary = truncation_sweep(unit_square(), 500, seed=42)
        assert len(sweep) == 1000
        for column in (sweep.theta, sweep.offset, sweep.side, sweep.relative_area, sweep.piece_S):
            assert column.shape == (1000,)
        assert np.array_equal(sweep.theta[0::2], sweep.theta[1::2])
        assert np.array_equal(sweep.offset[0::2], sweep.offset[1::2])
        assert (sweep.side[0::2] == +1).all() and (sweep.side[1::2] == -1).all()
        both = ~(sweep.degenerate[0::2] | sweep.degenerate[1::2])
        area_sums = (sweep.relative_area[0::2] + sweep.relative_area[1::2])[both]
        assert area_sums == pytest.approx(np.ones(len(area_sums)), abs=1e-9)

    def test_square_outcomes(self):
        sweep, _ = truncation_sweep(unit_square(), 2000, seed=42)
        assert np.array_equal(sweep.degenerate, sweep.piece_S == -1)
        cats = set((sweep.piece_S - sweep.S0)[~sweep.degenerate].tolist())
        assert cats <= {-1, 0, 1}
        assert sweep.degenerate.sum() / len(sweep) < 0.01

    def test_small_pieces_lose_large_pieces_keep(self):
        _, summary = truncation_sweep(unit_square(), 4000, seed=42)
        f0 = summary.fractions(0)
        assert f0[-1] > 0.5
        assert f0[0] < 0.1

    def test_determinism(self):
        sweep_a, summ_a = truncation_sweep(unit_square(), 300, seed=7)
        sweep_b, summ_b = truncation_sweep(unit_square(), 300, seed=7)
        assert sweep_csv(sweep_a) == sweep_csv(sweep_b)
        assert summary_csv(summ_a) == summary_csv(summ_b)
        sweep_c, _ = truncation_sweep(unit_square(), 300, seed=8)
        assert sweep_csv(sweep_c) != sweep_csv(sweep_a)

    def test_csv_headers(self):
        sweep, summary = truncation_sweep(unit_square(), 50, seed=1)
        assert sweep_csv(sweep).splitlines()[0] == "theta,offset,side,relative_area,piece_S,delta_S,degenerate"
        lines = summary_csv(summary).splitlines()
        assert lines[0] == "bin_lo,bin_hi,frac_dS_-2,frac_dS_-1,frac_dS_0,frac_dS_+1,frac_degenerate"
        assert len(lines) == 21

    def test_csv_formats_each_row_as_its_own_values(self):
        # sweep_csv formats theta and offset once per run of equal rows; rows
        # that differ only in the sign of a zero, and a one-row sweep, keep
        # their own text.
        def row_by_row(sweep):
            lines = ["theta,offset,side,relative_area,piece_S,delta_S,degenerate"]
            columns = (sweep.theta, sweep.offset, sweep.side, sweep.relative_area, sweep.piece_S)
            for t, o, side, rel, s in zip(*(c.tolist() for c in columns)):
                tail = ",,1" if s < 0 else f"{s},{s - sweep.S0},0"
                lines.append(",".join([format(t, ".17g"), format(o, ".17g"), str(side), format(rel, ".17g"), tail]))
            return "\n".join(lines) + "\n"

        one = TruncationSweep(4, np.array([0.1]), np.array([0.2]), np.array([1]), np.array([0.3]), np.array([-1]))
        signed = TruncationSweep(
            3,
            np.array([0.0, 0.0, -0.0, -0.0, 0.5]),
            np.array([-0.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([1, -1, 1, -1, 1]),
            np.array([0.25, 0.75, 0.5, 0.5, 1.0]),
            np.array([2, 3, -1, 4, 3]),
        )
        swept, _ = truncation_sweep(unit_square(), 50, seed=1)
        for sweep in (one, signed, swept):
            assert sweep_csv(sweep) == row_by_row(sweep)
        assert sweep_csv(signed).splitlines()[1:3] == ["0,-0,1,0.25,2,-1,0", "0,0,-1,0.75,3,0,0"]

    def test_summary_rejects_out_of_schema_delta(self):
        # Both renderers refuse the first delta-S outside -2..+1 in counts
        # order; the chart does not draw -2..+1 alone.  A 9-gon's pieces
        # reach delta-S -7.
        one = TruncationSweep(4, np.array([0.1]), np.array([0.2]), np.array([1]), np.array([0.3]), np.array([1]))
        summary = summarize_sweep(one, bins=5)
        assert list(summary.counts) == [-3]
        _, nine = truncation_sweep(regular_ngon(9), 300, seed=4)
        for summary, delta in ((summary, -3), (nine, -5)):
            for render in (summary_csv, summary_svg):
                with pytest.raises(ValueError, match=f"^delta_S={delta} does not fit the summary schema$"):
                    render(summary)

    @pytest.mark.parametrize("lines", [100, 20_000])
    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_summary_matches_reference(self, n, lines):
        sweep, summary = truncation_sweep(regular_ngon(n), lines, seed=n)
        assert_summary_is_reference(summary, sweep, 20)
        assert_summary_is_reference(summarize_sweep(sweep, 1), sweep, 1)

    @pytest.mark.parametrize("bins", [1, 20])
    def test_summary_of_degenerate_and_one_row_sweeps_matches_reference(self, bins):
        # Degenerate rows come first and between others, yet their category
        # is listed last; relative areas sit on bin edges and at 1.0.
        mixed = TruncationSweep(
            4,
            np.zeros(8),
            np.zeros(8),
            np.tile([1, -1], 4),
            np.array([0.05, 0.95, 0.5, 1.0, 0.0, 0.25, 0.3, 0.7]),
            np.array([-1, 4, 3, -1, 5, 3, -1, 2]),
        )
        one = TruncationSweep(4, np.array([0.1]), np.array([0.2]), np.array([1]), np.array([0.3]), np.array([3]))
        one_bad = TruncationSweep(4, np.array([0.1]), np.array([0.2]), np.array([1]), np.array([1.0]), np.array([-1]))
        for sweep in (mixed, one, one_bad):
            assert_summary_is_reference(summarize_sweep(sweep, bins), sweep, bins)
        assert list(summarize_sweep(mixed, bins).counts) == [0, -1, 1, -2, "degenerate"]

    def test_rows_alone_never_count(self, monkeypatch):
        def refuse(sweep, bins):
            raise AssertionError("summary counted")

        monkeypatch.setattr(robust2d, "_count_outcomes", refuse)
        sweep, summary = truncation_sweep(unit_square(), 50, seed=1)
        sweep_csv(sweep)
        assert len(summary.bin_edges) == 21
        with pytest.raises(AssertionError, match="summary counted"):
            summary.counts

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

    def test_sweep_retains_little_memory(self):
        # A 20,000-line sweep is five columns of 40,000 rows, 1.6 MB; a row
        # object per piece kept 7.7 MB.
        truncation_sweep(unit_square(), 20_000, seed=7)
        tracemalloc.start()
        try:
            result = truncation_sweep(unit_square(), 20_000, seed=7)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result[0]) == 40_000
        assert retained < 3e6

    def test_sliver_with_centroid_near_boundary_is_degenerate(self, monkeypatch):
        # y <= 2e-9 keeps a valid sliver whose centroid lies within eps of its
        # boundary, so it cannot be classified at its own centroid.
        sq = unit_square()
        sliver = clip_halfplane_nd(sq, 0.0, 1.0, 2e-9)
        assert sliver is not None and sliver is not sq
        assert _piece_stable(sq, sliver) is None
        line = (np.array([math.pi / 2]), np.array([2e-9]))
        monkeypatch.setattr(robust2d, "_draw_sweep_lines", lambda P, samples, seed: line)
        sweep, _ = truncation_sweep(sq, 1, seed=0)
        assert sweep.degenerate[0] and sweep.piece_S[0] == -1
        assert sweep.relative_area[0] == sliver.area
        assert not sweep.degenerate[1]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            truncation_sweep(unit_square(), 0, seed=1)
        sweep, _ = truncation_sweep(unit_square(), 1, seed=1)
        with pytest.raises(ValueError):
            summarize_sweep(sweep, bins=0)

    @pytest.mark.parametrize("samples, bins", [(2.5, 20), (True, 20), (4, 2.5), (4, True), (np.float64(4), 20)])
    def test_counts_must_be_integers(self, samples, bins):
        with pytest.raises(ValueError, match="^(samples|bins) must be an integer$"):
            truncation_sweep(unit_square(), samples, 1, bins=bins)

    @pytest.mark.parametrize("seed", [1.5, True, np.float64(3)])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            truncation_sweep(unit_square(), 4, seed)

    @pytest.mark.parametrize("seed", [-1, 2**128, np.int64(-1)])
    def test_seed_outside_the_key_range_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*128\)$"):
            truncation_sweep(unit_square(), 4, seed)

    def test_largest_uint64_seed_is_a_key(self):
        sweep, _ = truncation_sweep(unit_square(), 4, np.uint64(2**64 - 1))
        assert sweep_csv(sweep) == sweep_csv(truncation_sweep(unit_square(), 4, 2**64 - 1)[0])

    @pytest.mark.parametrize("bins", [2.5, True, np.float64(4)])
    def test_summary_bins_must_be_an_integer(self, bins):
        sweep, _ = truncation_sweep(unit_square(), 1, seed=1)
        with pytest.raises(ValueError, match="^bins must be an integer$"):
            summarize_sweep(sweep, bins=bins)

    @pytest.mark.parametrize("bins", [np.uint8(255), np.int8(127)])
    def test_summary_bins_at_their_dtype_maximum(self, bins):
        sweep, _ = truncation_sweep(unit_square(), 30, seed=3)
        for summary in (summarize_sweep(sweep, bins), truncation_sweep(unit_square(), 30, 3, bins=bins)[1]):
            assert summary.bins == int(bins) and type(summary.bins) is int
            assert len(summary.bin_edges) == int(bins) + 1 and len(summary.totals) == int(bins)
            assert_summary_is_reference(summary, sweep, bins)

    def test_numpy_integer_counts_are_accepted(self):
        sweep, summary = truncation_sweep(unit_square(), np.int64(30), np.int64(3), bins=np.int32(7))
        want, want_summary = truncation_sweep(unit_square(), 30, 3, bins=7)
        assert sweep_csv(sweep) == sweep_csv(want)
        assert summary_csv(summary) == summary_csv(want_summary)
        assert summary_csv(summarize_sweep(sweep, np.uint8(7))) == summary_csv(want_summary)
