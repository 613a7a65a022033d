"""The batched 2D cut evaluator against the scalar clip-and-classify path.

The reference functions below are the one-cut-at-a-time loops that
``truncation_sweep`` and ``full_robustness_line_bound`` ran before the
batched evaluator replaced them (the line search's bisection also stops once
its midpoint equals an end); outputs must match them exactly.
"""

import json
import math
from typing import Optional

import numpy as np
import pytest

from equirobust import robust2d
from equirobust.cli import main
from equirobust.equilib2d import equilibria
from equirobust.errors import DegenerateConfiguration, DegenerateInput
from equirobust.geom2d import ConvexPolygon2, clip_halfplane_nd, regular_ngon
from equirobust.reports import RobustnessReport
from equirobust.robust2d import (
    TruncationSweep,
    _CutEvaluator,
    _draw_sweep_lines,
    _piece_stable,
    full_robustness_line_bound,
    summarize_sweep,
    sweep_csv,
    truncation_sweep,
)
from equirobust.util import BLOCK_CELLS, SPECULATE_CELLS

from conftest import random_convex_polygon, unit_square


def _evaluate_cut(P, total, nx, ny, d):
    """Reference: keep the side n·z <= d of ``P`` (area ``total``): the kept
    area fraction and the piece's stable count from ``_piece_stable``."""
    piece = clip_halfplane_nd(P, nx, ny, d)
    kept = 0.0 if piece is None else 1.0 if piece is P else piece.area / total
    return kept, _piece_stable(P, piece)


def _evaluate(P, nx, ny, d):
    """The evaluator's rows for the cuts (nx[i], ny[i])·z <= d[i], each cut
    its own family."""
    return _CutEvaluator(P, np.column_stack([nx, ny]))(np.arange(len(d)), d)


def _as_scalar_path(kept, counts):
    """The evaluator's rows as the scalar path gives them: -1 becomes ``None``."""
    return [(k, None if c < 0 else c) for k, c in zip(kept.tolist(), counts.tolist())]


def _truncation_sweep_reference(P, samples, seed, bins=20):
    eq0 = equilibria(P, P.centroid)
    total = P.area
    thetas, offsets = _draw_sweep_lines(P, samples, seed)
    rows = []
    for theta, d in zip(thetas, offsets):
        nx, ny = math.cos(theta), math.sin(theta)
        for side in (+1, -1):
            rel, s = _evaluate_cut(P, total, side * nx, side * ny, side * d)
            rows.append((float(theta), float(d), side, rel, -1 if s is None else s))
    theta, offset, side, rel, piece_S = (np.array(c) for c in zip(*rows))
    sweep = TruncationSweep(eq0.S, theta, offset, side, rel, piece_S)
    return sweep, summarize_sweep(sweep, bins)


def _line_bound_reference(P, grid_theta, grid_offset, refine_tol: Optional[float]):
    eq0 = equilibria(P, P.centroid)
    if eq0.any_degenerate:
        raise DegenerateConfiguration("polygon is degenerate at its centroid")
    S0 = eq0.S
    total = P.area
    best_val = math.inf
    best_witness = None
    for j in range(grid_theta):
        theta = j * math.pi / grid_theta
        nx, ny = math.cos(theta), math.sin(theta)
        lo, hi = P.support_interval(nx, ny)
        offsets = np.linspace(lo, hi, grid_offset + 2)[1:-1]
        for side in (+1, -1):
            reducing = []
            for d in offsets:
                kept, s = _evaluate_cut(P, total, side * nx, side * ny, side * d)
                if s is not None and s < S0:
                    reducing.append((d, 1.0 - kept))
            if not reducing:
                continue
            step = offsets[1] - offsets[0] if len(offsets) > 1 else (hi - lo)
            if side == +1:
                d_red, rel_red = max(reducing, key=lambda t: t[0])
                d_ok = min(d_red + step, hi)
            else:
                d_red, rel_red = min(reducing, key=lambda t: t[0])
                d_ok = max(d_red - step, lo)
            if refine_tol is not None:
                a, b = d_red, d_ok
                while abs(b - a) > refine_tol:
                    mid = 0.5 * (a + b)
                    if mid == a or mid == b:
                        break
                    kept, s = _evaluate_cut(P, total, side * nx, side * ny, side * mid)
                    if s is not None and s < S0:
                        a = mid
                        rel_red, d_red = 1.0 - kept, mid
                    else:
                        b = mid
            if rel_red < best_val:
                best_val = rel_red
                best_witness = {
                    "type": "line",
                    "theta": theta,
                    "offset": d_red,
                    "side": side,
                    "relative_area_removed": rel_red,
                }
    found = best_witness is not None
    return RobustnessReport(
        kind="full_line_bound",
        value=best_val if found else None,
        method="search",
        status="ok" if found else "no_reduction_found",
        witness=best_witness,
        details={"S": S0, "grid_theta": grid_theta, "grid_offset": grid_offset, "refine_tol": refine_tol, "upper_bound": True},
    )


def _regular_and_random(rng, sizes):
    return [regular_ngon(S) for S in sizes] + [random_convex_polygon(rng, int(S)) for S in sizes]


@pytest.fixture
def count_scalar(monkeypatch):
    """Counts the rows that take the scalar path (one clip each)."""
    calls = [0]
    clip = robust2d.clip_halfplane_nd

    def counting(*args):
        calls[0] += 1
        return clip(*args)

    monkeypatch.setattr(robust2d, "clip_halfplane_nd", counting)
    return calls


class TestAgainstScalarPath:
    def test_clip_population_is_bitwise_equal(self, rng, count_scalar):
        # The population of TestClip::test_pieces_match_public_constructor:
        # grid offsets plus offsets 0, ±0.5, ±1, ±2 and ±4 eps from every
        # vertex, both sides, where the cleanup drops points and the
        # classification sits on its tolerance edge.
        polys = [regular_ngon(S) for S in (3, 4, 5, 6, 7, 8, 12, 16, 32, 64)]
        polys += [random_convex_polygon(rng, int(rng.integers(3, 16))) for _ in range(10)]
        cuts = 0
        for P in polys:
            nxs, nys, ds = [], [], []
            for theta in (0.3, math.pi / P.n):
                nx, ny = math.cos(theta), math.sin(theta)
                lo, hi = P.support_interval(nx, ny)
                offsets = list(np.linspace(lo, hi, 9)[1:-1])
                near = (0, 0.5, -0.5, 1, -1, 2, -2, 4, -4)
                offsets += [x * nx + y * ny + f * P.eps for x, y in P.vertices for f in near]
                for d in offsets:
                    for side in (1, -1):
                        nxs.append(side * nx)
                        nys.append(side * ny)
                        ds.append(side * d)
            kept, counts = _evaluate(P, nxs, nys, ds)
            assert kept.dtype == np.float64 and counts.dtype.kind == "i"
            got = _as_scalar_path(kept, counts)
            for i in range(len(ds)):
                want = _evaluate_cut(P, P.area, nxs[i], nys[i], ds[i])
                assert got[i] == want, (P.n, nxs[i], nys[i], ds[i])
            cuts += len(ds)
        assert cuts == 10100
        # Cuts within a few eps of a vertex are what the scalar path is for.
        assert 0 < count_scalar[0] < cuts // 2

    def test_sweeps_match_reference(self, rng):
        for P in _regular_and_random(rng, (3, 4, 5, 7, 8, 12, 20, 33, 64)):
            got, _ = truncation_sweep(P, 150, seed=P.n)
            want, _ = _truncation_sweep_reference(P, 150, seed=P.n)
            assert sweep_csv(got) == sweep_csv(want)

    def test_line_bounds_match_reference(self, rng):
        for P in _regular_and_random(rng, (3, 4, 5, 6, 9, 16, 40, 64)):
            for grid in ((7, 9), (2, 1)):
                got = full_robustness_line_bound(P, *grid, 1e-6).to_json()
                assert got == _line_bound_reference(P, *grid, 1e-6).to_json()
        P = regular_ngon(5)
        assert full_robustness_line_bound(P, 6, 8, None).to_json() == _line_bound_reference(P, 6, 8, None).to_json()

    def test_brackets_bisected_to_the_last_bit_match_reference(self, rng, count_scalar):
        # Bisecting until the midpoint meets an end converges onto the cuts
        # where a foot or vertex test sits on its tolerance edge, so these
        # rows must be certified or handed to the scalar path.
        before = count_scalar[0]
        for P in _regular_and_random(rng, (3, 4, 5, 6, 7, 8)):
            got = full_robustness_line_bound(P, 6, 8, 1e-300).to_json()
            assert got == _line_bound_reference(P, 6, 8, 1e-300).to_json()
        assert count_scalar[0] > before

    def test_slivers_far_from_origin_match_reference(self, count_scalar):
        # Far from the origin the shoelace terms cancel, so a corner piece's
        # area is rounding noise of either sign around the collapse floor;
        # the batched pass leaves those pieces to the scalar cleanup.
        P = ConvexPolygon2([(1e6, 1e6), (1e6 + 1, 1e6), (1e6 + 1, 1e6 + 1.5), (1e6, 1e6 + 1)])
        # Corner pieces at the top-left vertex, whose ring the clip does not
        # start at the lowest point.
        nx, ny = -0.6, 0.8
        top = max(nx * x + ny * y for x, y in P.vertices)
        ts = np.geomspace(1e-7, 1e-2, 60)
        ds = [-(top - t) for t in ts] + [top - t for t in ts]
        sides = [-1] * 60 + [1] * 60
        got = _as_scalar_path(*_evaluate(P, [s * nx for s in sides], [s * ny for s in sides], ds))
        for i, (side, d) in enumerate(zip(sides, ds)):
            assert got[i] == _evaluate_cut(P, P.area, side * nx, side * ny, d)
        assert count_scalar[0] > 0

    def test_non_finite_cuts_end_as_in_scalar_path(self):
        # A non-finite offset, and an overflowing normal that puts NaN into
        # the ring, which the scalar path reports as non-finite vertices.
        def outcome(f, *args):
            try:
                return f(*args)
            except Exception as exc:
                return type(exc), str(exc)

        sq = unit_square()
        for d in (math.nan, math.inf, -math.inf):
            got = outcome(lambda: _as_scalar_path(*_evaluate(sq, [0.0], [1.0], [d]))[0])
            assert got == outcome(_evaluate_cut, sq, sq.area, 0.0, 1.0, d)
        big = ConvexPolygon2([(0, 0), (2, 0), (2, 2), (0, 2)])
        got = outcome(_evaluate, big, [0.6, 1e308], [0.8, 0.0], [1.0, 1.0])
        want = outcome(_evaluate_cut, big, big.area, 1e308, 0.0, 1.0)
        assert want[0] is DegenerateInput and got == want

    def test_polygons_outside_batched_range_take_scalar_path(self, count_scalar):
        # Coordinates beyond the range where no product can overflow.
        P = ConvexPolygon2([(0, 0), (1e120, 0), (0, 1e120)])
        lo, hi = P.support_interval(0.6, 0.8)
        ds = list(np.linspace(lo, hi, 5))
        got = _as_scalar_path(*_evaluate(P, [0.6] * 5, [0.8] * 5, ds))
        assert count_scalar[0] == 5
        assert got == [_evaluate_cut(P, P.area, 0.6, 0.8, d) for d in ds]

    def test_polygons_above_350_vertices_are_batched(self, count_scalar):
        # No vertex count sends a polygon to the scalar path: the regular
        # 351-gon's line search takes no row there, and the random 400-gon,
        # whose flattest turns lie near the cleanup's tolerance, only some.
        # The references run on coarser grids, as their clips of these
        # polygons cost milliseconds each.
        P = regular_ngon(351)
        full_robustness_line_bound(P, 12, 48, 1e-6)
        assert count_scalar[0] == 0
        Q = random_convex_polygon(np.random.default_rng(400), 400)
        for R, grid in ((P, (6, 8)), (Q, (4, 6))):
            assert full_robustness_line_bound(R, *grid, 1e-6).to_json() == _line_bound_reference(R, *grid, 1e-6).to_json()
            got, _ = truncation_sweep(R, 40, seed=3)
            assert sweep_csv(got) == sweep_csv(_truncation_sweep_reference(R, 40, seed=3)[0])

    def test_random_sweep_rows_rarely_take_scalar_path(self, rng, count_scalar):
        rows = 0
        for S in range(3, 65):
            P = random_convex_polygon(rng, S) if S % 2 else regular_ngon(S)
            rows += len(truncation_sweep(P, 200, seed=S)[0])
        assert count_scalar[0] < 0.01 * rows


class TestChunks:
    """The evaluator's chunk bounds memory only: a batch gives every row the
    bits that the same cut gives alone, and that the scalar path gives."""

    @pytest.mark.parametrize("n", [3, 64, 350, 401])
    def test_batch_over_three_chunks_matches_single_cuts(self, rng, monkeypatch, n):
        P = regular_ngon(n) if n % 2 else random_convex_polygon(rng, n)
        rows = BLOCK_CELLS // (n + 3)
        m = 2 * rows + 5
        theta = rng.random(m) * math.pi
        lo, hi = np.array([P.support_interval(math.cos(t), math.sin(t)) for t in theta.tolist()]).T
        side = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        nx, ny, d = side * np.cos(theta), side * np.sin(theta), side * (lo + rng.random(m) * (hi - lo))
        evaluate = _CutEvaluator(P, np.column_stack([nx, ny]))
        chunks = []
        certified = _CutEvaluator._certified

        def recording(self, nx, ny, *rest):
            chunks.append(len(nx))
            return certified(self, nx, ny, *rest)

        monkeypatch.setattr(_CutEvaluator, "_certified", recording)
        kept, counts = evaluate(np.arange(m), d)
        assert chunks == [rows, rows, 5]
        alone = [evaluate([i], d[i : i + 1]) for i in range(m)]
        assert (kept.view(np.int64) == np.concatenate([k for k, _ in alone]).view(np.int64)).all()
        assert (counts == np.concatenate([c for _, c in alone])).all()
        want = [_evaluate_cut(P, P.area, *cut) for cut in zip(nx.tolist(), ny.tolist(), d.tolist())]
        assert (kept.view(np.int64) == np.array([k for k, _ in want]).view(np.int64)).all()
        assert counts.tolist() == [-1 if s is None else s for _, s in want]
        assert (counts >= 0).sum() > m // 2


#: A quadrilateral with S = 2 at its centroid: no cut can reduce it.
S2_QUAD = [
    [-0.2885191709571862, -0.720929871204851],
    [0.7515280433009688, 0.04231838945078792],
    [0.4527650913486725, 0.11539166553114755],
    [-0.28287775313111824, -0.5848361199796457],
]


class TestLineGridRounds:
    """The line search reads each family's grid from its support end down, one
    evaluator call of ``SPECULATE_CELLS // (n + 3)`` cuts per round, until the
    family has a reducing cut."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        """The number of cuts in each evaluator call, as they happen."""
        calls = []
        evaluate = _CutEvaluator.__call__

        def recording(self, fam, e):
            calls.append(np.size(e))
            return evaluate(self, fam, e)

        monkeypatch.setattr(_CutEvaluator, "__call__", recording)
        return calls

    @pytest.mark.parametrize(
        "make, grid, rounds, calls",
        [
            # One chunk finds a reducing cut in every family; the full grid
            # is 12 x 2 x 48 = 1152 cuts.  Brackets that end above the
            # incumbent leave the bisection, from its first step on, by the
            # grid cut above their non-reducing end.
            (lambda: regular_ngon(8), (12, 48), [372], [24] * 6 + [8]),
            (lambda: regular_ngon(64), (12, 48), [61], [24] * 8 + [8]),
            # 585 = 24 x 24 + 9 cuts, the extras to families 0 to 8; then the
            # 12 families without a reducing cut read the rest of their grids.
            (unit_square, (12, 48), [585, 284], [12] * 7 + [4]),
            # No cut of this grid reduces S = 4: the whole grid, and no bracket.
            (unit_square, (2, 2), [8], []),
            # No cut can reduce S = 2: the search returns before its grid.
            (lambda: ConvexPolygon2(S2_QUAD), (12, 48), [], []),
        ],
        ids=["8-gon", "64-gon", "square", "square-2x2", "S2-quad"],
    )
    def test_rounds_match_reference(self, sizes, make, grid, rounds, calls):
        P = make()
        got = full_robustness_line_bound(P, *grid, 1e-6)
        assert sizes == rounds + calls
        assert all(n <= SPECULATE_CELLS // (P.n + 3) for n in rounds)
        assert got.to_json() == _line_bound_reference(P, *grid, 1e-6).to_json()
        assert (got.status == "no_reduction_found") == (calls == [])

    def test_scalar_polygon_reads_in_rounds(self, sizes, count_scalar):
        # Below _CUT_SCALE_RANGE every cut takes the scalar path; the rounds
        # still read SPECULATE_CELLS // 403 = 10 cuts.  The unit-perimeter
        # 400-gon and the tolerance are both scaled by 1e-100.
        P = ConvexPolygon2(np.asarray(regular_ngon(400).vertices) * 1e-100)
        got = full_robustness_line_bound(P, 3, 5, 1e-106)
        assert sizes == [10] + [6] * 16 and count_scalar[0] == sum(sizes)
        assert got.to_json() == _line_bound_reference(P, 3, 5, 1e-106).to_json()


class TestLineSearchArguments:
    def test_bisection_stops_when_midpoint_meets_an_end(self):
        # refine_tol far below the offsets' spacing used to loop forever once
        # the midpoint rounded to an end.
        rep = full_robustness_line_bound(unit_square(), 4, 8, refine_tol=1e-300)
        assert rep.status == "ok"
        loose = full_robustness_line_bound(unit_square(), 4, 8, refine_tol=1e-6)
        assert rep.value <= loose.value

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_refine_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            full_robustness_line_bound(unit_square(), 4, 8, refine_tol=tol)

    def test_numpy_float_refine_tol_is_stored_as_float(self):
        # A float32 used to reach the report and fail its JSON.
        tol = np.float32(1e-6)
        got = full_robustness_line_bound(unit_square(), 6, 8, tol)
        assert type(got.details["refine_tol"]) is float
        assert got.to_json() == full_robustness_line_bound(unit_square(), 6, 8, float(tol)).to_json()

    @pytest.mark.parametrize("grid", [(0, 8), (-5, 8), (4, 0), (4, -3)])
    def test_grid_needs_a_direction_and_an_offset(self, grid):
        with pytest.raises(ValueError):
            full_robustness_line_bound(unit_square(), *grid)

    @pytest.mark.parametrize("grid", [(2.0, 3), (True, 2), (4, 3.0), (4, False), (np.float64(4), 3)])
    def test_grid_counts_must_be_integers(self, grid):
        with pytest.raises(ValueError, match="^grid counts must be integers$"):
            full_robustness_line_bound(unit_square(), *grid)

    def test_numpy_integer_grid_counts_are_accepted(self):
        got = full_robustness_line_bound(unit_square(), np.int64(4), np.int32(8))
        assert got.to_json() == full_robustness_line_bound(unit_square(), 4, 8).to_json()

    @pytest.mark.parametrize(
        "args",
        [
            ("--builtin", "square", "--kind", "full-line", "--tol", "0"),
            ("--builtin", "square", "--kind", "full-line", "--tol", "-1"),
            ("--builtin", "square", "--kind", "full-line", "--grid-theta", "0"),
            ("--builtin", "square", "--kind", "full-line", "--grid-theta", "-5"),
            ("--builtin", "square", "--kind", "full-line", "--grid-offset", "-3"),
            ("--builtin", "cube", "--kind", "partial-any", "--seed", "1", "--tol", "0"),
            ("--builtin", "cube", "--kind", "partial-any", "--seed", "1", "--grid-theta", "0"),
        ],
    )
    def test_cli_passes_given_zero_and_negative_values_on(self, capsys, args):
        # A given 0 is a value, not "use the default": it reaches the
        # library's check and exits as a validation error.
        assert main(["robust", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["status"] == "validation-error"
