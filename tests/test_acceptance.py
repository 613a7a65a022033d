"""Acceptance gate: end-to-end checks of the closed forms, cross-oracles,
structural invariants, worked examples and trend properties.

Each check records one ``ACCEPTANCE nn name: PASS/FAIL`` line; the lines are
written through pytest's terminal reporter after the module finishes, so the
per-criterion outcome always shows in the run log regardless of capture.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from equirobust.equilib2d import equilibria
from equirobust.equilib3d import (
    classify3,
    bounding_box_predicates,
    centroid_quarter_width_check,
    ellipsoid_class,
    example_truncated_tetra_fixture,
    plane_truncation_search,
    rho_in_exact_3d,
    rho_in_sampled_3d,
)
from equirobust.errors import DegenerateConfiguration, TooFewStable
from equirobust.geom2d import clip_halfplane_nd, polygon_new, regular_ngon
from equirobust.geom3d import (
    aabb,
    centroid3,
    generator_truncated_cylinder,
    hull3,
    platonic,
)
from equirobust.robust2d import (
    full_robustness_line_bound,
    dowker_convexity_check,
    rho_ex_exact,
    rho_in_exact,
    rho_in_sampled,
    rho_regular_closed,
    summary_csv,
    truncation_sweep,
)

from conftest import (
    random_convex_polygon,
    random_hull3,
    random_interior_point,
    random_interior_point3,
)

GOLDEN_DIR = Path(__file__).parent / "data"

_RESULTS: list[str] = []


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    _RESULTS.append(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


@pytest.fixture(scope="module", autouse=True)
def _acceptance_report(request):
    """Emit the collected criterion lines through the terminal reporter."""
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None:
        for line in _RESULTS:
            print(line)
        return
    reporter.ensure_newline()
    for line in _RESULTS:
        reporter.write_line(line)


def _unit_square():
    return polygon_new([(0, 0), (1, 0), (1, 1), (0, 1)])


def _point_to_polygon_distance(q: np.ndarray, verts: np.ndarray) -> float:
    nv = len(verts)
    best = math.inf
    inside = True
    for i in range(nv):
        a = verts[i]
        b = verts[(i + 1) % nv]
        e = b - a
        if np.cross(e, q - a) < 0:
            inside = False
        t = float(np.clip((q - a) @ e / (e @ e), 0.0, 1.0))
        best = min(best, float(np.linalg.norm(q - (a + t * e))))
    return 0.0 if inside else best


def _hausdorff_to_regular(P, S: int) -> float:
    """Hausdorff distance from ``P`` (normalized to unit perimeter, centroid at
    the origin) to the best-aligned regular S-gon."""
    verts = (np.asarray(P.vertices) - np.asarray(P.centroid)) / P.perimeter
    reg = np.asarray(regular_ngon(S).vertices)
    best = math.inf
    base = math.atan2(verts[0, 1], verts[0, 0])
    for k in range(S):
        for sign in (1.0, -1.0):
            target = 2.0 * math.pi * k / S
            rot = target - sign * base
            c, s = math.cos(rot), math.sin(rot)
            m = np.array([[c, -s], [s, c]]) @ np.array([[1.0, 0.0], [0.0, sign]])
            w = verts @ m.T
            d1 = max(_point_to_polygon_distance(q, reg) for q in w)
            d2 = max(_point_to_polygon_distance(q, w) for q in reg)
            best = min(best, max(d1, d2))
    return best


def test_01_external_robustness_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for S in range(3, 13):
        got = rho_ex_exact(regular_ngon(S), (0.0, 0.0)).value
        worst = max(worst, abs(got - rho_regular_closed(S, "external")))
    elapsed = time.perf_counter() - t0
    _criterion(1, "external robustness closed form S=3..12", worst <= 1e-9 and elapsed < 1.0,
               f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_02_internal_robustness_closed_form():
    worst = 0.0
    for S in range(3, 13):
        got = rho_in_exact(regular_ngon(S), (0.0, 0.0)).value
        worst = max(worst, abs(got - 1.0 / (2.0 * S)))
    _criterion(2, "internal robustness closed form S=3..12", worst <= 1e-12,
               f"max abs err {worst:.2e}")


def test_03_extremality_sweep():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    violations = 0
    equalities = []
    trials = 0
    while trials < 1000:
        P = random_convex_polygon(rng, int(rng.integers(5, 13)))
        c = P.centroid
        eq = equilibria(P, c)
        if eq.any_degenerate:
            continue
        trials += 1
        S = eq.S
        try:
            ri = rho_in_exact(P, c).value
        except DegenerateConfiguration:
            continue
        bound_in = 1.0 / (2.0 * S)
        if ri > bound_in + 1e-12:
            violations += 1
        if abs(ri - bound_in) <= 1e-12:
            equalities.append((P, S))
        try:
            re_ = rho_ex_exact(P, c).value
            bound_ex = rho_regular_closed(S, "external")
            if re_ > bound_ex + 1e-12:
                violations += 1
            if abs(re_ - bound_ex) <= 1e-12:
                equalities.append((P, S))
        except TooFewStable:
            pass  # the external closed form needs S >= 3
    hausdorff_ok = all(_hausdorff_to_regular(P, S) <= 1e-6 for P, S in equalities)
    elapsed = time.perf_counter() - t0
    _criterion(3, "extremality on 1000 random polygons",
               violations == 0 and hausdorff_ok and elapsed < 60.0,
               f"violations {violations}, equality cases {len(equalities)}, {elapsed:.1f}s")


def test_04_oracle_equivalence_2d():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst_excess = 0.0
    done = 0
    while done < 100:
        P = random_convex_polygon(rng, int(rng.integers(5, 13)))
        c = P.centroid
        try:
            exact = rho_in_exact(P, c).value
        except DegenerateConfiguration:
            continue
        sampled = rho_in_sampled(P, c, directions=720, tol_step=1e-6).value
        allowed = max(2e-6, 5e-3 * exact)
        worst_excess = max(worst_excess, abs(sampled - exact) - allowed)
        done += 1
    elapsed = time.perf_counter() - t0
    _criterion(4, "2D exact vs sampled oracle on 100 polygons",
               worst_excess <= 0.0 and elapsed < 120.0,
               f"worst excess {worst_excess:.2e}, {elapsed:.1f}s")


def test_05_invariant_suites():
    rng = np.random.default_rng(5)
    bad_2d = 0
    pairs = 0
    while pairs < 10_000:
        P = random_convex_polygon(rng, int(rng.integers(4, 13)))
        for _ in range(5):
            if pairs >= 10_000:
                break
            p = random_interior_point(rng, P)
            eq = equilibria(P, p)
            if eq.any_degenerate:
                continue
            pairs += 1
            if eq.S != eq.U:
                bad_2d += 1
    bad_3d = 0
    checked_3d = 0
    for _ in range(200):
        H = random_hull3(rng, 30)
        v, e, f = len(H.vertices), len(H.edges), len(H.faces)
        if v - e + f != 2:
            bad_3d += 1
        for _ in range(5):
            q = random_interior_point3(rng, H)
            eq = classify3(H, q)
            if eq.any_degenerate:
                continue
            checked_3d += 1
            if eq.S - eq.H + eq.U != 2:
                bad_3d += 1
    _criterion(5, "S=U (2D) and S-H+U=2, V-E+F=2 (3D) invariants",
               bad_2d == 0 and bad_3d == 0,
               f"2D pairs {pairs}, 3D classifications {checked_3d}")


def test_06_platonic_internal_robustness():
    expect = {
        "cube": 1.0 / (2.0 * math.sqrt(6.0)),
        "tetra": 1.0 / (2.0 * 3.0**0.75),
    }
    exact_ok = True
    oracle_ok = True
    detail = []
    for name, want in expect.items():
        P = platonic(name)
        got = rho_in_exact_3d(P, (0.0, 0.0, 0.0)).value
        sampled = rho_in_sampled_3d(P, (0.0, 0.0, 0.0), directions=512).value
        exact_ok &= abs(got - want) <= 1e-9
        oracle_ok &= abs(sampled - got) <= 1e-2 * got
        detail.append(f"{name} err {abs(got - want):.1e} oracle {abs(sampled - got) / got:.1e}")
    _criterion(6, "platonic internal robustness and 3D oracle",
               exact_ok and oracle_ok, "; ".join(detail))


def test_07_truncation_fixture():
    a = example_truncated_tetra_fixture()
    b = example_truncated_tetra_fixture()
    rep_a, rep2_a = a[2]
    rep_b, rep2_b = b[2]
    deterministic = rep_a.to_json() == rep_b.to_json() and rep2_a.to_json() == rep2_b.to_json()
    increased = rep2_a.value > rep_a.value
    _criterion(7, "vertex-truncation fixture", deterministic and increased,
               f"{rep_a.value:.10f} -> {rep2_a.value:.10f}")


def _stretched_hull(rng, axis_slot: int, ratio: float):
    """Random hull rescaled along one box axis: slot 2 stretches the longest
    extent by ``ratio`` over the middle one, slot 0 shrinks the shortest to
    ``ratio`` of the middle one."""
    H = random_hull3(rng, 14)
    bb = aabb(H)
    axis = int(np.argmax(np.abs(bb.frame[:, axis_slot])))
    scale = np.ones(3)
    scale[axis] = ratio * bb.extents[1] / bb.extents[axis_slot]
    return hull3(H.coords * scale)


def test_08_bounding_box_lemmas():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(100):
        H = _stretched_hull(rng, 2, float(rng.uniform(6.0, 12.0)))
        out = bounding_box_predicates(H, aabb(H))
        if out["elongation_implies_two_unstable"] != "checked-true":
            bad += 1
    for _ in range(100):
        H = _stretched_hull(rng, 0, float(rng.uniform(0.05, 0.3)))
        out = bounding_box_predicates(H, aabb(H))
        if out["flatness_implies_two_stable"] != "checked-true":
            bad += 1
    quarter_bad = 0
    for _ in range(1000):
        H = random_hull3(rng, 15)
        if not centroid_quarter_width_check(H, aabb(H)):
            quarter_bad += 1
    elapsed = time.perf_counter() - t0
    _criterion(8, "bounding-box lemmas and quarter-width check",
               bad == 0 and quarter_bad == 0 and elapsed < 120.0,
               f"predicate failures {bad}, quarter-width failures {quarter_bad}, {elapsed:.1f}s")


def test_09_square_sweep_figure():
    sq = _unit_square()
    sweep, summary = truncation_sweep(sq, 100_000, seed=7)
    n = len(sweep)
    degen = int(sweep.degenerate.sum())
    cats_ok = set(c for c in summary.counts if c != "degenerate") <= {-1, 0, 1}
    bins_ok = all(
        sum(int(summary.counts[c][b]) for c in summary.counts) == int(summary.totals[b])
        for b in range(len(summary.totals))
    )
    triangles = 0
    triangle_bad = 0
    columns = (sweep.theta, sweep.offset, sweep.side, sweep.piece_S)
    for theta, offset, side, piece_S in zip(*(c.tolist() for c in columns)):
        if piece_S < 0:
            continue
        nx, ny = math.cos(theta), math.sin(theta)
        piece = clip_halfplane_nd(sq, side * nx, side * ny, side * offset)
        if piece is not None and piece is not sq and piece.n == 3:
            triangles += 1
            if piece_S != 3:
                triangle_bad += 1
    golden = (GOLDEN_DIR / "golden_square_sweep_summary.csv").read_text()
    csv_now = summary_csv(summary)
    _, summary2 = truncation_sweep(sq, 100_000, seed=7)
    stable = csv_now == golden and summary_csv(summary2) == csv_now
    _criterion(9, "square sweep figure reproduction",
               cats_ok and bins_ok and degen / n < 1e-3 and triangle_bad == 0 and stable,
               f"rows {n}, degenerate {degen}, triangles {triangles}")


def test_10_full_robustness_line_bound():
    sq = _unit_square()
    coarse = full_robustness_line_bound(sq, grid_theta=36, grid_offset=16, refine_tol=1e-7)
    fine = full_robustness_line_bound(sq, grid_theta=360, grid_offset=160, refine_tol=1e-7)
    gap = abs(coarse.value - fine.value) / fine.value
    flagged = coarse.details.get("upper_bound") is True
    _criterion(10, "square full-robustness line bound vs 10x finer grid",
               gap <= 1e-3 and flagged, f"rel gap {gap:.2e}")


def test_11_dowker_convexity():
    pairs = [(n, k) for n in range(4, 64) for k in range(1, n - 2) if n - k >= 3 and n + k <= 64]
    failures = sum(1 for n, k in pairs if not dowker_convexity_check(n, k))
    _criterion(11, "circumscribed-area sequence strictly convex",
               failures == 0 and len(pairs) > 0, f"{len(pairs)} pairs")


def test_12_ellipsoid_classification():
    ok = True
    for lam in (1.0, 2.0, 4.0):
        k = ellipsoid_class(1.0, 2.0 * lam, 4.0 * lam * lam)
        ok &= (k.S, k.U, k.H) == (2, 2, 2)
    _criterion(12, "ellipsoid family class {2,2} with H=2", ok)


def test_13_truncated_cylinder_trend():
    values = []
    for lam in (2, 4, 8):
        cyl = generator_truncated_cylinder(1.0, 10.0 * lam, facets=32)
        rep = plane_truncation_search(cyl, "reduce_any", grid=(24, 10), refine_tol=1e-3, seed=5)
        assert rep.status == "ok"
        values.append(rep.value)
    trend_ok = all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
    _criterion(13, "cylinder-family partial robustness trend nondecreasing",
               trend_ok, "values " + ", ".join(f"{v:.4f}" for v in values))
