"""Workload populations, item execution and output checks.

A workload is a fixed, ordered population of distinct items drawn from the
seed class (``seed % SEED_CLASSES``).  An item is one generated shape plus
the library calls made on it; ``Item.shape()`` builds a fresh object for
every execution, so cached properties start cold as in a CLI call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from equirobust import equilib2d, equilib3d, errors, geom2d, geom3d, robust2d

#: Seeds fall into this many classes; references are recorded per class.
SEED_CLASSES = 32

#: Exceptions the README exit-code table documents (``cli.main`` maps them to
#: exit codes 1-4).  Raising one of these is a result, compared to the reference.
DOCUMENTED = (
    errors.DegenerateConfiguration,
    errors.DegeneratePresent,
    errors.TooFewStable,
    errors.ReferenceOutside,
    errors.NonConvexInput,
    errors.DegenerateInput,
    errors.FixtureError,
    ValueError,
    OSError,
)

# Per-item problem sizes.  The CLI defaults (180x48 full-line grid, 720 2D
# and 512 3D directions, 32x16 plane grid) cost seconds to tens of seconds
# per shape; these keep a pass of 40-100 distinct shapes between about 5 and
# 17 s on a 2-core box, so a 30 s run executes most items two or more times.
# ``search2d`` divides the CLI's line-grid angles and sampled directions by
# the same factor, 15, and keeps its 48 offsets, so each direction's grid
# and bisection probes keep the CLI's proportion.
SWEEP_LINES = 100
LINE_GRID = (12, 48)
LINE_TOL = 1e-6
DIRECTIONS_2D = 48
DIRECTIONS_3D = 128
PLANE_GRID = (4, 4)
PLANE_TOL = 1e-4

# Kind tables, cycled over the item index: item k has kind TABLE[k % len].
# Cheap kinds come first so that ``--items N`` keeps a run tiny.
_SWEEP_KINDS = [
    ("square",), ("rect",), ("ngon", 3), ("valtr", 5), ("ngon", 6), ("valtr", 8),
    ("ngon", 8), ("rect",), ("valtr", 12), ("ngon", 12), ("valtr", 16), ("ngon", 16),
    ("valtr", 24), ("ngon", 24), ("valtr", 32), ("ngon", 32), ("ngon", 48),
    ("valtr", 64), ("ngon", 64), ("valtr", 64),
]
_SEARCH2D_KINDS = (
    [("square",), ("rect",), ("ngon", 3), ("valtr", 4), ("ngon", 4), ("rect",), ("ngon", 5),
     ("valtr", 5), ("square",), ("rect",), ("ngon", 3), ("valtr", 4),
     ("valtr", 6), ("ngon", 6), ("valtr", 6), ("ngon", 6)]
    # Eight octagons around the median and six 12-gons around p75 keep both
    # percentiles on a plateau of like-cost items, whatever the seed draws.
    + [("ngon", 8)] * 8
    + [("valtr", 10), ("ngon", 10), ("valtr", 10), ("ngon", 10)]
    + [("ngon", 12)] * 6
    + [("valtr", 16), ("ngon", 16), ("valtr", 24), ("ngon", 32), ("valtr", 40), ("ngon", 64)]
)
_SEARCH3D_KINDS = (
    [("platonic", "tetra"), ("platonic", "cube"), ("platonic", "octa"), ("prism", 3),
     ("gauss", 8), ("platonic", "dodeca"), ("platonic", "icosa"), ("prism", 5),
     ("gauss", 10), ("prism", 6), ("gauss", 12), ("prism", 4), ("gauss", 14)] * 3
    + [("cylcut",)]
)

#: Passes over 50,000 values in the calibration kernel: the searches in 2D
#: and the sweep spend their time in the interpreter, the 3D profile in
#: numpy passes over arrays of hundreds of kilobytes (``stable_count3``).
CALIBRATION_ARRAY_PASSES = {"sweep2d": 0, "search2d": 0, "search3d": 2}

POPULATIONS = {
    "sweep2d": 100,
    "search2d": 40,
    "search3d": 40,
}
_KINDS = {"sweep2d": _SWEEP_KINDS, "search2d": _SEARCH2D_KINDS, "search3d": _SEARCH3D_KINDS}
_WORKLOAD_IDS = {"sweep2d": 1, "search2d": 2, "search3d": 3}


@dataclass(frozen=True)
class Item:
    index: int
    label: str
    vertices: tuple
    faces: Optional[tuple]  # None for polygons
    item_seed: int

    def shape(self):
        """Fresh copy of the generated shape, with cold caches (set-up validated it)."""
        if self.faces is None:
            return geom2d.ConvexPolygon2(self.vertices)
        return geom3d.ConvexPolyhedron3(self.vertices, self.faces)


def workload_params(workload: str) -> dict:
    """Every size that shapes a workload's outputs; stored with the references."""
    common = {"items": POPULATIONS[workload], "seed_classes": SEED_CLASSES}
    if workload == "sweep2d":
        return {**common, "lines": SWEEP_LINES}
    if workload == "search2d":
        return {**common, "grid": list(LINE_GRID), "tol": LINE_TOL, "directions": DIRECTIONS_2D}
    return {**common, "directions": DIRECTIONS_3D, "grid": list(PLANE_GRID), "tol": PLANE_TOL}


# -- input generation --------------------------------------------------------


def _rotation2(rng) -> np.ndarray:
    a = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def _rotation3(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _valtr(rng, n: int) -> np.ndarray:
    """Uniformly random convex n-gon (Valtr's construction) in the unit square."""

    def chain_steps(sorted_vals: np.ndarray) -> list:
        lo, hi = sorted_vals[0], sorted_vals[-1]
        top = bottom = lo
        steps = []
        for v in sorted_vals[1:-1]:
            if rng.random() < 0.5:
                steps.append(v - top)
                top = v
            else:
                steps.append(bottom - v)
                bottom = v
        steps.append(hi - top)
        steps.append(bottom - hi)
        return steps

    xs = chain_steps(np.sort(rng.random(n)))
    ys = chain_steps(np.sort(rng.random(n)))
    rng.shuffle(ys)
    vecs = sorted(zip(xs, ys), key=lambda v: math.atan2(v[1], v[0]))
    pts = np.cumsum(np.asarray(vecs), axis=0)
    return pts - pts.min(axis=0)


def _polygon(kind: tuple, rng) -> tuple[str, np.ndarray]:
    name = kind[0]
    if name == "square":
        label, pts = "square", np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    elif name == "rect":
        b = rng.uniform(0.2, 0.9)
        label, pts = f"rect:1:{b:.3f}", np.array([(0.0, 0.0), (1.0, 0.0), (1.0, b), (0.0, b)])
    elif name == "ngon":
        label, pts = f"ngon:{kind[1]}", np.asarray(geom2d.regular_ngon(kind[1]).vertices)
    else:
        label, pts = f"valtr:{kind[1]}", _valtr(rng, kind[1])
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-1.0, 1.0, size=2)
    return label, (pts @ _rotation2(rng).T) * scale + shift


def _polyhedron(kind: tuple, rng) -> tuple[str, geom3d.ConvexPolyhedron3]:
    name = kind[0]
    if name == "platonic":
        label, P = kind[1], geom3d.platonic(kind[1])
    elif name == "prism":
        label, P = f"prism:{kind[1]}", geom3d.generator_prism(kind[1], 1.5)
    elif name == "gauss":
        # Gaussian directions on an ellipsoid: every point is a hull vertex.
        g = rng.normal(size=(kind[1], 3))
        g /= np.linalg.norm(g, axis=1)[:, None]
        label, P = f"gauss:{kind[1]}", geom3d.hull3(g * rng.uniform(0.6, 1.4, size=3))
    else:
        label, P = "cylcut:1:3", geom3d.generator_truncated_cylinder(1.0, 3.0)
    v = P.coords @ _rotation3(rng).T * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0, size=3)
    return label, geom3d.polyhedron_new(v, P.faces)


def make_items(workload: str, seed: int, limit: Optional[int] = None) -> list[Item]:
    """The seed class's population, in pass order (first ``limit`` items only)."""
    cls = seed % SEED_CLASSES
    kinds = _KINDS[workload]
    count = POPULATIONS[workload] if limit is None else min(limit, POPULATIONS[workload])
    items = []
    for k in range(count):
        rng = np.random.default_rng((_WORKLOAD_IDS[workload], cls, k))
        item_seed = int(rng.integers(0, 2**31))
        kind = kinds[k % len(kinds)]
        # A random draw the constructor rejects as degenerate (near-collinear
        # Valtr edges, coplanar hull facets) is replaced by the next draw of
        # the same stream, so the population stays a function of the seed.
        for _ in range(100):
            try:
                if workload == "search3d":
                    label, P = _polyhedron(kind, rng)
                    items.append(Item(k, label, P.vertices, P.faces, item_seed))
                else:
                    label, pts = _polygon(kind, rng)
                    P = geom2d.polygon_new(pts)
                    items.append(Item(k, label, P.vertices, None, item_seed))
                break
            except (errors.DegenerateInput, errors.NonConvexInput):
                continue
        else:
            raise RuntimeError(f"{workload} item {k}: no valid {kind} drawn")
    return items


# -- item execution ----------------------------------------------------------


def _result(call: Callable[[], object], emit=lambda obj: obj.to_json()) -> tuple[str, object]:
    """(output text, result object); a documented exception is the result."""
    try:
        obj = call()
    except DOCUMENTED as exc:
        return f"raise {type(exc).__name__}: {exc}", exc
    return emit(obj), obj


def run_sweep2d(item: Item, P) -> dict:
    def sweep():
        rows, _ = robust2d.truncation_sweep(P, SWEEP_LINES, item.item_seed)
        return robust2d.sweep_csv(rows)

    return {"sweep_csv": _result(sweep, emit=str)}


def run_search2d(item: Item, P) -> dict:
    c = geom2d.centroid(P)
    return {
        "full_line": _result(lambda: robust2d.full_robustness_line_bound(P, *LINE_GRID, LINE_TOL)),
        "ex": _result(lambda: robust2d.rho_ex_exact(P, c)),
        "in": _result(lambda: robust2d.rho_in_exact(P, c)),
        "in_sampled": _result(lambda: robust2d.rho_in_sampled(P, c, DIRECTIONS_2D)),
    }


def run_search3d(item: Item, P) -> dict:
    c = geom3d.centroid3(P)
    return {
        "classify3": _result(lambda: equilib3d.classify3(P, c)),
        "in": _result(lambda: equilib3d.rho_in_exact_3d(P, c)),
        "in_sampled": _result(lambda: equilib3d.rho_in_sampled_3d(P, c, DIRECTIONS_3D)),
        "partial_any": _result(
            lambda: equilib3d.plane_truncation_search(P, "reduce_any", PLANE_GRID, PLANE_TOL, item.item_seed)
        ),
    }


RUNNERS = {"sweep2d": run_sweep2d, "search2d": run_search2d, "search3d": run_search3d}


# -- references and checks ---------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def summary(text: str) -> str:
    """Short human-readable gist of an output text, stored beside its digest."""
    if text.startswith("raise "):
        return text.split(":", 1)[0]
    if text.startswith(robust2d.SWEEP_CSV_HEADER):
        return f"{text.count(chr(10)) - 1} rows"
    obj = json.loads(text)
    if "H" in obj:
        return f"S={obj['S']} H={obj['H']} U={obj['U']}"
    return f"{obj['status']} value={obj['value']!r}"


def fingerprint(outputs: dict) -> dict:
    return {name: [digest(text), summary(text)] for name, (text, _) in outputs.items()}


def compare(ref: dict, outputs: dict) -> list[str]:
    """Reasons the outputs differ from the reference (empty when they match)."""
    got = fingerprint(outputs)
    reasons = []
    for name in sorted(set(ref) | set(got)):
        want = ref.get(name)
        have = got.get(name)
        if want is None or have is None or want[0] != have[0]:
            reasons.append(f"{name}: reference {want and want[1]!r}, got {have and have[1]!r}")
    return reasons


def _check_base2d(P) -> list[str]:
    """S = U with alternation at the centroid of a nondegenerate base polygon."""
    try:
        eq = equilib2d.equilibria(P, geom2d.centroid(P))
    except errors.DegenerateConfiguration as exc:
        return [f"base polygon: {exc}"]
    if eq.any_degenerate:
        return []
    kinds = [p.kind for p in eq.points]
    if eq.S != eq.U or any(kinds[i] == kinds[i - 1] for i in range(len(kinds))):
        return [f"base polygon: S={eq.S} U={eq.U} without alternation"]
    return []


def _replay_line(P, report) -> list[str]:
    """Re-cut at the reported line witness; the piece must reduce the stable count."""
    if report.status != "ok":
        return []
    w = report.witness
    nx, ny = math.cos(w["theta"]), math.sin(w["theta"])
    side = w["side"]
    piece = geom2d.clip_halfplane_nd(P, side * nx, side * ny, side * w["offset"])
    if piece is None or piece is P:
        return ["line witness: the cut does not produce a piece"]
    try:
        eq = equilib2d.equilibria(piece, piece.centroid)
    except errors.GeometryError as exc:
        return [f"line witness: piece classification raised {type(exc).__name__}"]
    problems = []
    if eq.any_degenerate or eq.S >= report.details["S"]:
        problems.append(f"line witness: piece S={eq.S} (degenerate={eq.any_degenerate}), base S={report.details['S']}")
    rel = 1.0 - piece.area / P.area
    if abs(rel - w["relative_area_removed"]) > 1e-12:
        problems.append(f"line witness: removes {rel!r}, report says {w['relative_area_removed']!r}")
    return problems


def _check_base3d(P) -> list[str]:
    """S - H + U = 2 at the centroid of a nondegenerate base polyhedron."""
    eq = equilib3d.classify3(P, geom3d.centroid3(P))
    if eq.any_degenerate or equilib3d.poincare_hopf_check(eq):
        return []
    return [f"base polyhedron: S - H + U = {eq.S - eq.H + eq.U}"]


def _replay_plane(P, report) -> list[str]:
    """Re-cut at the reported plane witness; the piece must reduce S or U."""
    if report.status != "ok":
        return []
    w = report.witness
    side = w["side"]
    piece = geom3d.clip_halfspace3(P, side * np.asarray(w["normal"]), side * w["offset"])
    if piece is None or piece is P:
        return ["plane witness: the cut does not produce a piece"]
    try:
        eq = equilib3d.classify3(piece, geom3d.centroid3(piece))
    except errors.GeometryError as exc:
        return [f"plane witness: piece classification raised {type(exc).__name__}"]
    problems = []
    flagged = any(p.degenerate for p in eq.points if p.kind != "saddle")
    S0, U0 = report.details["S0"], report.details["U0"]
    if flagged or not (eq.S < S0 or eq.U < U0):
        problems.append(f"plane witness: piece S={eq.S} U={eq.U} (flagged={flagged}), base S={S0} U={U0}")
    if not eq.any_degenerate and not equilib3d.poincare_hopf_check(eq):
        problems.append(f"plane witness: piece S - H + U = {eq.S - eq.H + eq.U}")
    rel = 1.0 - geom3d.volume(piece) / geom3d.volume(P)
    if abs(rel - w["relative_volume_removed"]) > 1e-12:
        problems.append(f"plane witness: removes {rel!r}, report says {w['relative_volume_removed']!r}")
    return problems


def _guarded(check, *args) -> list[str]:
    """A check that raises is a problem of the item, not the end of the run."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__.lstrip('_')} raised {type(exc).__name__}: {exc}"]


def structural_checks(workload: str, item: Item, outputs: dict) -> list[str]:
    """Identity and witness-replay problems of one item, on fresh shapes."""
    if workload == "search3d":
        problems = _guarded(_check_base3d, item.shape())
        report = outputs["partial_any"][1]
        if not isinstance(report, Exception):
            problems += _guarded(_replay_plane, item.shape(), report)
        return problems
    problems = _guarded(_check_base2d, item.shape())
    if workload == "search2d":
        report = outputs["full_line"][1]
        if not isinstance(report, Exception):
            problems += _guarded(_replay_line, item.shape(), report)
    return problems
