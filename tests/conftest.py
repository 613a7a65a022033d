"""Shared fixtures and randomized-shape generators for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from equirobust.geom2d import ConvexPolygon2


def random_convex_polygon(rng: np.random.Generator, n: int) -> ConvexPolygon2:
    """Uniformly random convex polygon with exactly ``n`` vertices (Valtr's construction)."""
    while True:
        xs = np.sort(rng.random(n))
        ys = np.sort(rng.random(n))
        vx = _chain_deltas(rng, xs)
        vy = _chain_deltas(rng, ys)
        rng.shuffle(vy)
        angles = np.arctan2(vy, vx)
        order = np.argsort(angles)
        pts = np.cumsum(np.column_stack([vx[order], vy[order]]), axis=0)
        try:
            poly = ConvexPolygon2(pts)
        except Exception:
            continue  # rare collinear draw; resample
        if poly.n == n:
            return poly


def _chain_deltas(rng: np.random.Generator, coords: np.ndarray) -> np.ndarray:
    lo, hi = coords[0], coords[-1]
    interior = coords[1:-1]
    mask = rng.random(len(interior)) < 0.5
    up = np.concatenate([[lo], interior[mask], [hi]])
    down = np.concatenate([[lo], interior[~mask], [hi]])
    deltas = np.concatenate([np.diff(up), -np.diff(down)])
    return deltas


def random_interior_point(rng: np.random.Generator, poly: ConvexPolygon2, margin: float = 1e-6) -> tuple[float, float]:
    """Random point strictly inside ``poly`` with a relative margin from the boundary."""
    verts = np.asarray(poly.vertices)
    while True:
        w = rng.dirichlet(np.ones(len(verts)))
        p = w @ verts
        if poly.interior_margin(p) > margin * poly.diameter:
            return (float(p[0]), float(p[1]))


def boundary_minima_maxima(poly: ConvexPolygon2, p, samples: int = 100_000) -> tuple[int, int]:
    """Brute-force count of strict local minima/maxima of the boundary distance to ``p``.

    Independent of the analytic classifier: densely sample the boundary with
    arclength-proportional spacing and count sign changes of the discrete
    slope.
    """
    verts = np.asarray(poly.vertices)
    nv = len(verts)
    seg = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    total = lengths.sum()
    counts = np.maximum(1, np.round(samples * lengths / total).astype(int))
    chunks = []
    for i in range(nv):
        t = np.arange(counts[i]) / counts[i]
        chunks.append(verts[i] + t[:, None] * seg[i])
    pts = np.concatenate(chunks)
    d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])
    # A strict local min at k: d[k] < d[k-1] and d[k] < d[k+1].
    minima = int(np.sum((np.roll(d, 1) > d) & (np.roll(d, -1) > d)))
    maxima = int(np.sum((np.roll(d, 1) < d) & (np.roll(d, -1) < d)))
    return minima, maxima


def random_hull3(rng: np.random.Generator, n: int):
    """Convex hull of ``n`` gaussian points (vertex count may be below ``n``)."""
    from equirobust.geom3d import hull3

    return hull3(rng.standard_normal((n, 3)))


def face_normal_error(P) -> float:
    """The largest difference between a stored face normal of ``P`` and the
    face's Newell normal summed from its first vertex, whose cross products
    do not cancel on a small face far from the origin."""
    tails, heads, slot_face, starts = P.slot_arrays
    v = P.coords
    first = v[tails[starts[:-1]]][slot_face]
    sums = np.add.reduceat(np.cross(v[tails] - first, v[heads] - first), starts[:-1], axis=0)
    return float(np.abs(sums / np.linalg.norm(sums, axis=1)[:, None] - P.plane_normals).max())


def random_interior_point3(rng: np.random.Generator, P, margin: float = 1e-3) -> tuple[float, float, float]:
    """Random point strictly inside ``P`` with a relative margin from the boundary."""
    verts = P.coords
    while True:
        w = rng.dirichlet(np.ones(len(verts)))
        p = w @ verts
        if P.interior_margin(p) > margin * P.scale:
            return (float(p[0]), float(p[1]), float(p[2]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250823)


def unit_square() -> ConvexPolygon2:
    return ConvexPolygon2([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def rectangle(w: float, h: float) -> ConvexPolygon2:
    return ConvexPolygon2([(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)])


def _summary_reference(sweep, bins):
    """(bin_edges, counts, totals) of a sweep, one masked bincount per category."""
    bins = int(bins)
    b = np.minimum((sweep.relative_area * bins).astype(int), bins - 1)
    bad = sweep.degenerate
    delta, b_ok = sweep.piece_S[~bad] - sweep.S0, b[~bad]
    keys, first = np.unique(delta, return_index=True)
    counts = {int(k): np.bincount(b_ok[delta == k], minlength=bins) for k in keys[np.argsort(first)]}
    if bad.any():
        counts["degenerate"] = np.bincount(b[bad], minlength=bins)
    return np.linspace(0.0, 1.0, bins + 1), counts, np.bincount(b, minlength=bins)


def assert_summary_is_reference(summary, sweep, bins):
    """``summary`` has the reference's keys in order, counts, totals and bin edges."""
    edges, counts, totals = _summary_reference(sweep, bins)
    assert list(summary.counts) == list(counts)
    for cat, want in counts.items():
        assert summary.counts[cat].dtype == want.dtype and np.array_equal(summary.counts[cat], want)
    assert summary.totals.dtype == totals.dtype and np.array_equal(summary.totals, totals)
    assert (summary.bin_edges.view(np.int64) == edges.view(np.int64)).all() and len(summary.bin_edges) == len(edges)
