"""The batched 3D cut evaluator against the scalar clip-and-count path.

``_CutEvaluator3`` must give, cut for cut, the bits of the relative volume
removed and the (S, U) counts that ``clip_halfspace3``, ``volume`` and
``_search_counts`` give, or -1 where that path has no usable piece.
"""

import tracemalloc

import numpy as np
import pytest

from equirobust import equilib3d
from equirobust.equilib3d import _CutEvaluator3, _search_counts
from equirobust.geom3d import (
    centroid3,
    clip_halfspace3,
    generator_ellipsoid_mesh,
    generator_prism,
    generator_truncated_cylinder,
    platonic,
    polyhedron_new,
    volume,
)
from equirobust.util import fibonacci_sphere, rotation_from_seed

from conftest import random_hull3
from test_geom3d import _digest_cuts
from test_signed_cuts import _bodies


def _scalar(P, m, e):
    """(relative volume removed, S, U) of the cut m·z <= e from the scalar path."""
    piece = clip_halfspace3(P, m, e)
    if piece is None:
        return 1.0, -1, -1
    if piece is P:
        return 0.0, -1, -1
    counts = _search_counts(piece)
    rel = 1.0 - volume(piece) / volume(P)
    return (rel, -1, -1) if counts is None else (rel, *counts)


def _fallbacks(monkeypatch) -> list:
    """The cuts the evaluator hands to the scalar clip, as they happen."""
    calls = []

    def recording(P, normal, offset):
        calls.append(offset)
        return clip_halfspace3(P, normal, offset)

    monkeypatch.setattr(equilib3d, "clip_halfspace3", recording)
    return calls


def _evaluate(P, m, e):
    """The evaluator's rows for the cuts m[i]·z <= e[i], each row of ``m`` its
    own family."""
    m = np.asarray(m, dtype=float).reshape(-1, 3)
    return _CutEvaluator3(P, m)(np.arange(len(m)), e)


def _assert_matches(P, m, e):
    """The evaluator's rows equal the scalar path's, value bits included."""
    m = np.asarray(m, dtype=float).reshape(-1, 3)
    rel, S, U = _evaluate(P, m, e)
    got = [(r.hex(), s, u) for r, s, u in zip(rel.tolist(), S.tolist(), U.tolist())]
    want = []
    for row, x in zip(m, e):
        r, s, u = _scalar(P, row, x)
        want.append((float(r).hex(), s, u))
    assert got == want
    return S


def _grid_cuts(P, grid, seed):
    """Both families' grid cuts of ``plane_truncation_search``."""
    normals = fibonacci_sphere(grid[0]) @ rotation_from_seed(seed).T
    m, e = [], []
    for n in normals:
        lo, hi = P.support_interval(n)
        offs = np.linspace(lo, hi, grid[1] + 2)[1:-1]
        m += [n] * grid[1] + [-n] * grid[1]
        e += offs.tolist() + (-offs[::-1]).tolist()
    return m, e


def _random_cuts(rng, P, normals, offsets):
    m, e = [], []
    for _ in range(normals):
        n = rng.normal(size=3)
        lo, hi = P.support_interval(n)
        m += [n] * offsets
        e += rng.uniform(lo, hi, offsets).tolist()
    return m, e


class TestAgainstScalarPath:
    def test_digest_cuts(self):
        _, cuts = _digest_cuts()
        assert len(cuts) == 486
        groups = {}
        for P, m, e in cuts:
            group = groups.setdefault(id(P), (P, [], []))
            group[1].append(m)
            group[2].append(e)
        for P, m, e in groups.values():
            _assert_matches(P, m, e)

    @pytest.mark.parametrize("index", range(len(_bodies())), ids=[name for name, _ in _bodies()])
    def test_search_grids(self, index):
        # The grids and seeds of test_signed_cuts' reference comparison.
        body = _bodies()[index][1]
        for k, grid in enumerate(((2, 2), (4, 4), (9, 7))):
            _assert_matches(body, *_grid_cuts(body, grid, 3 * index + k))

    def test_offsets_at_the_tolerance_around_every_vertex(self):
        rng = np.random.default_rng(5)
        for _, P in _bodies()[::2]:
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            proj = P.coords @ n
            e = [float(x) + f * P.eps for x in proj for f in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0)]
            for side in (1, -1):
                _assert_matches(P, [side * n] * len(e), [side * x for x in e])

    def test_zero_area_face_piece(self):
        # A cut 2 eps inside a vertex leaves a piece with a face of zero area,
        # which the scalar path counts as unusable.
        P = platonic("tetra")
        n = np.random.default_rng(0).normal(size=3)
        n /= np.linalg.norm(n)
        d = float(P.coords[0] @ n) - 2 * P.eps
        S = _assert_matches(P, [-n], [-d])
        assert S.tolist() == [-1]

    def test_close_vertex_pair_is_left_to_the_scalar_path(self, monkeypatch):
        # A vertex 0.5 eps from a corner of the unit cube: every piece keeps
        # or merges that pair, so no cut of this body is batched.
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        faces = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
        extra = (0.5 * polyhedron_new(cube, faces).eps, 0.0, 0.0)
        faces_x = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 8, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4, 8), (1, 5, 7, 3)]
        body = polyhedron_new(cube + [extra], faces_x)
        assert not _CutEvaluator3(body, np.zeros((0, 3))).batched
        m, e = _random_cuts(np.random.default_rng(2), body, 4, 5)
        calls = _fallbacks(monkeypatch)
        _assert_matches(body, m, e)
        assert len(calls) == len(e)

    @pytest.mark.parametrize("body", [platonic("cube"), generator_prism(6, 1.5)], ids=["cube", "prism:6"])
    def test_symmetric_rims_are_ordered_without_the_clip(self, monkeypatch, body):
        # A cut through the centre of a centrally symmetric body has a rim
        # with a point at angle ±pi from its farthest point; the evaluator
        # orders that rim with the clip's own kernel, to the clip's bits.
        fallbacks = _fallbacks(monkeypatch)
        normals = fibonacci_sphere(24) @ rotation_from_seed(1).T
        m = np.concatenate([normals, -normals])
        e = m @ np.asarray(centroid3(body))
        rel, S, U = _evaluate(body, m, e)
        assert len(fallbacks) == 0
        got = [(r.hex(), s, u) for r, s, u in zip(rel.tolist(), S.tolist(), U.tolist())]
        want = [(float(r).hex(), s, u) for r, s, u in (_scalar(body, row, x) for row, x in zip(m, e))]
        assert got == want

    def test_random_cuts_rarely_fall_back(self, monkeypatch):
        rng = np.random.default_rng(3)
        bodies = [P for _, P in _bodies()] + [random_hull3(rng, 40), generator_prism(16, 0.3)]
        calls = _fallbacks(monkeypatch)
        total = fallback = 0
        for P in bodies:
            m, e = _random_cuts(rng, P, 12, 8)
            calls.clear()
            _assert_matches(P, m, e)
            fallback += len(calls)
            total += len(e)
        assert total == 1344
        assert fallback < 0.02 * total

    def test_empty_batch_and_misses(self):
        P = generator_truncated_cylinder(1, 3)
        rel, S, U = _evaluate(P, np.zeros((0, 3)), [])
        assert len(rel) == len(S) == len(U) == 0
        lo, hi = P.support_interval((0.0, 0.0, 1.0))
        rel, S, U = _evaluate(P, [(0.0, 0.0, 1.0)] * 2, [hi + 1.0, lo - 1.0])
        assert rel.tolist() == [0.0, 1.0] and S.tolist() == U.tolist() == [-1, -1]


def test_batch_allocates_little():
    P = generator_ellipsoid_mesh(1, 2, 3, facets=3000)
    m, e = _random_cuts(np.random.default_rng(4), P, 4, 8)
    evaluate = _CutEvaluator3(P, m)
    tracemalloc.start()
    try:
        rel = evaluate(np.arange(len(m)), e)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rel) == 32
    assert peak < 5e6
