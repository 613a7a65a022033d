"""Layer spans for the traced run.

Spans wrap module attributes: the public functions the benchmark calls, and
the names through which one module calls another (``robust2d`` reaches the
2D clip as ``robust2d.clip_halfplane_nd``).  Nothing under ``src/`` changes;
the wrappers are installed only around traced executions.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from equirobust import equilib3d, errors, geom3d, reports, robust2d, util


def _clip_outcome(none_name: str):
    """Counts clips that returned ``None`` (as ``none_name``) or the input unchanged."""

    def observe(extra: Counter, span: str, args, result, exc) -> None:
        if exc is None and result is None:
            extra[f"{span}.{none_name}"] += 1
        elif exc is None and result is args[0]:
            extra[f"{span}.miss"] += 1

    return observe


def _degenerate(extra: Counter, span: str, args, result, exc) -> None:
    if isinstance(exc, errors.DegenerateConfiguration) or (exc is None and result.any_degenerate):
        extra[f"{span}.degenerate"] += 1


def _points(extra: Counter, span: str, args, result, exc) -> None:
    extra[f"{span}.points"] += len(args[1])


def _text_bytes(extra: Counter, span: str, args, result, exc) -> None:
    if exc is None:
        extra[f"{span}.bytes"] += len(result.encode("utf-8"))


# (span, [(owner, attribute)], observer); ``owner`` is a module or a class.
SPANS = [
    ("geom2d.clip_halfplane_nd", [(robust2d, "clip_halfplane_nd")], _clip_outcome("collapsed")),
    ("equilib2d.equilibria", [(robust2d, "equilibria")], _degenerate),
    ("equilib2d.stable_count_batch", [(robust2d, "stable_count_batch")], _points),
    ("robust2d.truncation_sweep", [(robust2d, "truncation_sweep")], None),
    ("robust2d.full_robustness_line_bound", [(robust2d, "full_robustness_line_bound")], None),
    ("robust2d.rho_in_sampled", [(robust2d, "rho_in_sampled")], None),
    ("robust2d.rho_ex_exact", [(robust2d, "rho_ex_exact")], None),
    ("robust2d.rho_in_exact", [(robust2d, "rho_in_exact")], None),
    ("robust2d.sweep_csv", [(robust2d, "sweep_csv")], _text_bytes),
    ("geom3d.clip_halfspace3", [(equilib3d, "clip_halfspace3")], _clip_outcome("empty")),
    ("geom3d.mass", [(geom3d, "centroid3"), (equilib3d, "centroid3"), (equilib3d, "volume")], None),
    ("equilib3d.plane_truncation_search", [(equilib3d, "plane_truncation_search")], None),
    ("equilib3d.classify3", [(equilib3d, "classify3")], None),
    ("equilib3d.rho_in_exact_3d", [(equilib3d, "rho_in_exact_3d")], None),
    ("equilib3d.rho_in_sampled_3d", [(equilib3d, "rho_in_sampled_3d")], None),
    ("equilib3d.stable_count3", [(equilib3d, "stable_count3")], _points),
    ("util.first_exit_distances", [(util, "first_exit_distances"), (equilib3d, "first_exit_distances")], None),
    ("reports.to_json", [(reports.RobustnessReport, "to_json"), (equilib3d.EquilibriumSet3, "to_json")],
     _text_bytes),
]

#: Extra counters per span, each reported as ``<span>.<name>`` and, where
#: a ratio is named, as ``<span>.<name>_frac`` of the span's calls.
EXTRA_COUNTS = {
    "geom2d.clip_halfplane_nd": ("collapsed", "miss"),
    "equilib2d.equilibria": ("degenerate",),
    "equilib2d.stable_count_batch": ("points",),
    "robust2d.sweep_csv": ("bytes",),
    "geom3d.clip_halfspace3": ("empty", "miss"),
    "equilib3d.stable_count3": ("points",),
    "reports.to_json": ("bytes",),
}
RATIOS = {
    "geom2d.clip_halfplane_nd": ("collapsed", "miss"),
    "equilib2d.equilibria": ("degenerate",),
    "geom3d.clip_halfspace3": ("empty", "miss"),
}
PER_CALL = ("geom2d.clip_halfplane_nd", "equilib2d.equilibria", "geom3d.clip_halfspace3")


class Tracer:
    """Aggregates span calls, self time and observer counts in memory."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()

    def _wrap(self, span: str, fn, observe):
        stack, calls, self_s, extra = self._stack, self.calls, self.self_s, self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[span] += 1
                self_s[span] += dur - child[0]
                if observe is not None:
                    observe(extra, span, args, result, exc)

        return wrapper

    def install(self) -> None:
        for span, targets, observe in SPANS:
            for owner, attr in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def span_names() -> list[str]:
    return [span for span, _, _ in SPANS]
