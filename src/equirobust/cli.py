"""Command-line front end.

Subcommands: ``analyze`` (equilibrium classification), ``robust`` (robustness
measures), ``sweep`` (random-truncation sweep with CSV/SVG output) and
``fixtures`` (built-in worked examples).  Shapes come from the builtin
grammar (``--builtin``), polygon JSON (``--poly``) or OFF files (``--off``).

Exit codes: 0 success (including an explicit ``no_reduction_found`` status),
1 I/O error, 2 degenerate configuration, 3 validation error, 4 fixture
failure.  Error payloads go to stderr as JSON with a ``status`` field
mirroring the exit code.  All numeric output carries 17 significant digits;
identical invocations produce byte-identical output.  The geometric
tolerance can be overridden through the ``EQ_EPS`` environment variable: it is
read once at import and scales with each shape (polygon diameter, polyhedron
bounding-box diagonal).  A value that is not a positive finite number fails at
import with a Python traceback, before the exit codes above apply.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .equilib2d import equilibria
from .equilib3d import (
    classify3,
    ellipsoid_class,
    example_truncated_tetra_fixture,
    plane_truncation_search,
    rho_in_exact_3d,
    rho_in_sampled_3d,
)
from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    DegeneratePresent,
    FixtureError,
    NonConvexInput,
    ReferenceOutside,
    TooFewStable,
)
from .geom2d import centroid, polygon_from_json, polygon_new, regular_ngon
from .geom3d import (
    centroid3,
    generator_truncated_cylinder,
    platonic,
    read_off,
    surface_area,
)
from .reports import json_dumps_g17
from .robust2d import (
    dowker_convexity_check,
    full_robustness_line_bound,
    rho_ex_exact,
    rho_in_exact,
    rho_in_sampled,
    summary_csv,
    summary_svg,
    sweep_csv,
    truncation_sweep,
)

_STATUS_BY_CODE = {1: "io-error", 2: "degenerate", 3: "validation-error", 4: "fixture-failure"}

_PLATONIC_NAMES = ("tetra", "cube", "octa", "dodeca", "icosa")


class CLIError(Exception):
    """Validation failure raised by the front end itself."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equirobust",
        description="Equilibrium classification and robustness of convex solids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape(p: argparse.ArgumentParser) -> None:
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--builtin", metavar="NAME",
                         help="builtin shape: ngon:S, rect:a:b, square, "
                              "tetra, cube, octa, dodeca, icosa, cylcut:r:d, ellipsoid:a:b:c")
        grp.add_argument("--poly", metavar="FILE", help="polygon JSON file")
        grp.add_argument("--off", metavar="FILE", help="polyhedron OFF file")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv", "svg"), default=None)

    pa = sub.add_parser("analyze", help="classify equilibria with respect to a reference point")
    add_shape(pa)
    pa.add_argument("--ref", default="centroid", help="centroid or x,y[,z]")
    add_common(pa)

    pr = sub.add_parser("robust", help="compute a robustness measure")
    add_shape(pr)
    pr.add_argument("--kind", required=True,
                    choices=("in", "ex", "full-line", "partial-s", "partial-u", "partial-any"))
    pr.add_argument("--ref", default="centroid", help="centroid or x,y[,z]")
    pr.add_argument("--rays-only", action="store_true",
                    help="restrict internal-robustness walls to their inward halves")
    pr.add_argument("--samples", type=int, default=None,
                    help="direction count: switches kind=in to the sampled method")
    pr.add_argument("--seed", type=int, default=None, help="seed (required for partial-* searches)")
    pr.add_argument("--grid-theta", type=int, default=None, help="search grid: directions")
    pr.add_argument("--grid-offset", type=int, default=None, help="search grid: offsets per direction")
    pr.add_argument("--tol", type=float, default=None, help="refinement tolerance")
    add_common(pr)

    ps = sub.add_parser("sweep", help="random-truncation sweep of a polygon")
    add_shape(ps)
    ps.add_argument("--samples", type=int, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--bins", type=int, default=20)
    add_common(ps)

    pf = sub.add_parser("fixtures", help="run the built-in worked examples")
    pf.add_argument("--out", metavar="PATH", help="output path (default stdout)")

    return parser


# -- shape loading ----------------------------------------------------------


def _builtin_shape(spec: str):
    """Resolve a builtin spec to ("2d", polygon), ("3d", polyhedron) or
    ("ellipsoid", (a, b, c))."""
    name, _, rest = spec.partition(":")
    try:
        if name == "square" and not rest:
            return "2d", polygon_new([(0, 0), (1, 0), (1, 1), (0, 1)])
        if name == "ngon":
            return "2d", regular_ngon(int(rest))
        if name == "rect":
            a, b = (float(t) for t in rest.split(":"))
            if not (a > 0 and b > 0):
                raise CLIError("rect sides must be positive")
            return "2d", polygon_new([(0, 0), (a, 0), (a, b), (0, b)])
        if name in _PLATONIC_NAMES and not rest:
            return "3d", platonic(name)
        if name == "cylcut":
            r, d = (float(t) for t in rest.split(":"))
            return "3d", generator_truncated_cylinder(r, d)
        if name == "ellipsoid":
            a, b, c = (float(t) for t in rest.split(":"))
            return "ellipsoid", (a, b, c)
    except CLIError:
        raise
    except ValueError as exc:
        raise CLIError(f"bad builtin arguments in {spec!r}: {exc}") from None
    raise CLIError(f"unknown builtin shape {spec!r}")


def _load_shape(args):
    if args.builtin:
        return _builtin_shape(args.builtin)
    if args.poly:
        with open(args.poly, "r", encoding="utf-8") as fh:
            return "2d", polygon_from_json(fh.read())
    return "3d", read_off(args.off)


def _parse_ref(text: str, shape, dim: str):
    if text == "centroid":
        return centroid(shape) if dim == "2d" else centroid3(shape)
    parts = [float(t) for t in text.split(",")]
    if dim == "2d" and len(parts) == 2:
        return (parts[0], parts[1])
    if dim == "3d" and len(parts) == 3:
        return (parts[0], parts[1], parts[2])
    raise CLIError(f"--ref needs 'centroid' or {2 if dim == '2d' else 3} coordinates")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _given(value, default):
    """An option's value, or its default when it was not given (0 is a value)."""
    return default if value is None else value


def _require_json_format(args) -> None:
    if args.format not in (None, "json"):
        raise CLIError(f"format {args.format!r} is not supported for this command")


# -- commands ---------------------------------------------------------------


def _cmd_analyze(args) -> int:
    _require_json_format(args)
    dim, shape = _load_shape(args)
    if dim == "ellipsoid":
        if args.ref != "centroid":
            raise CLIError("ellipsoid analysis is defined for the centroid reference only")
        a, b, c = shape
        try:
            klass = ellipsoid_class(a, b, c)
        except DegenerateInput as exc:
            raise DegenerateConfiguration(str(exc)) from None
        payload = {"status": "ok", "shape": args.builtin, "reference": "centroid", **klass.as_dict()}
        _emit(json_dumps_g17(payload), args.out)
        return 0
    ref = _parse_ref(args.ref, shape, dim)
    eq = equilibria(shape, ref) if dim == "2d" else classify3(shape, ref)
    status = "degenerate" if eq.any_degenerate else "ok"
    payload = {"status": status, "reference": list(ref), **eq.as_dict()}
    _emit(json_dumps_g17(payload), args.out)
    return 2 if eq.any_degenerate else 0


def _cmd_robust(args) -> int:
    _require_json_format(args)
    dim, shape = _load_shape(args)
    if dim == "ellipsoid":
        raise CLIError("robustness measures need a polygon or polyhedron; "
                       "use 'analyze' for the analytic ellipsoid class")
    kind = args.kind
    partial = kind.startswith("partial-")
    needs = "3d" if partial else "2d" if kind in ("full-line", "ex") else dim
    if dim != needs:
        raise CLIError(f"kind {kind!r} needs a {'polyhedron' if needs == '3d' else 'polygon'}")
    if partial and args.seed is None:
        raise CLIError(f"kind {kind!r} is a seeded search: pass --seed")
    # A given option that the kind does not read is refused, not ignored.
    search = {"grid_theta", "grid_offset", "tol"}
    reads = {"in": {"ref", "samples" if args.samples is not None else "rays_only"}, "ex": {"ref"}, "full-line": search}
    given = {"ref": args.ref != "centroid", "rays_only": args.rays_only}
    given |= {name: getattr(args, name) is not None for name in ("samples", "seed", "grid_theta", "grid_offset", "tol")}
    for name in given:
        if given[name] and name not in reads.get(kind, search | {"seed"}):
            raise CLIError(f"--{name.replace('_', '-')} is not used by kind {kind!r}")
    if partial:
        target = {"partial-s": "reduce_S", "partial-u": "reduce_U", "partial-any": "reduce_any"}[kind]
        grid = (_given(args.grid_theta, 32), _given(args.grid_offset, 16))
        report = plane_truncation_search(
            shape, target, grid=grid, refine_tol=_given(args.tol, 1e-4), seed=args.seed
        )
    elif kind == "full-line":
        report = full_robustness_line_bound(
            shape, grid_theta=_given(args.grid_theta, 180), grid_offset=_given(args.grid_offset, 48),
            refine_tol=_given(args.tol, 1e-6),
        )
    elif kind == "ex":
        report = rho_ex_exact(shape, _parse_ref(args.ref, shape, dim))
    else:  # kind == "in"
        ref = _parse_ref(args.ref, shape, dim)
        if args.samples is not None:
            if dim == "2d":
                report = rho_in_sampled(shape, ref, directions=args.samples)
            else:
                report = rho_in_sampled_3d(shape, ref, directions=args.samples)
        elif dim == "2d":
            report = rho_in_exact(shape, ref, rays_only=args.rays_only)
        else:
            report = rho_in_exact_3d(shape, ref, rays_only=args.rays_only)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    dim, shape = _load_shape(args)
    if dim != "2d":
        raise CLIError("sweep needs a polygon shape")
    sweep, summary = truncation_sweep(shape, args.samples, args.seed, bins=args.bins)
    if args.out:
        # All three texts are built before any is written: a schema error writes no file.
        texts = {".samples.csv": sweep_csv(sweep), ".summary.csv": summary_csv(summary), ".svg": summary_svg(summary)}
        for suffix, text in texts.items():
            _emit(text, args.out + suffix)
        _emit(json_dumps_g17({"status": "ok", "samples": len(sweep), "files": [args.out + s for s in texts]}), None)
    elif args.format == "svg":
        _emit(summary_svg(summary), None)
    elif args.format == "json":
        _emit(json_dumps_g17({"status": "ok", "samples": len(sweep), "summary_csv": summary_csv(summary)}), None)
    else:
        # The per-sample rows fit any polygon; the summary formats hold only delta-S -2..+1.
        _emit(sweep_csv(sweep), None)
    return 0


def _cmd_fixtures(args) -> int:
    payload: dict = {"status": "ok"}
    try:
        P, P2, (rep, rep2) = example_truncated_tetra_fixture()
    except FixtureError as exc:
        payload["status"] = "fixture-failure"
        payload["truncated_tetra"] = {"passed": False, "error": str(exc)}
        _emit(json_dumps_g17(payload), args.out)
        return 4
    payload["truncated_tetra"] = {
        "passed": True,
        "value_before": rep.value,
        "value_after": rep2.value,
        "surface_area_after": surface_area(P2),
    }

    pairs = [(n, k) for n in range(4, 64) for k in range(1, n - 2) if n + k <= 64 and n - k >= 3]
    failures = [[n, k] for n, k in pairs if not dowker_convexity_check(n, k)]
    payload["dowker"] = {"pairs_checked": len(pairs), "failures": failures, "passed": not failures}
    if failures:
        payload["status"] = "fixture-failure"
        _emit(json_dumps_g17(payload), args.out)
        return 4
    _emit(json_dumps_g17(payload), args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "robust": _cmd_robust,
        "sweep": _cmd_sweep,
        "fixtures": _cmd_fixtures,
    }
    try:
        return handlers[args.command](args)
    except (DegenerateConfiguration, DegeneratePresent, TooFewStable) as exc:
        return _fail(2, str(exc))
    except (CLIError, ReferenceOutside, NonConvexInput, DegenerateInput, ValueError) as exc:
        return _fail(3, str(exc))
    except FixtureError as exc:
        return _fail(4, str(exc))
    except OSError as exc:
        return _fail(1, str(exc))


def _fail(code: int, message: str) -> int:
    sys.stderr.write(json.dumps({"status": _STATUS_BY_CODE[code], "error": message}) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
