#!/usr/bin/env python3
"""Benchmark of the equirobust library: time a workload or trace its layers.

Run from the repository root:

    python3 bench/run.py --workload sweep2d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads are ``sweep2d``, ``search2d`` and ``search3d`` (see
bench/README.md).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and record the environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
STATE = ROOT / ".bench_state"
WORKLOADS = ("sweep2d", "search2d", "search3d")
SETUP_PROBES = 4  # child processes; the run's own set-up is the fifth sample
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_cal": "cal", "item_p50_cal": "cal", "item_tail_cal": "cal", "peak_rss_mb": "MB"}
RAW_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms"}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> None:
    """One caller, no added threads: BLAS gets one thread unless told otherwise,
    and never more than the cores this process may run on."""
    for var in BLAS_VARS:
        value = os.environ.get(var, "1")
        try:
            threads = int(value)
        except ValueError:
            threads = 1
        os.environ[var] = str(max(1, min(threads, _nproc())))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _source_digest() -> str:
    return _digest(sorted((SRC / "equirobust").glob("*.py")))


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "eq_eps_set": "EQ_EPS" in os.environ,
    }


# -- set-up --------------------------------------------------------------------


def setup(workload: str, seed: int, limit):
    """Import the package from this checkout, generate the inputs and warm up."""
    sys.path.insert(0, str(SRC))
    try:
        import equirobust
        import workloads
        from equirobust import geom3d
    except ImportError as exc:
        raise BenchError(f"cannot import the package from {SRC}: {exc}") from None
    if Path(equirobust.__file__).resolve().parent != SRC / "equirobust":
        raise BenchError(f"equirobust was imported from {equirobust.__file__}, not from {SRC}")
    items = workloads.make_items(workload, seed, limit)
    # The first hull3 call imports scipy.spatial; a CLI call on a polyhedron pays it.
    geom3d.hull3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    workloads.RUNNERS[workload](items[0], items[0].shape())
    return items


def _setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.items is not None:
        cmd += ["--items", str(args.items)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise BenchError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip().splitlines()[-1])


def load_references(workload: str, seed: int, items) -> list:
    import workloads

    try:
        data = json.loads((REFS / f"{workload}.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"no usable references for {workload} in {REFS}: {exc}") from None
    if data.get("params") != workloads.workload_params(workload):
        raise BenchError(f"references for {workload} were recorded with other parameters")
    refs = data["classes"][str(seed % workloads.SEED_CLASSES)]
    for item, ref in zip(items, refs):
        if ref["label"] != item.label:
            raise BenchError(f"{workload} item {item.index}: reference is for {ref['label']}, input is {item.label}")
    return refs


# -- measurement -----------------------------------------------------------------


def calibration_kernel(array_passes: int) -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and large-array work.

    Python loops and numpy calls on a few dozen values are the 2D
    workloads' mix; ``array_passes`` passes over 50,000 values add the 3D
    walk's.  The kernel shares no code with the package, so a time divided
    by it keeps the program's speed and drops the machine's.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    a = np.arange(64.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    b = np.arange(50_000.0)
    for _ in range(array_passes):
        b = np.sqrt(b * b + 1.0)
    return time.perf_counter() - t0


class Run:
    """Executions, failures and span samples of one workload run."""

    def __init__(self, workload: str, items, refs, tracer) -> None:
        import workloads

        self.workload = workload
        self.items = items
        self.refs = refs
        self.tracer = tracer
        self.runner = workloads.RUNNERS[workload]
        self.array_passes = workloads.CALIBRATION_ARRAY_PASSES[workload]
        self.times = [[] for _ in items]
        self.calibrations: list[tuple[int, float, float]] = []  # (item, time, kernel time before)
        self.traced_times = [[] for _ in items]
        self.spans = [[] for _ in items]  # per traced execution: (calls, self_s, extra)
        self.structural: dict[int, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.reported: set = set()

    def execute(self, i: int, traced: bool) -> None:
        import workloads

        item = self.items[i]
        P = item.shape()
        gc.collect()
        if not traced:
            kernel = min(calibration_kernel(self.array_passes), calibration_kernel(self.array_passes))
        if traced:
            self.tracer.reset()
            self.tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            outputs = self.runner(item, P)
        except Exception as exc:  # an undocumented exception is a failed item, not a crash
            outputs = None
            error = f"undocumented {type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        (self.traced_times if traced else self.times)[i].append(dt)
        if not traced:
            self.calibrations.append((i, dt, kernel))
        if traced:
            t = self.tracer
            self.spans[i].append((dict(t.calls), dict(t.self_s), dict(t.extra)))

        self.attempted += 1
        if outputs is None:
            reasons = [error]
        else:
            try:
                reasons = workloads.compare(self.refs[i]["out"], outputs)
            except Exception as exc:  # e.g. an output text that is no longer JSON
                reasons = [f"comparison raised {type(exc).__name__}: {exc}"]
            if i not in self.structural:
                self.structural[i] = workloads.structural_checks(self.workload, item, outputs)
                for name, (text, _) in outputs.items():
                    if text.startswith("raise "):
                        print(f"note: {self.workload} item {i} ({item.label}) {name}: {text.splitlines()[0]}"
                              " (documented exception, compared to the reference)", file=sys.stderr)
            reasons = reasons + self.structural[i]
        if reasons:
            self.failed += 1
            for reason in reasons:
                if (i, reason) not in self.reported:
                    self.reported.add((i, reason))
                    print(f"FAILED {self.workload} item {i} ({item.label}): {reason}", file=sys.stderr)

    def loop(self, seconds: float, trace: bool) -> None:
        """Closed loop over the pass until ``seconds`` elapse; at least one full pass."""
        deadline = time.perf_counter() + seconds
        k = 0
        while k < len(self.items) or time.perf_counter() < deadline:
            i = k % len(self.items)
            self.execute(i, traced=False)
            if trace:
                self.execute(i, traced=True)
            k += 1
        if trace and len(self.spans[0]) < 2:
            self.execute(0, traced=True)  # every traced run repeats at least one item
        self.closing_kernel = min(calibration_kernel(self.array_passes), calibration_kernel(self.array_passes))

    def calibrated_times(self) -> list[list[float]]:
        """Per item, each execution's time over the mean kernel time around it."""
        out = [[] for _ in self.items]
        after = [k for _, _, k in self.calibrations[1:]] + [self.closing_kernel]
        for (i, dt, before), later in zip(self.calibrations, after):
            out[i].append(dt / (0.5 * (before + later)))
        return out

    def check_determinism(self, seed_class: int) -> None:
        """Span call counts of an item must repeat exactly, within and across runs
        of the same package and benchmark code."""
        counts = {}
        for i, samples in enumerate(self.spans):
            if not samples:
                continue
            first = samples[0][0]
            for calls, _, _ in samples[1:]:
                if calls != first:
                    raise BenchError(f"{self.workload} item {i}: span calls differ between traced executions")
            counts[str(i)] = first
        STATE.mkdir(exist_ok=True)
        code = _digest(sorted((SRC / "equirobust").glob("*.py")) + sorted(BENCH.glob("*.py")))
        path = STATE / f"calls-{self.workload}-c{seed_class}-{code}-n{len(self.items)}.json"
        previous = json.loads(path.read_text()) if path.exists() else {}
        for key, calls in counts.items():
            if key in previous and previous[key] != calls:
                raise BenchError(f"{self.workload} item {key}: span calls differ from an earlier traced run "
                                 f"of this seed class ({path.name})")
        path.write_text(json.dumps({**previous, **counts}, sort_keys=True))


def tail_percentile(n_items: int) -> float:
    """Highest ladder percentile with at least ten distinct items beyond it."""
    for p in TAIL_LADDER:
        if n_items * (100.0 - p) >= 1000.0:
            return p
    return 50.0


def _item_best(times) -> list[float]:
    """Each item's fastest execution: the machine only ever adds time."""
    return [min(t) for t in times]


def end_to_end(run: Run, setup_times) -> tuple[dict, dict]:
    """Bounded metrics and the run details, raw times among them."""
    import numpy as np

    best = _item_best(run.times)
    cal = [statistics.median(t) for t in run.calibrated_times()]
    p_tail = tail_percentile(len(best))
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_cal": sum(cal),
        "item_p50_cal": statistics.median(cal),
        "item_tail_cal": float(np.percentile(cal, p_tail)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "wall_s": sum(best),
        "item_p50_ms": statistics.median(best) * 1e3,
        "item_tail_ms": float(np.percentile(best, p_tail)) * 1e3,
        "items": len(best),
        "executions": sum(len(t) for t in run.times),
        "tail_percentile": p_tail,
        "failed_frac": run.failed / run.attempted,
        "kernel_ms": statistics.median(k for _, _, k in run.calibrations) * 1e3,
        "setup_samples_s": setup_times,
    }
    return values, detail


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-pass span metrics: exact call counts, each item's least self time."""
    import tracing

    calls, self_s, extra = {}, {}, {}
    for samples in run.spans:
        if not samples:
            continue
        for key, value in samples[0][0].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in samples[0][2].items():
            extra[key] = extra.get(key, 0) + value
        for span in tracing.span_names():
            self_s[span] = self_s.get(span, 0.0) + min(s[1].get(span, 0.0) for s in samples)
    metrics, units = {}, {}
    for span in tracing.span_names():
        n = calls.get(span, 0)
        metrics[f"{span}.calls"], units[f"{span}.calls"] = n, "count"
        metrics[f"{span}.self_s"], units[f"{span}.self_s"] = self_s.get(span, 0.0), "s"
        if span in tracing.PER_CALL:
            metrics[f"{span}.us_per_call"] = self_s.get(span, 0.0) / n * 1e6 if n else 0.0
            units[f"{span}.us_per_call"] = "us"
        for name in tracing.EXTRA_COUNTS.get(span, ()):
            value = extra.get(f"{span}.{name}", 0)
            if name in tracing.RATIOS.get(span, ()):
                metrics[f"{span}.{name}_frac"] = value / n if n else 0.0
                units[f"{span}.{name}_frac"] = "ratio"
            else:
                metrics[f"{span}.{name}"] = value
                units[f"{span}.{name}"] = "bytes" if name == "bytes" else "count"
    measured = [i for i, s in enumerate(run.spans) if s]
    traced_wall = sum(min(run.traced_times[i]) for i in measured)
    plain_wall = sum(min(run.times[i]) for i in measured)
    metrics["tracing_overhead_s"], units["tracing_overhead_s"] = traced_wall - plain_wall, "s"
    return metrics, units


# -- entry points ----------------------------------------------------------------


def run_workload(args) -> int:
    setup_times = [_setup_probe(args) for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    items = setup(args.workload, args.seed, args.items)
    setup_times.append(time.perf_counter() - t0)
    refs = load_references(args.workload, args.seed, items)
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    run = Run(args.workload, items, refs, tracer)
    run.loop(args.seconds, bool(args.trace))
    env = environment()

    metrics, detail = end_to_end(run, setup_times)
    units = END_TO_END_UNITS
    if args.trace:
        run.check_determinism(args.seed % workloads.SEED_CLASSES)
        metrics, units = per_layer(run)
    rows = [(name, value, units[name], "") for name, value in metrics.items()]
    if not args.trace:
        counts = f"  ({detail['items']} items, {detail['executions']} executions, tail p{detail['tail_percentile']:g})"
        rows += [(name, detail[name], unit, counts if name == "wall_s" else "") for name, unit in RAW_UNITS.items()]
    rows.append(("failed_frac", detail["failed_frac"], "ratio", f"  ({run.failed} of {run.attempted} executions)"))
    for name, value, unit, note in rows:
        print(f"{args.workload:9s} {name:48s} {value:>16.6g} {unit}{note}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": detail, "env": env}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process), one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.items is not None:
            cmd += ["--items", str(args.items)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with code {out.returncode}", file=sys.stderr)
            return out.returncode or 2
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None, help="run only the first N items of the pass")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if "EQ_EPS" in os.environ:
        print("error: EQ_EPS is set; it changes every tolerance, so results would not be comparable",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            t0 = time.perf_counter()
            setup(args.workload, args.seed, args.items)
            print(time.perf_counter() - t0)
            return 0
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
