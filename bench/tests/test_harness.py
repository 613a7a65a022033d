"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/tests -q

Each test runs ``bench/run.py`` in a subprocess, as a user would.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "5", "--seconds", "0.1", "--items", "2"]


def _run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _table_units(out) -> dict:
    """Metric name -> unit, from the table lines before the result line."""
    units = {}
    for line in out.stdout.strip().splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 4 and not line.startswith("{"):
            units[parts[1]] = parts[3]
    return units


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_timed_run_prints_every_end_to_end_metric_with_its_unit(workload):
    out = _run(["--workload", workload, "--trace", "0", *TINY])
    result = _result(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    table = _table_units(out)
    assert table["failed_frac"] == "ratio"
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert table[metric["name"]] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_layer_metric_and_repeats_call_counts():
    first = _result(_run(["--workload", "search3d", "--trace", "1", *TINY]))
    second = _result(_run(["--workload", "search3d", "--trace", "1", *TINY]))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls["equilib3d.stable_count3.calls"] > 0


def _copy_benchmark(dest: Path, with_sources: bool) -> None:
    """The files a benchmark checkout holds, with or without the package."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for rel in SPEC["paths"] + (["src"] if with_sources else []):
        shutil.copytree(ROOT / rel, dest / rel, ignore=ignore)


def test_corrupted_reference_is_a_failed_item(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    path = tmp_path / "bench" / "refs" / "sweep2d.json"
    data = json.loads(path.read_text())
    entry = data["classes"]["5"][1]["out"]["sweep_csv"]
    entry[0] = "0" * len(entry[0])
    path.write_text(json.dumps(data))
    out = _run(["--workload", "sweep2d", "--trace", "0", *TINY], cwd=tmp_path)
    result = _result(out)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert "FAILED sweep2d item 1" in out.stderr


def test_a_check_that_raises_is_a_reason(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from equirobust import errors

    def leak(P, p):
        raise errors.ReferenceOutside("reference point is outside the polygon")

    item = workloads.make_items("search2d", 5, 1)[0]
    outputs = workloads.run_search2d(item, item.shape())
    monkeypatch.setattr(workloads.equilib2d, "equilibria", leak)
    reasons = workloads.structural_checks("search2d", item, outputs)
    assert any("raised ReferenceOutside" in r for r in reasons)


def test_refuses_to_run_with_eq_eps_set():
    out = _run(["--workload", "sweep2d", "--trace", "0", *TINY], env={**os.environ, "EQ_EPS": "1e-9"})
    assert out.returncode != 0 and "EQ_EPS" in out.stderr
    assert out.stdout == ""


def test_fails_without_the_package_sources(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    out = _run(["--workload", "sweep2d", "--trace", "0", *TINY], cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith('{"correct"') for line in out.stdout.splitlines())
