import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from equirobust.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestAnalyze:
    def test_square_centroid(self, run):
        code, out, _ = run("analyze", "--builtin", "square", "--ref", "centroid")
        d = json.loads(out)
        assert code == 0
        assert (d["S"], d["U"]) == (4, 4)
        assert d["status"] == "ok"

    def test_cube_off_file(self, run, tmp_path):
        from equirobust.geom3d import platonic, write_off

        path = str(tmp_path / "cube.off")
        write_off(platonic("cube"), path)
        code, out, _ = run("analyze", "--off", path, "--ref", "centroid")
        d = json.loads(out)
        assert code == 0
        assert (d["S"], d["H"], d["U"]) == (6, 12, 8)

    def test_obtuse_triangle_poly_file(self, run, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text('{"vertices": [[0, 0], [1, 0], [0.9, 0.1]]}')
        code, out, _ = run("analyze", "--poly", str(path))
        d = json.loads(out)
        assert code == 0
        assert (d["S"], d["U"]) == (2, 2)

    @pytest.mark.parametrize("coord", ["null", "{}", "[]", "[1]", '"0"', "true", "false", "1" + "0" * 400])
    def test_poly_coordinate_that_is_not_a_number_is_validation_error(self, run, tmp_path, coord):
        # Only JSON numbers are coordinates; a string or a boolean is not read
        # as one, and an integer beyond the float range is not finite.
        path = tmp_path / "poly.json"
        path.write_text(f'{{"vertices": [[0, 0], [1, 0], [{coord}, 1]]}}')
        code, out, err = run("analyze", "--poly", str(path))
        assert (code, out) == (3, "")
        assert json.loads(err)["status"] == "validation-error"

    def test_explicit_reference(self, run):
        code, out, _ = run("analyze", "--builtin", "ngon:6", "--ref", "0.01,0.02")
        d = json.loads(out)
        assert code == 0
        assert d["reference"] == [0.01, 0.02]

    def test_ellipsoid_analytic_class(self, run):
        code, out, _ = run("analyze", "--builtin", "ellipsoid:1:2:4")
        d = json.loads(out)
        assert code == 0
        assert (d["S"], d["H"], d["U"]) == (2, 2, 2)

    def test_ellipsoid_repeated_axes_degenerate(self, run):
        code, _, err = run("analyze", "--builtin", "ellipsoid:1:1:2")
        assert code == 2
        assert json.loads(err)["status"] == "degenerate"

    def test_reference_outside_is_validation_error(self, run):
        code, _, err = run("analyze", "--builtin", "square", "--ref", "5,5")
        assert code == 3
        assert json.loads(err)["status"] == "validation-error"

    def test_non_finite_reference_is_validation_error(self, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("analyze", "--builtin", "cube", "--ref", "nan,0,0")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"status": "validation-error", "error": "reference point must be strictly interior"}

    def test_unknown_builtin(self, run):
        code, _, err = run("analyze", "--builtin", "klein-bottle")
        assert code == 3

    def test_missing_file_is_io_error(self, run, tmp_path):
        code, _, err = run("analyze", "--off", str(tmp_path / "nope.off"))
        assert code == 1
        assert json.loads(err)["status"] == "io-error"

    def test_out_file(self, run, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run("analyze", "--builtin", "tetra", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["S"] == 4


class TestRobust:
    def test_ngon_internal_closed_form(self, run):
        code, out, _ = run("robust", "--builtin", "ngon:5", "--kind", "in")
        d = json.loads(out)
        assert code == 0
        assert d["value"] == pytest.approx(0.1, abs=1e-12)
        assert d["method"] == "exact"

    def test_square_external_closed_form(self, run):
        code, out, _ = run("robust", "--builtin", "ngon:4", "--kind", "ex")
        d = json.loads(out)
        assert code == 0
        assert d["value"] == pytest.approx(0.0536505, abs=5e-7)

    def test_cube_internal(self, run):
        code, out, _ = run("robust", "--builtin", "cube", "--kind", "in")
        d = json.loads(out)
        assert code == 0
        assert d["value"] == pytest.approx(0.2041241, abs=5e-7)
        assert d["witness"]["type"] == "wall"

    def test_sampled_method_via_samples_flag(self, run):
        code, out, _ = run("robust", "--builtin", "cube", "--kind", "in", "--samples", "512")
        d = json.loads(out)
        assert code == 0
        assert d["method"] == "sampled"
        assert d["value"] == pytest.approx(1.0 / (2.0 * math.sqrt(6.0)), rel=5e-3)

    def test_full_line_bound_square(self, run):
        code, out, _ = run("robust", "--builtin", "square", "--kind", "full-line",
                           "--grid-theta", "24", "--grid-offset", "12")
        d = json.loads(out)
        assert code == 0
        assert 0.0 < d["value"] < 1.0
        assert d["details"]["upper_bound"] is True

    def test_partial_search_requires_seed(self, run):
        code, _, err = run("robust", "--builtin", "cube", "--kind", "partial-s")
        assert code == 3

    def test_partial_search_cube(self, run):
        code, out, _ = run("robust", "--builtin", "cube", "--kind", "partial-s", "--seed", "5")
        d = json.loads(out)
        assert code == 0
        assert d["value"] == pytest.approx(0.18099660269384454, abs=1e-12)
        assert d["details"]["grid"] == [32, 16]

    def test_partial_on_polygon_rejected(self, run):
        code, _, err = run("robust", "--builtin", "square", "--kind", "partial-s", "--seed", "1")
        assert code == 3

    def test_external_on_polyhedron_rejected(self, run):
        code, _, err = run("robust", "--builtin", "cube", "--kind", "ex")
        assert code == 3

    def test_ellipsoid_rejected(self, run):
        code, _, err = run("robust", "--builtin", "ellipsoid:1:2:4", "--kind", "in")
        assert code == 3

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sampled_2d_needs_positive_samples(self, run, samples):
        code, out, err = run("robust", "--builtin", "square", "--kind", "in", "--samples", samples)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"status": "validation-error", "error": "directions must be positive"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("square", "full-line", "--ref", "garbage"), "--ref is not used by kind 'full-line'"),
            (("cube", "partial-s", "--seed", "1", "--ref", "garbage"), "--ref is not used by kind 'partial-s'"),
            (("square", "ex", "--samples", "5"), "--samples is not used by kind 'ex'"),
            (("square", "ex", "--rays-only"), "--rays-only is not used by kind 'ex'"),
            (("square", "in", "--seed", "3", "--tol", "0.5"), "--seed is not used by kind 'in'"),
            (("square", "in", "--samples", "16", "--rays-only"), "--rays-only is not used by kind 'in'"),
            (("cube", "in", "--grid-theta", "4"), "--grid-theta is not used by kind 'in'"),
            (("square", "full-line", "--seed", "0"), "--seed is not used by kind 'full-line'"),
            (("cube", "partial-any", "--seed", "1", "--samples", "0"), "--samples is not used by kind 'partial-any'"),
            (("cube", "partial-u", "--seed", "1", "--rays-only"), "--rays-only is not used by kind 'partial-u'"),
        ],
    )
    def test_option_the_kind_does_not_read_rejected(self, run, argv, message):
        code, out, err = run("robust", "--builtin", argv[0], "--kind", *argv[1:])
        assert (code, out) == (3, "")
        assert json.loads(err) == {"status": "validation-error", "error": message}

    @pytest.mark.parametrize(
        "argv",
        [
            ("square", "in", "--ref", "centroid", "--samples", "16"),
            ("square", "in", "--ref", "0.45,0.5", "--rays-only"),
            ("square", "ex", "--ref", "0.45,0.5"),
            ("square", "full-line", "--grid-theta", "6", "--grid-offset", "4", "--tol", "1e-3"),
            ("cube", "partial-s", "--seed", "1", "--grid-theta", "2", "--grid-offset", "3", "--tol", "0.01"),
        ],
    )
    def test_options_the_kind_reads_accepted(self, run, argv):
        code, out, err = run("robust", "--builtin", argv[0], "--kind", *argv[1:])
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] in ("ok", "no_reduction_found")


class TestSweep:
    def test_single_sample_two_rows(self, run):
        code, out, _ = run("sweep", "--builtin", "square", "--samples", "1", "--seed", "1")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].startswith("theta,offset,side")
        assert len(lines) == 3  # header + both pieces of the one line

    def test_deterministic_per_seed(self, run):
        _, a, _ = run("sweep", "--builtin", "square", "--samples", "50", "--seed", "9")
        _, b, _ = run("sweep", "--builtin", "square", "--samples", "50", "--seed", "9")
        assert a == b
        _, c, _ = run("sweep", "--builtin", "square", "--samples", "50", "--seed", "10")
        assert a != c

    def test_svg_format(self, run):
        code, out, _ = run("sweep", "--builtin", "square", "--samples", "20", "--seed", "3",
                           "--format", "svg")
        assert code == 0
        assert out.lstrip().startswith("<svg")

    def test_out_prefix_writes_three_files(self, run, tmp_path):
        base = str(tmp_path / "sq")
        code, out, _ = run("sweep", "--builtin", "square", "--samples", "10", "--seed", "2",
                           "--out", base)
        assert code == 0
        assert (tmp_path / "sq.samples.csv").exists()
        assert (tmp_path / "sq.summary.csv").exists()
        assert (tmp_path / "sq.svg").exists()
        assert json.loads(out)["status"] == "ok"

    def test_csv_rows_beyond_summary_schema(self):
        # 9-gon and 6-gon pieces lose more stable points than the summary
        # schema (delta_S -2..+1) holds; csv prints only the per-sample rows,
        # the summary formats still refuse, naming the first such delta_S.
        for shape, delta in (("ngon:9", -5), ("ngon:6", -4)):
            argv = [sys.executable, "-m", "equirobust.cli", "sweep", "--builtin", shape,
                    "--samples", "300", "--seed", "4", "--format"]
            r = subprocess.run(argv + ["csv"], capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            lines = r.stdout.strip().splitlines()
            assert lines[0] == "theta,offset,side,relative_area,piece_S,delta_S,degenerate"
            assert len(lines) == 601
            assert min(int(line.split(",")[5]) for line in lines[1:]) < -2
            r = subprocess.run(argv + ["svg"], capture_output=True, text=True)
            assert r.returncode == 3
            assert r.stdout == ""
            assert r.stderr == (
                f'{{"status": "validation-error", "error": "delta_S={delta} does not fit the summary schema"}}\n'
            )

    def test_each_format_builds_only_what_it_writes(self, run, monkeypatch, tmp_path):
        # Each stdout format builds only its own text, and that text is the
        # --out file of the same name.
        from equirobust import cli

        square = ("sweep", "--builtin", "square", "--samples", "200", "--seed", "1")
        assert run(*square, "--out", str(tmp_path / "sq"))[0] == 0
        files = {s: (tmp_path / f"sq{s}").read_text() for s in (".samples.csv", ".summary.csv", ".svg")}
        builders = {name: getattr(cli, name) for name in ("sweep_csv", "summary_csv", "summary_svg")}

        def only(allowed):
            for name, build in builders.items():
                monkeypatch.setattr(cli, name, build if name == allowed else lambda _, name=name: pytest.fail(f"{name} built"))

        only("summary_csv")
        code, out, err = run(*square, "--format", "json")
        assert (code, err, json.loads(out)["summary_csv"]) == (0, "", files[".summary.csv"])
        only("summary_svg")
        assert run(*square, "--format", "svg") == (0, files[".svg"], "")
        only("sweep_csv")
        assert run(*square) == (0, files[".samples.csv"], "")
        monkeypatch.undo()
        code, out, _ = run("sweep", "--builtin", "ngon:9", "--samples", "300", "--seed", "4",
                           "--out", str(tmp_path / "nine"))
        assert (code, out) == (3, "")
        assert not list(tmp_path.glob("nine*"))

    def test_sweep_needs_polygon(self, run):
        code, _, err = run("sweep", "--builtin", "cube", "--samples", "5", "--seed", "1")
        assert code == 3


class TestFixtures:
    def test_fixtures_pass(self, run):
        code, out, _ = run("fixtures")
        d = json.loads(out)
        assert code == 0
        assert d["status"] == "ok"
        assert d["truncated_tetra"]["passed"] is True
        assert d["truncated_tetra"]["value_after"] > d["truncated_tetra"]["value_before"]
        assert d["dowker"]["passed"] is True
        assert d["dowker"]["pairs_checked"] > 900


class TestConsoleEntry:
    def test_module_invocation(self):
        r = subprocess.run(
            [sys.executable, "-m", "equirobust.cli", "analyze", "--builtin", "octa"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["S"] == 8

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_eq_eps_fails_at_import(self, value):
        r = subprocess.run(
            [sys.executable, "-m", "equirobust.cli", "analyze", "--builtin", "square"],
            capture_output=True, text=True, env={**os.environ, "EQ_EPS": value},
        )
        assert r.returncode != 0
        assert r.stdout == ""
        assert "ValueError: EQ_EPS must be a positive finite number" in r.stderr
