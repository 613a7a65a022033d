import os
import subprocess
import sys

import equirobust


def test_every_exported_name_resolves():
    missing = [name for name in equirobust.__all__ if not hasattr(equirobust, name)]
    assert missing == []
    assert len(set(equirobust.__all__)) == len(equirobust.__all__)


def _scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(equirobust.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


def test_import_does_not_load_scipy():
    # scipy is imported inside the 3D functions that use it, so 2D work never
    # pays its import time or memory.
    assert _scipy_modules_after("import equirobust") == "[]"


def test_builtin_plane_search_does_not_load_scipy():
    # The batched 3D evaluator tests its body for close vertex pairs without
    # a KD-tree; this search clips no cut on the scalar path.
    code = (
        "from equirobust.equilib3d import plane_truncation_search\n"
        "from equirobust.geom3d import generator_truncated_cylinder\n"
        "plane_truncation_search(generator_truncated_cylinder(1, 3), 'reduce_any', (24, 10), 1e-4, 5)"
    )
    assert _scipy_modules_after(code) == "[]"


def test_platonic_builtin_does_not_load_scipy():
    # The platonic solids are built from stored face cycles, not by hull3.
    code = (
        "from equirobust.equilib3d import classify3\n"
        "from equirobust.geom3d import centroid3, platonic\n"
        "P = platonic('cube')\n"
        "classify3(P, centroid3(P))"
    )
    assert _scipy_modules_after(code) == "[]"


def test_clip_does_not_load_scipy():
    # The clip finds its close pairs by a sort-and-sweep, not a KD-tree.
    code = (
        "from equirobust.geom3d import clip_halfspace3, platonic\n"
        "assert clip_halfspace3(platonic('cube'), (1.0, 2.0, 3.0), 0.5) is not None"
    )
    assert _scipy_modules_after(code) == "[]"


def test_plane_search_with_clip_fallbacks_does_not_load_scipy():
    # At the CLI's default grid, this search's evaluator hands some cuts to
    # the scalar clip.
    code = (
        "from equirobust.cli import main\n"
        "assert main(['robust', '--builtin', 'cylcut:1:3', '--kind', 'partial-any', '--seed', '1']) == 0"
    )
    assert _scipy_modules_after(code) == "[]"
