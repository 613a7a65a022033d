import os
import subprocess
import sys

import equirobust


def test_every_exported_name_resolves():
    missing = [name for name in equirobust.__all__ if not hasattr(equirobust, name)]
    assert missing == []
    assert len(set(equirobust.__all__)) == len(equirobust.__all__)


def test_import_does_not_load_scipy():
    # scipy is imported inside the 3D functions that use it, so 2D work never
    # pays its import time or memory.
    code = "import sys, equirobust; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(equirobust.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_builtin_plane_search_does_not_load_scipy():
    # The batched 3D evaluator tests its body for close vertex pairs without
    # a KD-tree; this search clips no cut on the scalar path.
    code = (
        "import sys\n"
        "from equirobust.equilib3d import plane_truncation_search\n"
        "from equirobust.geom3d import generator_truncated_cylinder\n"
        "plane_truncation_search(generator_truncated_cylinder(1, 3), 'reduce_any', (24, 10), 1e-4, 5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(equirobust.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_platonic_builtin_does_not_load_scipy():
    # The platonic solids are built from stored face cycles, not by hull3.
    code = (
        "import sys\n"
        "from equirobust.equilib3d import classify3\n"
        "from equirobust.geom3d import centroid3, platonic\n"
        "P = platonic('cube')\n"
        "classify3(P, centroid3(P))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(equirobust.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
