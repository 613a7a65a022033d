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
