"""Geometric tolerance policy.

All within-tolerance tests use a single absolute epsilon interpreted on
coordinates scaled to unit size: a length comparison uses ``EPS_GEOM`` times
the diameter of a polygon, or times the bounding-box diagonal of a polyhedron.
The default ``1e-9`` can be overridden through the ``EQ_EPS`` environment
variable, which is read once, when this module is imported; changing it later
has no effect.  A value that is not a positive finite number raises
``ValueError`` at import, so the ``equirobust`` command fails with a Python
traceback before its exit-code mapping applies.
"""

import math
import os


def _eps_from_env() -> float:
    raw = os.environ.get("EQ_EPS")
    if raw is None:
        return 1e-9
    value = float(raw)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError("EQ_EPS must be a positive finite number")
    return value


#: Absolute tolerance on unit-diameter coordinates.
EPS_GEOM: float = _eps_from_env()

#: Tolerance used for the closed inequalities of the strip-cover predicate.
EPS_COVER: float = 1e-12
