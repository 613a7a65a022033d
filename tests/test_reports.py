import json
import math

import numpy as np
import pytest

from equirobust.reports import RobustnessReport, json_dumps_g17
from equirobust.util import fmt_g17

_SENTINEL = "\ue000"  # a private-use char; none of the inputs below holds it


def _dumps_via_json(obj, indent=2):
    """Reference: ``json.dumps`` with each float value swapped for a
    sentinel-wrapped ``fmt_g17`` string, and the quotes and sentinels
    stripped afterwards."""

    def convert(o):
        if isinstance(o, float):
            return f"{_SENTINEL}{fmt_g17(o)}{_SENTINEL}"
        if isinstance(o, dict):
            return {k: convert(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [convert(v) for v in o]
        return o

    text = json.dumps(convert(obj), indent=indent, ensure_ascii=False)
    return text.replace(f'"{_SENTINEL}', "").replace(f'{_SENTINEL}"', "")


_EDGE_VALUES = [
    math.inf,
    -math.inf,
    math.nan,
    -0.0,
    0.0,
    5e-324,
    2.2250738585072014e-308 / 3,
    1.7976931348623157e308,
    0.1,
    1 / 3,
    np.float64(2.5),
    True,
    False,
    None,
    0,
    -7,
    10**30,
    "",
    "plain",
    'quote " backslash \\ slash /',
    "tab\tnewline\ncontrol\x01\x1f del\x7f",
    "non-ASCII: é ∂K ρ_in 🙂  ",
    [],
    {},
    (),
    [[]],
    {"a": {}},
    (1.5, (2, [3.25, ()]), {"k": (None,)}),
]


class TestJsonDumpsG17:
    @pytest.mark.parametrize("indent", [2, None, 0, 4])
    def test_matches_json_dumps_on_edge_values(self, indent):
        cases = list(_EDGE_VALUES)
        cases.append(_EDGE_VALUES)
        cases.append({f"k{i}": v for i, v in enumerate(_EDGE_VALUES)})
        cases.append({1: "int", 2.5: "float", math.inf: 0, -math.inf: 1, math.nan: 2, -0.0: [1e-300], 1e16: 3})
        cases.append({True: "t", False: "f", None: "n", "s": 0})
        cases.append({"nested": [{"x": [1.0, {"y": ({}, [], -0.0)}]}, {"z": math.nan}], "é": "ü"})
        for obj in cases:
            assert json_dumps_g17(obj, indent=indent) == _dumps_via_json(obj, indent=indent), obj

    def test_keys_and_values_json_cannot_write_raise_type_error(self):
        for obj in [{(1, 2): 0}, {"a": object()}, [1, {2, 3}], np.int64(3), {"b": np.bool_(True)}]:
            with pytest.raises(TypeError) as want:
                _dumps_via_json(obj)
            with pytest.raises(TypeError) as got:
                json_dumps_g17(obj)
            assert str(got.value) == str(want.value)

    def test_report_json_keeps_every_byte(self):
        report = RobustnessReport(
            kind="internal",
            value=0.123456789012345678,
            method="sampled",
            witness={"type": "direction", "direction": [0.6, -0.8, -0.0], "distance": 5e-324},
            details={"S": 3, "directions": 128, "tol_step": 1e-6, "surface_area": math.inf, "rays_only": False},
        )
        for indent in (2, None):
            assert json_dumps_g17(report.as_dict(), indent=indent) == _dumps_via_json(report.as_dict(), indent=indent)
        assert report.to_json() == _dumps_via_json(report.as_dict())
