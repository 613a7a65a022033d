"""Report containers shared by the 2D and 3D robustness calculators."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .util import fmt_g17


@dataclass
class RobustnessReport:
    """Outcome of one robustness computation.

    ``kind`` names the measure (``internal``, ``external``, ``full_line_bound``,
    ``partial_s``, ``partial_u``, ``partial_any``); ``method`` is how it was
    obtained (``exact``, ``sampled`` or ``search``).  Searches that find no
    class-reducing cut report ``status="no_reduction_found"`` with
    ``value=None`` instead of raising.
    """

    kind: str
    value: Optional[float]
    method: str
    witness: Optional[dict] = None
    status: str = "ok"
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "value": self.value,
            "method": self.method,
            "witness": self.witness,
            "status": self.status,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json_dumps_g17(self.as_dict())


def json_dumps_g17(obj: Any, indent: Optional[int] = 2) -> str:
    """JSON text with every float value rendered at 17 significant digits.

    Otherwise the text is ``json.dumps(obj, indent=indent,
    ensure_ascii=False)``: the same layout and separators, dict keys
    converted the same way (a float key keeps ``json``'s spelling) and the
    same ``TypeError`` for a key or value it cannot write.  A float value
    is written as ``fmt_g17`` gives it, ``inf`` and ``nan`` included."""
    parts: list[str] = []
    emit = parts.append
    comma = "," if indent is not None else ", "

    def write(o: Any, level: int) -> None:
        if isinstance(o, float):
            emit(fmt_g17(o))
        elif isinstance(o, str):
            emit(_encode_str(o))
        elif isinstance(o, (dict, list, tuple)):
            is_dict = isinstance(o, dict)
            if not o:
                emit("{}" if is_dict else "[]")
                return
            pad = end = ""
            if indent is not None:
                pad, end = "\n" + " " * (indent * (level + 1)), "\n" + " " * (indent * level)
            emit(("{" if is_dict else "[") + pad)
            for i, item in enumerate(o.items() if is_dict else o):
                if i:
                    emit(comma + pad)
                if is_dict:
                    key, item = item
                    emit(_encode_str(key if isinstance(key, str) else _key(key)) + ": ")
                write(item, level + 1)
            emit(end + ("}" if is_dict else "]"))
        elif o is None or o is True or o is False:
            emit(_CONSTANTS[o])
        elif isinstance(o, int):
            emit(int.__repr__(o))
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(obj, 0)
    return "".join(parts)


_encode_str = json.encoder.encode_basestring
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _key(key: Any) -> str:
    """A dict key that is not a string, as ``json`` writes it."""
    if isinstance(key, float):
        return json.encoder.JSONEncoder().encode(key)
    if key is None or key is True or key is False:
        return _CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
