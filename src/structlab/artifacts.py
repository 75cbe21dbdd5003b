"""The one encoder for every artifact structlab writes.

Curves, reports and manifests leave the library only as files, so every
rule for turning exact values into text lives here:

* the number rule: an infinite float is ``"inf"`` (``"-inf"`` below zero),
  an integral float is an int, and NaN is refused;
* the value walk: bit strings become their digits, finite sets the list of
  their members, fractions an int when integral and ``"p/q"`` otherwise,
  dict keys strings, tuples lists; an object with ``to_json_dict`` is
  walked through that dict and any other dataclass through its fields;
* the writers: UTF-8 with ``\\n`` newlines, JSON indented by 2 with
  sorted keys, so identical inputs give byte-identical files.

CLI artifacts apply the number rule to every float.  The gap archive keeps
finite floats as they are (``"mean": 0.0``, ``"c": 1.0``), so the walk
takes that one choice as the ``int_floats`` keyword.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from .codec import BitString
from .descsys import FiniteSet
from .errors import StructLabError

__all__ = ["number", "jsonable", "write_text", "write_json"]


def number(v):
    """The number rule: ``"inf"`` for infinities, ints for integral floats.

    Anything that is not a float passes through unchanged.
    """
    if isinstance(v, float):
        if math.isnan(v):
            raise StructLabError("NaN has no exact artifact form")
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if v.is_integer():
            return int(v)
    return v


def jsonable(value, *, int_floats: bool):
    """Walk ``value`` into plain JSON types without losing exactness.

    With ``int_floats`` false, finite floats are kept as they are.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return number(value) if int_floats or not math.isfinite(value) else value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, BitString):
        return str(value)
    if isinstance(value, FiniteSet):
        return [str(b) for b in value.bitstrings()]
    if isinstance(value, dict):
        return {str(k): jsonable(v, int_floats=int_floats) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v, int_floats=int_floats) for v in value]
    if hasattr(value, "to_json_dict"):
        return jsonable(value.to_json_dict(), int_floats=int_floats)
    if is_dataclass(value):
        return {
            f.name: jsonable(getattr(value, f.name), int_floats=int_floats)
            for f in fields(value)
        }
    raise TypeError(f"no artifact form for {type(value).__name__}")


def write_text(path: "str | Path", text: str) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` newlines, creating the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_json(path: "str | Path", value, *, int_floats: bool) -> None:
    """Write ``value`` through :func:`jsonable` as indented, key-sorted JSON."""
    payload = jsonable(value, int_floats=int_floats)
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
