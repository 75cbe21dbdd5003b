"""The artifact encoder: number rule, value walk and writers."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from structlab.artifacts import jsonable, number, write_json, write_text
from structlab.codec import BitString
from structlab.descsys import FiniteSet
from structlab.errors import StructLabError


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


@dataclass(frozen=True)
class _Renamed:
    value: int

    def to_json_dict(self) -> dict:
        return {"renamed": Fraction(self.value, 2)}


def test_number_rule():
    assert number(math.inf) == "inf"
    assert number(-math.inf) == "-inf"
    assert number(3.0) == 3 and isinstance(number(3.0), int)
    assert number(-0.5) == -0.5
    assert number(None) is None
    assert number(7) == 7
    assert number(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(StructLabError, match="NaN"):
        number(math.nan)


def test_walk_converts_every_exact_type():
    value = {
        2: (Fraction(4, 2), Fraction(3, 4)),
        "bits": BitString("0110"),
        "set": FiniteSet(2, [3, 0]),
        "pair": _Pair(BitString(""), [None, True]),
        "renamed": _Renamed(3),
    }
    assert jsonable(value, int_floats=True) == {
        "2": [2, "3/4"],
        "bits": "0110",
        "set": ["00", "11"],
        "pair": {"left": "", "right": [None, True]},
        "renamed": {"renamed": "3/2"},
    }


def test_walk_float_keyword():
    floats = [1.0, 0.25, math.inf]
    assert jsonable(floats, int_floats=True) == [1, 0.25, "inf"]
    kept = jsonable(floats, int_floats=False)
    assert kept == [1.0, 0.25, "inf"] and isinstance(kept[0], float)
    for int_floats in (True, False):
        with pytest.raises(StructLabError):
            jsonable({"c": math.nan}, int_floats=int_floats)


def test_walk_refuses_unknown_types():
    with pytest.raises(TypeError, match="no artifact form for set"):
        jsonable({1, 2}, int_floats=True)


def test_writers_are_deterministic(tmp_path):
    path = tmp_path / "deep" / "out.json"
    write_json(path, {"b": 1.0, "a": [BitString("01")]}, int_floats=True)
    assert path.read_bytes() == b'{\n  "a": [\n    "01"\n  ],\n  "b": 1\n}\n'
    assert json.loads(path.read_text()) == {"a": ["01"], "b": 1}
    write_text(tmp_path / "t.txt", "x\ny\n")
    assert (tmp_path / "t.txt").read_bytes() == b"x\ny\n"
