"""The artifact encoder: number rule, one-walk encoding, streaming and writers."""

import json
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from structlab.artifacts import encode, number, write_json, write_text
from structlab.codec import BitString
from structlab.descsys import FiniteSet
from structlab.errors import StructLabError

from .oracles import oracle_artifact_text


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
    assert json.loads(encode(value, int_floats=True)) == {
        "2": [2, "3/4"],
        "bits": "0110",
        "set": ["00", "11"],
        "pair": {"left": "", "right": [None, True]},
        "renamed": {"renamed": "3/2"},
    }


def test_walk_float_keyword():
    floats = [1.0, 0.25, math.inf]
    assert json.loads(encode(floats, int_floats=True)) == [1, 0.25, "inf"]
    kept = json.loads(encode(floats, int_floats=False))
    assert kept == [1.0, 0.25, "inf"] and isinstance(kept[0], float)
    for int_floats in (True, False):
        with pytest.raises(StructLabError):
            encode({"c": math.nan}, int_floats=int_floats)


def test_walk_refuses_unknown_types():
    with pytest.raises(TypeError, match="no artifact form for set"):
        encode({1, 2}, int_floats=True)


def test_writers_are_deterministic(tmp_path):
    path = tmp_path / "deep" / "out.json"
    write_json(path, {"b": 1.0, "a": [BitString("01")]}, int_floats=True)
    assert path.read_bytes() == b'{\n  "a": [\n    "01"\n  ],\n  "b": 1\n}\n'
    assert json.loads(path.read_text()) == {"a": ["01"], "b": 1}
    write_text(tmp_path / "t.txt", "x\ny\n")
    assert (tmp_path / "t.txt").read_bytes() == b"x\ny\n"


# ---------------------------------------------------------------------------
# The one walk against the reference: jsonable-style walk, then json.dumps
# ---------------------------------------------------------------------------

#: Keys of both types, some equal after ``str`` (1 and "1").
_KEYS = st.one_of(st.integers(-2, 2), st.sampled_from(["-1", "0", "1", "a", "é", "\u2603"]))

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    st.floats(allow_nan=False),
    st.fractions(),
    st.text("01", max_size=6).map(BitString),
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=4).map(
            lambda values: FiniteSet(n, values)
        )
    ),
)

_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.builds(_Pair, inner, inner),
        st.builds(_Renamed, st.integers()),
    ),
    max_leaves=24,
)


def _holding(bad):
    """Values with ``bad`` somewhere inside, under a key that may be overridden."""

    def in_dict(parts):
        rest, key, value = parts
        # ``bad`` goes in first, so a later key equal after str replaces it
        # in the artifact; it is still part of the value, and still refused.
        return {key: value, **{k: v for k, v in rest.items() if k != key}}

    return st.recursive(
        st.just(bad),
        lambda inner: st.one_of(
            st.tuples(st.lists(_VALUES, max_size=2), inner, st.lists(_VALUES, max_size=2)).map(
                lambda t: [*t[0], t[1], *t[2]]
            ),
            st.tuples(st.dictionaries(_KEYS, _VALUES, max_size=3), _KEYS, inner).map(in_dict),
            st.builds(_Pair, _VALUES, inner),
        ),
        max_leaves=6,
    )


@given(_VALUES, st.booleans())
def test_encoder_matches_the_reference_bytes(value, int_floats):
    assert encode(value, int_floats=int_floats) == oracle_artifact_text(value, int_floats=int_floats)


@given(st.lists(_VALUES, max_size=4), st.booleans())
def test_an_iterator_encodes_as_its_list(items, int_floats):
    text = encode(iter(items), int_floats=int_floats)
    assert text == oracle_artifact_text(items, int_floats=int_floats)


@given(_holding(math.nan), st.booleans())
@example({1: math.nan, "1": 0}, False)
def test_nan_anywhere_is_refused(value, int_floats):
    with pytest.raises(StructLabError, match="NaN"):
        encode(value, int_floats=int_floats)


@given(_holding({1, 2}), st.booleans())
@example([{0: {1, 2}, "0": None}], True)
def test_a_python_set_anywhere_is_refused(value, int_floats):
    with pytest.raises(TypeError, match="no artifact form for set"):
        encode(value, int_floats=int_floats)


# ---------------------------------------------------------------------------
# Streaming and atomic writes
# ---------------------------------------------------------------------------


def test_streamed_items_are_not_kept(tmp_path):
    path = tmp_path / "out.json"
    refs, live = [], []

    def items():
        for i in range(4):
            # every item before the last one drawn has been let go
            live.append(sum(ref() is not None for ref in refs[:-1]))
            item = _Pair(i, [BitString("01")])
            refs.append(weakref.ref(item))
            yield item

    write_json(path, {"items": items()}, int_floats=True)
    assert live == [0, 0, 0, 0]
    expected = {"items": [_Pair(i, [BitString("01")]) for i in range(4)]}
    assert path.read_text() == oracle_artifact_text(expected, int_floats=True) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("existing", [False, True])
def test_a_refused_stream_leaves_no_file(tmp_path, existing):
    path = tmp_path / "out.json"
    if existing:
        path.write_text("old\n")

    def items():
        yield {"c": 1.0}
        yield {"c": math.nan}
        yield {"c": 2.0}

    with pytest.raises(StructLabError, match="NaN"):
        write_json(path, {"items": items()}, int_floats=True)
    # no temporary file is left, and the target is untouched
    if existing:
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert path.read_text() == "old\n"
    else:
        assert list(tmp_path.iterdir()) == []


def test_text_chunks_are_written_in_turn(tmp_path):
    path = tmp_path / "t.csv"
    write_text(path, (f"{i}\n" for i in range(3)))
    assert path.read_bytes() == b"0\n1\n2\n"

    def chunks():
        yield "a\n"
        raise StructLabError("refused")

    with pytest.raises(StructLabError):
        write_text(tmp_path / "u.csv", chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
