"""The artifact encoder: number rule, one-walk encoding, streaming and writers."""

import json
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from structlab.artifacts import encode, number, write_json, write_text
from structlab.codec import BitString
from structlab.descsys import FiniteSet
from structlab.errors import StructLabError
from structlab.experiments import generate_gap_reports

from .oracles import oracle_artifact_text

REPO_ROOT = Path(__file__).resolve().parent.parent


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
    assert json.loads(encode(value)) == {
        "2": [2, "3/4"],
        "bits": "0110",
        "set": ["00", "11"],
        "pair": {"left": "", "right": [None, True]},
        "renamed": {"renamed": "3/2"},
    }


def test_walk_applies_the_number_rule_to_every_float():
    floats = [1.0, -0.0, 0.25, -3.0, 1e16, math.inf, -math.inf]
    assert encode(floats) == json.dumps([1, 0, 0.25, -3, 10**16, "inf", "-inf"], indent=2)
    assert encode({"c": 1.0, "mean": [0.0, 2.5]}) == '{\n  "c": 1,\n  "mean": [\n    0,\n    2.5\n  ]\n}'
    with pytest.raises(StructLabError):
        encode({"c": math.nan})


def test_walk_refuses_unknown_types():
    with pytest.raises(TypeError, match="no artifact form for set"):
        encode({1, 2})


def test_writers_are_deterministic(tmp_path):
    path = tmp_path / "deep" / "out.json"
    write_json(path, {"b": 1.0, "a": [BitString("01")]})
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


@given(_VALUES)
def test_encoder_matches_the_reference_bytes(value):
    assert encode(value) == oracle_artifact_text(value)


@given(st.lists(_VALUES, max_size=4))
def test_an_iterator_encodes_as_its_list(items):
    text = encode(iter(items))
    assert text == oracle_artifact_text(items)


@given(_holding(math.nan))
@example({1: math.nan, "1": 0})
def test_nan_anywhere_is_refused(value):
    with pytest.raises(StructLabError, match="NaN"):
        encode(value)


@given(_holding({1, 2}))
@example([{0: {1, 2}, "0": None}])
def test_a_python_set_anywhere_is_refused(value):
    with pytest.raises(TypeError, match="no artifact form for set"):
        encode(value)


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

    write_json(path, {"items": items()})
    assert live == [0, 0, 0, 0]
    expected = {"items": [_Pair(i, [BitString("01")]) for i in range(4)]}
    assert path.read_text() == oracle_artifact_text(expected) + "\n"
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
        write_json(path, {"items": items()})
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


# ---------------------------------------------------------------------------
# Every archived artifact follows the number rule
# ---------------------------------------------------------------------------


def integral_float_spellings(root) -> list:
    """``(file, text)`` for each float token with an integral value in ``root``'s JSON files.

    The number rule writes every integral float as an int, so an artifact
    holds none.  ``search``'s ``trace.jsonl`` is not a ``.json`` file and is
    left out: it still writes its floats raw (``"objective": 7.0``), and its
    bytes are pinned by the cli-suite digests in ``benchmark/expected.json``,
    which are re-recorded only together with the benchmark.
    """
    found = []
    for path in sorted(Path(root).rglob("*.json")):

        def parse_float(text, name=path.relative_to(root).as_posix()):
            if float(text).is_integer():
                found.append((name, text))
            return float(text)

        json.loads(path.read_text(encoding="utf-8"), parse_float=parse_float)
    return found


def test_no_artifact_spells_an_integral_float(tmp_path):
    generate_gap_reports(tmp_path / "reports")
    for root in (REPO_ROOT / "reports", REPO_ROOT / "tests" / "golden", tmp_path / "reports"):
        assert integral_float_spellings(root) == [], root
