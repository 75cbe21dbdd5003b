"""Tests for description systems: exact complexities, audits, families, streams."""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlab import descsys
from structlab.artifacts import encode
from structlab.codec import BitString, encode_sd, string_of_integer
from structlab.descsys import (
    DescriptionSystem,
    EnumerationStream,
    FiniteSet,
    ModelRecord,
    apply_permutation,
    build_system,
    check_prefix_free,
    enumerate_models,
    enumeration_stream,
    expand_family,
    kraft_sum,
)
from structlab.errors import DescriptorError, StructLabError
from structlab.experiments import build_report_family_systems, make_nonstoch_system
from structlab.predict import PredictionStrategy, StrategyCodebook
from structlab.structfn import profile
from structlab.unistat import induced_Dk

from .gensys import random_prefix_code, random_system
from .oracles import (
    oracle_K_cond,
    oracle_K_data,
    oracle_K_set,
    oracle_c_sub,
    oracle_check_prefix_free,
    oracle_distinct_sets,
    oracle_family_entries,
    oracle_kraft,
    oracle_stream_order,
)

B = BitString


### FiniteSet


def test_finite_set_sorted_dedup_and_membership():
    s = FiniteSet(3, ["101", "001", "101", 2])
    assert [str(b) for b in s] == ["001", "010", "101"]
    assert s.cardinality == 3
    assert "001" in s and B("101") in s and 2 in s
    assert "111" not in s and 9 not in s
    assert s.ceil_log_card == 2


def test_finite_set_hash_contract():
    rng = random.Random(7)
    values = rng.sample(range(64), 20)
    shuffled = rng.sample(values, len(values))
    forms = [
        FiniteSet(6, values),
        FiniteSet(6, shuffled),
        FiniteSet(6, [format(v, "06b") for v in shuffled]),
        FiniteSet(6, [B.from_value(6, v) for v in values]),
    ]
    for s in forms:
        assert s == forms[0]
        assert hash(s) == hash(forms[0]) == hash((s.n, s.values))
    assert len(set(forms)) == 1


def test_finite_set_rejects_mismatched_width():
    with pytest.raises(DescriptorError):
        FiniteSet(3, ["01"])
    with pytest.raises(DescriptorError):
        FiniteSet(2, [4])


@pytest.mark.parametrize(
    "values, message",
    [
        ([1, -1], r"element value -1 outside universe of width 3\Z"),
        ([0, 2**3], r"element value 8 outside universe of width 3\Z"),
        ([99, 3, -5], r"element value (-5|99) outside universe of width 3\Z"),
        ([1, "01", 2], r"element '01' is not 3 bits long\Z"),
        ([B("0110"), 2], r"element BitString\('0110'\) is not 3 bits long\Z"),
    ],
)
def test_finite_set_refuses_members_outside_the_universe(values, message):
    with pytest.raises(DescriptorError, match=message):
        FiniteSet(3, values)


def test_finite_set_reads_empty_iterables_as_the_empty_set():
    empty = FiniteSet(3, iter(()))
    assert empty.values == () and empty.cardinality == 0
    with pytest.raises(DescriptorError, match="ceil_log_card of the empty set"):
        empty.ceil_log_card


@given(st.integers(1, 8), st.data())
def test_member_list_text_reads_back(n, data):
    values = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1), label="values")
    s = FiniteSet(n, values)
    assert FiniteSet.read(s.show(), "t") == s


@st.composite
def _member_lists(draw, n):
    """Member values of {0,1}^n: any set, a contiguous run, a singleton,
    the empty set or the whole cube."""
    top = 1 << n
    shape = draw(st.sampled_from(["any", "run", "single", "empty", "cube"]))
    if shape == "any":
        return frozenset(draw(st.sets(st.integers(0, top - 1))))
    if shape == "run":
        lo = draw(st.integers(0, top - 1))
        return frozenset(range(lo, draw(st.integers(lo + 1, top))))
    if shape == "single":
        return frozenset([draw(st.integers(0, top - 1))])
    return frozenset(range(top if shape == "cube" else 0))


def _every_route(n, ref, shuffled):
    """The same member set built by each constructor that takes one."""
    ordered = sorted(ref)
    built = [
        FiniteSet(n, shuffled + shuffled[:2]),
        FiniteSet(n, [format(v, f"0{n}b") for v in shuffled]),
        FiniteSet(n, [B.from_value(n, v) for v in shuffled]),
        FiniteSet._trusted(n, ordered),
    ]
    if ordered and ordered[-1] - ordered[0] == len(ordered) - 1:
        run = range(ordered[0], ordered[-1] + 1)
        built += [FiniteSet(n, run), FiniteSet._trusted(n, run)]
    if ordered:
        built.append(FiniteSet.read(built[0].show(), "t", width=n))
    return built


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_finite_set_agrees_with_a_frozenset_on_every_route(n, data):
    ref = data.draw(_member_lists(n), label="members")
    other_ref = data.draw(_member_lists(n), label="other")
    shuffled = data.draw(st.permutations(sorted(ref)), label="order")
    other = FiniteSet(n, sorted(other_ref))
    contiguous = bool(ref) and max(ref) - min(ref) == len(ref) - 1
    for s in _every_route(n, ref, shuffled):
        assert type(s.values) is (range if contiguous else tuple)
        assert list(s.values) == sorted(ref) and len(s) == s.cardinality == len(ref)
        assert s == FiniteSet(n, sorted(ref)) and hash(s) == hash(FiniteSet(n, sorted(ref)))
        assert (s == other) == (ref == other_ref)
        if ref == other_ref:
            assert hash(s) == hash(other)
        assert s.subset_of(other) == (ref <= other_ref)
        assert other.subset_of(s) == (other_ref <= ref)
        assert not s.subset_of(FiniteSet(n + 1, range(1 << (n + 1))))
        if ref:
            assert FiniteSet.read(s.show(), "t") == s
        for v in range(-2, (1 << n) + 2):
            assert (v in s) == (v in ref)
            if 0 <= v < 1 << n:
                assert (format(v, f"0{n}b") in s) == (B.from_value(n, v) in s) == (v in ref)
        for v in range(1 << (n + 1)):
            assert format(v, f"0{n + 1}b") not in s and B.from_value(n + 1, v) not in s
        assert "" not in s and B("") not in s
        for alien in (0.0, 1.0, True, False, None, b"0", Fraction(0), (0,)):
            assert alien not in s


def test_repr_spells_only_the_members_it_shows(bitstring_builds):
    # the shown members are formatted from their integers: no BitString is built
    cube = FiniteSet._trusted(16, range(1 << 16))
    shown = ",".join(format(v, "016b") for v in range(6))
    assert repr(cube) == f"FiniteSet(n=16, {{{shown},...(65536 total)}})"
    assert bitstring_builds == []


@pytest.mark.parametrize("value", [2.7, 3.99, True, False, None, b"01", Fraction(1)])
def test_values_that_are_not_int_str_or_bitstring_are_refused(fixa, value):
    name = type(value).__name__
    message = rf"is a {name}, not an int, str or BitString\Z"
    with pytest.raises(DescriptorError, match=message):
        FiniteSet(2, [0, value])
    with pytest.raises(DescriptorError, match=message):
        fixa.K_data(value)
    with pytest.raises(DescriptorError, match=message):
        profile(fixa, value)
    assert value not in FiniteSet(2, range(4))


@pytest.mark.parametrize(
    "value, expected",
    [
        (0, True),
        (3, False),
        (4, False),
        (-1, False),
        ("00", True),
        ("01", False),
        (B("00"), True),
        (B("11"), False),
        ("000", False),
        (B("0"), False),
        ("22", False),
        ("0x", False),
        (None, False),
        (0.0, False),
    ],
)
def test_membership_answers_every_value(value, expected):
    assert (value in FiniteSet(2, [0, 2])) is expected


def test_ceil_log_card_values():
    for card, expect in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)]:
        s = FiniteSet(4, range(card))
        assert s.ceil_log_card == expect


### The reference system: exact complexities


def test_fixa_data_complexities(fixa):
    for x, k in [("00", 1), ("01", 2), ("10", 3), ("11", 3)]:
        assert fixa.K_data(x) == k == oracle_K_data(fixa, x)


def test_fixa_set_complexities(fixa):
    a = FiniteSet(2, ["00", "01", "10", "11"])
    b = FiniteSet(2, ["00", "01"])
    c = FiniteSet(2, ["00"])
    other = FiniteSet(2, ["01"])
    assert fixa.K_set(a) == 1
    assert fixa.K_set(b) == 2
    assert fixa.K_set(c) == 3
    assert fixa.K_set(other) == math.inf
    assert not fixa.is_representable(other)


def test_fixa_conditional_complexities(fixa):
    a = FiniteSet(2, ["00", "01", "10", "11"])
    b = FiniteSet(2, ["00", "01"])
    c = FiniteSet(2, ["00"])
    assert fixa.K_cond("00", a) == 2  # index code only
    assert fixa.K_cond("00", b) == 1
    assert fixa.K_cond("00", c) == 0
    assert fixa.K_cond("10", b) == math.inf  # not a member, no shortcut
    for x in ["00", "01", "10", "11"]:
        for s in [a, b, c]:
            assert fixa.K_cond(x, s) == oracle_K_cond(fixa, x, s)


def test_fixa_kraft_sums(fixa):
    sums = fixa.kraft_sums()
    assert sums["data"] == Fraction(1)
    assert sums["set"] == Fraction(7, 8)
    assert sums["cond"] == {}


def test_fixa_c_sub(fixa):
    assert fixa.c_sub == 0 == oracle_c_sub(fixa)


def test_enumerate_models_order_and_filter(fixa):
    all_two = enumerate_models(fixa, 2)
    assert [(e.K_S, e.cardinality) for e in all_two] == [(1, 4), (2, 2)]
    with_x = enumerate_models(fixa, 3, "00")
    assert [str(e.witness_program) for e in with_x] == ["0", "10", "110"]
    assert [e.K_cond for e in with_x] == [2, 1, 0]
    none_contain = enumerate_models(fixa, 0, "00")
    assert none_contain == ()


def test_model_record_exact_keys(fixa):
    rec = enumerate_models(fixa, 3, "00")[1]  # the two-element set
    assert rec.lambda_key == (1 << 2) * 2
    assert rec.delta_key == Fraction(2, 2)
    assert rec.lambda_key == 1 << 3  # Lambda = 3 bits
    assert rec.delta_order == 1 << fixa.universe_n  # delta = 0 bits


def test_model_record_is_slotted_and_reads_only_its_four_fields(fixa):
    rec = enumerate_models(fixa, 3, "00")[1]
    fresh = ModelRecord(rec.set, rec.K_S, rec.witness_program, rec.K_cond)
    assert not hasattr(rec, "__dict__")
    assert [f.name for f in fields(ModelRecord)] == ["set", "K_S", "witness_program", "K_cond"]
    shown = (
        "ModelRecord(set=FiniteSet(n=2, {00,01}), K_S=2, "
        "witness_program=BitString('10'), K_cond=1)"
    )
    text = (
        '{\n  "K_S": 2,\n  "K_cond": 1,\n  "set": [\n    "00",\n    "01"\n  ],\n'
        '  "witness_program": "10"\n}'
    )
    assert rec.delta_key == Fraction(2, 2)  # cached in its slot from here on
    assert rec.delta_key is rec.delta_key
    assert rec == fresh and hash(rec) == hash(fresh)
    assert repr(rec) == repr(fresh) == shown
    assert encode(rec) == encode(fresh) == text
    for changed in (
        ModelRecord(FiniteSet(2, ["00", "10"]), 2, rec.witness_program, 1),
        ModelRecord(rec.set, 3, rec.witness_program, 1),
        ModelRecord(rec.set, 2, BitString("11"), 1),
        ModelRecord(rec.set, 2, rec.witness_program, 0),
    ):
        assert changed != rec
    with pytest.raises(FrozenInstanceError):
        rec.K_S = 3


### Validation errors


def test_prefix_violation_rejected():
    with pytest.raises(DescriptorError, match="prefix"):
        build_system("data\t0\t00\ndata\t01\t01\ndata\t1\t10\ndata\t001\t11")


def test_kraft_violation_rejected():
    # four length-1 data programs cannot exist; use two plus overlap-free dupes
    text = "data\t0\t0\ndata\t1\t1\nset\t0\t0\nset\t1\t0,1\nset\t00\t1"
    with pytest.raises(DescriptorError, match="prefix"):
        build_system(text)


def test_kraft_overflow_detected_directly():
    n = 1
    data = {B("0"): B("0"), B("1"): B("1")}
    sets = {B("0"): FiniteSet(n, [0]), B("1"): FiniteSet(n, [0, 1])}
    DescriptionSystem(n, data, sets)  # exactly 1 is fine
    bad_data = {B("0"): B("0"), B("10"): B("1"), B("11"): B("0"), B("1"): B("1")}
    with pytest.raises(DescriptorError):
        DescriptionSystem(n, bad_data, {})


def test_uncovered_universe_rejected():
    with pytest.raises(DescriptorError, match="undescribed"):
        build_system("data\t0\t00\ndata\t10\t01\ndata\t11\t10")


_CUBE2, _HALF2 = FiniteSet(2, range(4)), FiniteSet(2, [0, 1])
_DATA2 = {B("00"): B("00"), B("01"): B("01"), B("10"): B("10"), B("11"): B("11")}


@pytest.mark.parametrize(
    "data, sets, conds, message",
    [
        ({}, {}, None, "a system needs at least one data program"),
        (
            {B("0"): B("00"), B("10"): B("11"), B("11"): B("00")},
            {},
            None,
            "data namespace leaves universe elements undescribed, e.g. 01",
        ),
        (
            {**_DATA2, B("11"): B("1")},
            {},
            None,
            "data program '11' prints '1', not an 2-bit string",
        ),
        (_DATA2, {B("0"): FiniteSet(3, [0])}, None, "set program '0' prints a set of wrong width"),
        (
            _DATA2,
            {B("0"): _CUBE2},
            {_HALF2: {B("0"): B("00")}},
            "conditional shortcuts refer to a set no program prints",
        ),
        (
            _DATA2,
            {B("0"): _CUBE2},
            {_CUBE2: {B("0"): B("000")}},
            "conditional shortcut '0' prints a non-universe string",
        ),
        (
            _DATA2,
            {B("0"): _CUBE2},
            {_CUBE2: {B("0"): B("00"), B("01"): B("01")}},
            "conditional namespace not prefix-free: '0' is a prefix of '01'",
        ),
        # two faults: a width fault is refused before a prefix clash, and a
        # prefix clash before an undescribed string
        (
            {B("0"): B("00"), B("00"): B("01"), B("10"): B("10"), B("11"): B("111")},
            {},
            None,
            "data program '11' prints '111', not an 2-bit string",
        ),
        (
            {B("0"): B("00"), B("01"): B("01")},
            {},
            None,
            "data namespace not prefix-free: '0' is a prefix of '01'",
        ),
    ],
)
def test_construction_refusals_name_the_fault(data, sets, conds, message):
    with pytest.raises(DescriptorError) as exc:
        DescriptionSystem(2, data, sets, conds)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: build_system("data 0 @family:literal(n)\n"), "line 1: bad family argument 'n'"),
        (lambda: build_system("data 0 @family:literal(n=2)\ncond 1 @family:cube(n=2)\n"),
         "line 2: families are not supported for kind 'cond'"),
        (lambda: build_system(
            "data 0 @family:literal(n=1)\nset 0 0,1\ncond 1 0@0\ncond 1 1@0\n"
        ), "line 4: duplicate conditional program '1' for one set"),
        (lambda: DescriptionSystem(0, {}, {}), "universe width must be in [1, 16], got 0"),
    ],
    ids=["family-argument", "cond-family", "duplicate-cond", "zero-width"],
)
def test_descriptor_refusals_name_the_fault(make, message):
    with pytest.raises(DescriptorError) as exc:
        make()
    assert type(exc.value) is DescriptorError and str(exc.value) == message


def test_empty_set_output_rejected():
    # the empty set is a legal *value* (synthesis uses it as a flagged
    # terminal state) but no program may print it
    empty = FiniteSet(2, [])
    assert empty.cardinality == 0
    data = {B("0"): B("00"), B("10"): B("01"), B("110"): B("10"), B("111"): B("11")}
    with pytest.raises(DescriptorError, match="empty set"):
        DescriptionSystem(2, data, {B("0"): empty})
    with pytest.raises(DescriptorError, match="no members"):
        build_system("data\t0\t0\ndata\t1\t1\nset\t0\t,")


def test_wrong_width_entry_rejected():
    with pytest.raises(DescriptorError, match="widths"):
        build_system("data\t0\t00\ndata\t1\t01\nset\t0\t000")


def test_width_refusal_names_both_lines():
    with pytest.raises(DescriptorError) as exc:
        build_system("data\t0\t00\ndata\t1\t01\nset\t0\t000")
    assert str(exc.value) == (
        "line 3: inconsistent universe widths: width 3 disagrees with width 2 from line 1"
    )


def test_family_width_refusal_names_its_line_before_expanding(monkeypatch):
    expanded = []
    expand = descsys.expand_family

    def counted(kind, program, name, args):
        expanded.append(name)
        return expand(kind, program, name, args)

    monkeypatch.setattr(descsys, "expand_family", counted)
    text = "# widths\ndata\t0\t@family:bernoulli(n=2)\n\nset\t0\t@family:cube(n=3)\n"
    with pytest.raises(DescriptorError) as exc:
        build_system(text)
    assert str(exc.value) == (
        "line 4: inconsistent universe widths: width 3 disagrees with width 2 from line 2"
    )
    assert expanded == ["bernoulli"]


def test_cond_must_reference_existing_set():
    text = "data\t0\t0\ndata\t1\t1\ncond\t0\t0@111"
    with pytest.raises(DescriptorError, match="unknown set program"):
        build_system(text)


def test_malformed_lines_rejected():
    with pytest.raises(DescriptorError, match="3 fields"):
        build_system("data\t0")
    with pytest.raises(DescriptorError, match="kind"):
        build_system("blob\t0\t00")


def test_cond_shortcut_parsed_and_used():
    text = (
        "data\t0\t00\ndata\t10\t01\ndata\t110\t10\ndata\t111\t11\n"
        "set\t0\t00,01,10,11\n"
        "cond\t0\t10@0\n"
    )
    sys = build_system(text)
    cube = FiniteSet(2, range(4))
    assert sys.K_cond("10", cube) == 1
    assert sys.K_cond("00", cube) == 2
    sums = sys.kraft_sums()
    assert sums["cond"] == {"0": Fraction(1, 2)}


def test_kraft_sums_label_a_set_printed_by_the_empty_program():
    text = "data\t00\t00\ndata\t01\t01\ndata\t10\t10\ndata\t11\t11\nset\t.\t00,01\ncond\t0\t01@.\n"
    assert build_system(text).kraft_sums()["cond"] == {".": Fraction(1, 2)}


### Families


def test_family_cube_and_singletons():
    text = (
        "data\t1\t@family:literal(n=3)\n"
        "set\t0\t@family:cube(n=3)\n"
        "set\t10\t@family:singletons(n=3)\n"
    )
    sys = build_system(text)
    assert sys.universe_n == 3
    cube = FiniteSet(3, range(8))
    assert sys.K_set(cube) == 1
    for v in range(8):
        assert sys.K_set(FiniteSet(3, [v])) == 2 + 3
        assert sys.K_data(v) == 4
    assert kraft_sum(sys.set_programs) == Fraction(1, 2) + 8 * Fraction(1, 32)


def test_family_cylinders():
    sys = build_system(
        "data\t1\t@family:literal(n=2)\nset\t0\t@family:cylinders(n=2)\n"
    )
    # prefixes: '', 0, 1, 00, 01, 10, 11 -> 7 programs
    assert len(sys.set_programs) == 7
    assert sys.K_set(FiniteSet(2, range(4))) == 1 + 1  # tag + encode_sd('')
    assert sys.K_set(FiniteSet(2, ["00", "01"])) == 1 + 3  # encode_sd('0')
    assert sys.K_set(FiniteSet(2, ["10"])) == 1 + 5  # encode_sd('10')
    assert oracle_kraft(sys.set_programs) <= 1


def test_family_hamming_slices():
    sys = build_system(
        "data\t1\t@family:literal(n=5)\nset\t0\t@family:hamming(n=5)\n"
    )
    assert len(sys.set_programs) == 6
    for k in range(6):
        slice_set = FiniteSet(5, [v for v in range(32) if bin(v).count("1") == k])
        expected_len = 1 + len(encode_sd(string_of_integer(k)))
        assert sys.K_set(slice_set) == expected_len


def test_family_patches_product_structure():
    sys = build_system(
        "data\t1\t@family:literal(n=4)\nset\t0\t@family:patches(n=4,m=2)\n"
    )
    # vectors (k1,k2) in [0,2]^2 -> 9 programs
    assert len(sys.set_programs) == 9
    # the (1,2) product set: first patch weight 1, second weight 2
    members = [v for v in range(16) if bin(v >> 2).count("1") == 1 and (v & 3) == 3]
    s = FiniteSet(4, members)
    expected = 1 + len(encode_sd(string_of_integer(1))) + len(encode_sd(string_of_integer(2)))
    assert sys.K_set(s) == expected


def test_family_bernoulli_two_part_data_code():
    sys = build_system("data\t0\t@family:bernoulli(n=4)\n" "set\t0\t@family:cube(n=4)\n")
    # weight-0 string: tag(1) + sd('') (1 bit) + 0 rank bits
    assert sys.K_data("0000") == 2
    # weight-2 strings: C(4,2)=6, rank width 3, sd(string(2))=sd('1')=3 bits
    assert sys.K_data("0011") == 1 + 3 + 3
    assert oracle_kraft(sys.data_programs) <= 1
    # coverage is total
    for v in range(16):
        assert sys.K_data(v) >= 1


def test_family_argument_validation():
    with pytest.raises(DescriptorError, match="arguments"):
        build_system("set\t0\t@family:cube(m=3)\ndata\t1\t@family:literal(n=3)")
    with pytest.raises(DescriptorError, match="dividing"):
        build_system("set\t0\t@family:patches(n=4,m=3)\ndata\t1\t@family:literal(n=4)")
    with pytest.raises(DescriptorError, match="unknown set family"):
        build_system("set\t0\t@family:mystery(n=3)\ndata\t1\t@family:literal(n=3)")


def _family_cases():
    for n in range(1, 9):
        for name in ("cube", "singletons", "cylinders", "hamming", "literal", "bernoulli"):
            yield name, {"n": n}
        yield from (("patches", {"n": n, "m": m}) for m in range(1, n + 1) if n % m == 0)
    yield "patches", {"n": 12, "m": 4}
    yield "bernoulli", {"n": 12}


def _family_params(cases):
    """Each family case under three tags: ``10`` keeps the case's own id,
    and the empty tag and one past 64 bits add theirs.  Programs are
    written by shifting the tag's value past the fields that follow it."""
    for name, args in cases:
        case = "-".join([name] + [f"{k}{a}" for k, a in args.items()])
        for tag, suffix in ((B("10"), ""), (B(""), "-tag0"), (B("1" + "01" * 35), "-tag71")):
            yield pytest.param(name, args, tag, id=case + suffix)


@pytest.mark.parametrize("name, args, tag", _family_params(_family_cases()))
def test_expand_family_matches_the_scan_oracle(name, args, tag):
    kind = "data" if name in ("literal", "bernoulli") else "set"
    got = expand_family(kind, tag, name, args)
    want = oracle_family_entries(kind, tag, name, args)
    assert [p for p, _ in got] == [p for p, _ in want]
    for (_, out), (_, expected) in zip(got, want):
        if kind == "set":
            assert tuple(out.values) == tuple(expected)
            assert out == FiniteSet(args["n"], expected)
        else:
            assert out == expected


@pytest.mark.parametrize(
    "name, args, tag", _family_params(case for case in _family_cases() if case[1]["n"] <= 8)
)
def test_expand_family_entries_equal_a_checked_rebuild(name, args, tag):
    kind = "data" if name in ("literal", "bernoulli") else "set"
    n = args["n"]
    for program, out in expand_family(kind, tag, name, args):
        assert program == B.from_value(len(program), program.value)
        assert program.startswith(tag)
        if kind == "data":
            assert out == B.from_value(n, out.value)
            continue
        rebuilt = FiniteSet(n, out.values)
        assert out == rebuilt and hash(out) == hash(rebuilt)
        assert out.values == rebuilt.values
        assert out.subset_of(rebuilt) and rebuilt.subset_of(out)
        assert all(v in out for v in rebuilt.values)


def test_width_bound_families_build_quickly():
    text = (
        "data\t.\t@family:bernoulli(n=16)\n"
        "set\t00\t@family:patches(n=16,m=4)\n"
        "set\t01\t@family:patches(n=16,m=8)\n"
        "set\t10\t@family:hamming(n=16)\n"
        "set\t11\t@family:cube(n=16)\n"
    )
    start = time.perf_counter()
    sys = build_system(text)
    assert time.perf_counter() - start < 30
    assert len(sys.data_programs) == 1 << 16
    assert len(sys.set_programs) == 5**4 + 9**2 + 17 + 1
    # each family partitions or covers the universe once
    assert sum(len(s) for s in sys.set_programs.values()) == 4 << 16


@settings(max_examples=200)
@given(st.lists(st.text(alphabet="01", max_size=70).map(B)))
def test_kraft_sum_matches_the_oracle(programs):
    for case in ([], [B("")], programs):
        total = kraft_sum(case)
        assert isinstance(total, Fraction) and total == oracle_kraft(case)


@st.composite
def program_lists(draw):
    """Mixed-length programs, some made prefix pairs or duplicates of others
    (a cut at 0 adds the empty program), or a random prefix-free code under
    a shared stem.  Long texts and the long stem take programs past 64 bits,
    where the check's packed sort keys are big ints."""
    if draw(st.booleans()):
        stem = draw(st.sampled_from(["", "0", "1" + "01" * 35]))
        code = random_prefix_code(draw(st.randoms()), draw(st.integers(1, 40)))
        return draw(st.permutations([B(stem) + p for p in code]))
    text = st.text(alphabet="01", max_size=12) | st.text(alphabet="01", min_size=60, max_size=80)
    texts = draw(st.lists(text, max_size=12))
    extra = []
    if texts:
        for t in draw(st.lists(st.sampled_from(texts), max_size=4)):
            extra.append(t[: draw(st.integers(0, len(t)))])
    return [B(t) for t in draw(st.permutations(texts + extra))]


def prefix_outcome(check, programs):
    try:
        check(programs, "set")
    except DescriptorError as err:
        return str(err)
    return None


@settings(max_examples=300)
@given(program_lists())
def test_check_prefix_free_matches_the_text_sort_oracle(programs):
    assert prefix_outcome(check_prefix_free, iter(programs)) == prefix_outcome(
        oracle_check_prefix_free, programs
    )


@pytest.mark.parametrize(
    "texts, message",
    [
        ([], None),
        ([""], None),
        (["", ""], "duplicate program '' in set namespace"),
        (["1", ""], "'' is a prefix of '1'"),
        (["10", "0", "11"], None),
        (["011", "1", "01", "00"], "'01' is a prefix of '011'"),
        (["0100", "01"], "'01' is a prefix of '0100'"),
    ],
)
def test_check_prefix_free_edge_cases(texts, message):
    programs = [B(t) for t in texts]
    outcome = prefix_outcome(check_prefix_free, programs)
    assert outcome == prefix_outcome(oracle_check_prefix_free, programs)
    assert (outcome is None) == (message is None)
    if message is not None:
        assert message in outcome


@pytest.mark.parametrize(
    "family, message",
    [
        ("data\t0\t@family:literal(n=-1)", "width n"),
        ("data\t0\t@family:literal(n=0)", "width n"),
        ("data\t0\t@family:literal(n=17)", "width n"),
        ("data\t0\t@family:literal(n=2,n=3)", "given twice"),
        ("data\t0\t@family:literal(n=2,n=2)", "given twice"),
        ("set\t1\t@family:patches(n=17,m=1)", "width n"),
    ],
)
def test_family_arguments_checked_before_expansion(family, message):
    with pytest.raises(DescriptorError, match=message):
        build_system(f"{family}\ndata\t1\t@family:literal(n=2)\nset\t0\t@family:cube(n=2)")


# Descriptor text for a width n <= 6: mostly well-formed entries (so the
# checks past the tokenizer are reached and some texts build), mixed with
# near misses: wrong widths, duplicate or out-of-range family arguments,
# unknown names, prefix clashes, dangling cond anchors and broken lines.
_FAMILIES = ["cube", "singletons", "cylinders", "hamming", "patches", "literal", "bernoulli"]


@st.composite
def _descriptor_text(draw):
    n = draw(st.integers(1, 6))
    string = st.text(alphabet="01", min_size=n, max_size=n)
    any_string = st.text(alphabet="01", min_size=1, max_size=6)
    program = st.one_of(
        st.text(alphabet="01", max_size=5).map("1".__add__),
        st.text(alphabet="01", max_size=5).map("1".__add__),
        st.sampled_from([".", "0", "00", "2"]),
    )
    arg = st.one_of(
        st.builds("{}={}".format, st.sampled_from(["n", "m"]), st.sampled_from([n, n, n, 1, 2, 3])),
        st.builds("{}={}".format, st.sampled_from(["n", "m", "k"]), st.sampled_from([-1, 0, 17, "x"])),
    )
    family_call = st.one_of(
        st.builds(
            "@family:{}(n={}{})".format,
            st.sampled_from(_FAMILIES),
            st.just(n),
            st.sampled_from(["", "", ",m=1", f",m={n}", ",m=2", ",n=2"]),
        ),
        st.builds(
            "@family:{}({})".format,
            st.sampled_from(_FAMILIES + ["mystery"]),
            st.lists(arg, max_size=3).map(",".join),
        ),
    )
    members = st.lists(string, min_size=1, max_size=4).map(",".join)
    entry = st.one_of(
        st.builds("data\t{}\t{}".format, program, st.one_of(string, string, any_string, family_call)),
        st.builds("set\t{}\t{}".format, program, st.one_of(members, members, any_string, family_call)),
        st.builds("cond\t{}\t{}@{}".format, program, string, st.sampled_from(["0", "1", "10", "."])),
    )
    broken = st.sampled_from(
        ["data 0", "set 0 00 extra", "sets\t1\t0", "set\t1\t,", "cond\t1\t0", "data\t1\t@family:cube(n=2"]
    )
    lines = []
    if draw(st.integers(0, 3)):
        lines.append(f"data\t0\t@family:literal(n={n})")
    if draw(st.integers(0, 3)):
        lines.append(f"set\t0\t@family:cube(n={n})")
    lines += draw(st.lists(st.one_of(entry, entry, entry, broken), max_size=5))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300)
@given(_descriptor_text())
def test_descriptor_text_builds_or_refuses(text):
    # the only outcomes allowed for any descriptor text
    try:
        system = build_system(text)
    except StructLabError:
        return
    assert isinstance(system, DescriptionSystem)


@st.composite
def short_program_lists(draw):
    """Programs of lengths 0..8: leaves of a complete code grown from the
    empty program, some dropped, plus a few texts and repeats."""
    leaves = [""]
    for _ in range(draw(st.integers(0, 24))):
        growable = [w for w in leaves if len(w) < 8]
        if not growable:
            break
        w = draw(st.sampled_from(growable))
        leaves.remove(w)
        leaves += [w + "0", w + "1"]
    kept = draw(st.one_of(st.just(leaves), st.lists(st.sampled_from(leaves), unique=True)))
    extra = draw(
        st.lists(st.one_of(st.sampled_from(leaves), st.text(alphabet="01", max_size=8)), max_size=3)
    )
    return [B(t) for t in draw(st.permutations(kept + extra))]


@settings(max_examples=300)
@given(short_program_lists())
def test_a_kraft_sum_past_one_is_always_a_prefix_clash(programs):
    # Kraft's inequality: construction and codebooks check prefix-freeness
    # alone, because no prefix-free code has a Kraft sum past 1.
    if kraft_sum(programs) > 1:
        with pytest.raises(DescriptorError, match="prefix|duplicate"):
            check_prefix_free(programs, "set")
    # a program may come as text or as a BitString; an accepted codebook
    # keeps every program it was given
    named = dict.fromkeys(
        (str(p) if i % 2 else p for i, p in enumerate(programs)), PredictionStrategy.uniform(2)
    )
    try:
        book = StrategyCodebook(named)
    except StructLabError:
        return
    assert len(book) == len(named)
    assert kraft_sum(book.programs) <= 1


@settings(max_examples=300)
@given(_descriptor_text())
def test_every_accepted_descriptor_keeps_its_kraft_sums_within_one(text):
    try:
        system = build_system(text)
    except StructLabError:
        return
    sums = system.kraft_sums()
    assert sums["data"] <= 1 and sums["set"] <= 1
    assert all(total <= 1 for total in sums["cond"].values())


### Enumeration streams


def test_stream_is_total_and_deterministic(fixa):
    s1 = enumeration_stream(fixa, seed=7).events
    s2 = enumeration_stream(fixa, seed=7).events
    assert s1 == s2
    assert len(s1) == 7
    pairs = {(kind, str(p)) for kind, p, _ in s1}
    assert len(pairs) == 7
    assert {(("data"), str(p)) for p in fixa.data_programs} <= pairs


def test_stream_seed_changes_order(fixa):
    orders = {
        tuple(str(p) for _, p, _ in enumeration_stream(fixa, s).events) for s in range(8)
    }
    assert len(orders) > 1


def assert_stream_matches_oracle(sys, seed):
    assert list(enumeration_stream(sys, seed).events) == oracle_stream_order(sys, seed)


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_stream_is_the_shuffled_program_order(system_seed, seed):
    assert_stream_matches_oracle(random_system(system_seed), seed)


def test_battery_streams_are_the_shuffled_program_order():
    systems = build_report_family_systems()
    systems["nonstoch"] = make_nonstoch_system(12, 5, 6, seed=0).system
    for sys in systems.values():
        for seed in (0, 1, 11):
            assert_stream_matches_oracle(sys, seed)


def test_streams_permute_one_table_without_hashing(monkeypatch):
    sys = build_report_family_systems()["patches-8"]
    hashes = []
    original = BitString.__hash__

    def counted(self):
        hashes.append(self)
        return original(self)

    monkeypatch.setattr(BitString, "__hash__", counted)
    first, second = enumeration_stream(sys, 0), enumeration_stream(sys, 1)
    assert hashes == []
    monkeypatch.undo()
    assert first.events != second.events
    shared = {id(entry) for entry in sys.program_table}
    assert {id(e) for e in first.events} == {id(e) for e in second.events} == shared
    order = [(kind, p) for kind, p, _ in first.events]
    assert EnumerationStream(sys, order).events == first.events


def test_building_a_system_hashes_each_program_once(monkeypatch):
    hashes = []
    original = BitString.__hash__

    def counted(self):
        hashes.append(self)
        return original(self)

    monkeypatch.setattr(BitString, "__hash__", counted)
    sys = build_system(
        "data . @family:bernoulli(n=6)\n"
        "set 0 @family:cube(n=6)\n"
        "set 10 @family:patches(n=6,m=3)\n"
        "set 11 @family:singletons(n=6)\n"
    )
    monkeypatch.undo()
    assert len(hashes) == len(sys.data_programs) + len(sys.set_programs)
    assert len({id(p) for p in hashes}) == len(hashes)  # no program twice
    # a repeated program is refused even when it prints the very same output
    for text in ("data 0 0\ndata 1 1\nset 0 0\nset 0 0\n", "data 0 0\ndata 0 0\n"):
        kind = text.split()[-3]
        with pytest.raises(DescriptorError, match=f"duplicate {kind} program '0'"):
            build_system(text)


def test_building_a_system_with_explicit_lines_hashes_each_program_once(monkeypatch):
    hashes = []
    original = BitString.__hash__

    def counted(self):
        hashes.append(self)
        return original(self)

    monkeypatch.setattr(BitString, "__hash__", counted)
    sys = build_system(
        "data 1 0000\n"
        "data 0 @family:literal(n=4)\n"
        "set 0 0001,0010\n"
        "set 10 0011\n"
        "set 11 @family:cylinders(n=4)\n"
    )
    monkeypatch.undo()
    assert len(sys.data_programs) == 1 + 16 and len(sys.set_programs) == 2 + 31
    assert len(hashes) == len(sys.data_programs) + len(sys.set_programs)
    assert len({id(p) for p in hashes}) == len(hashes)  # no program twice


@pytest.mark.parametrize(
    "text, message",
    [
        # literal(n=2) under tag 0 writes 000, 001, 010, 011: the third
        # repeats an explicit program, and so does the fourth, given first
        (
            "data 011 00\ndata 010 11\ndata 0 @family:literal(n=2)\n",
            "line 3: duplicate data program '010'",
        ),
        # cylinders(n=2) under tag 1 writes 10, 1100, 1101, ...
        ("set 1100 00\nset 1 @family:cylinders(n=2)\n", "line 2: duplicate set program '1100'"),
        ("data 0 @family:literal(n=1)\ndata 01 1\n", "line 2: duplicate data program '01'"),
    ],
    ids=["literal-third", "cylinders-second", "explicit-after-family"],
)
def test_a_repeated_family_program_is_named_in_entry_order(text, message):
    with pytest.raises(DescriptorError) as exc:
        build_system(text)
    assert str(exc.value) == message


### Recoding invariance of complexities


def test_permutation_preserves_complexities(fixa):
    perm = {0: 2, 1: 0, 2: 3, 3: 1}
    image = apply_permutation(fixa, perm)
    for v in range(4):
        assert image.K_data(perm[v]) == fixa.K_data(v)
    b = FiniteSet(2, ["00", "01"])
    image_b = FiniteSet(2, [perm[0], perm[1]])
    assert image.K_set(image_b) == fixa.K_set(b)
    assert image.c_sub == fixa.c_sub


def test_permutation_keeps_set_and_cond_lookups():
    sys = random_system(11, n=5)
    assert sys.cond_shortcuts
    perm = list(range(32))
    random.Random(3).shuffle(perm)
    image = apply_permutation(sys, perm.__getitem__)
    for s in oracle_distinct_sets(sys):
        # a freshly built set must find the image's tables by hash and equality
        moved = FiniteSet(5, [perm[v] for v in reversed(s.values)])
        assert image.K_set(moved) == sys.K_set(s)
        for v in range(32):
            assert image.K_cond(perm[v], moved) == sys.K_cond(v, s)


def test_permutation_must_be_bijective(fixa):
    with pytest.raises(DescriptorError, match="bijection"):
        apply_permutation(fixa, {0: 0, 1: 0, 2: 2, 3: 3})


### Round trip through the descriptor grammar


def test_descriptor_round_trip(fixa):
    text = fixa.to_descriptor_text()
    again = build_system(text)
    assert again.data_programs == fixa.data_programs
    assert again.set_programs == fixa.set_programs
    assert again.cond_shortcuts == fixa.cond_shortcuts


def test_descriptor_round_trip_with_shortcuts():
    text = (
        "data\t0\t00\ndata\t10\t01\ndata\t110\t10\ndata\t111\t11\n"
        "set\t0\t00,01,10,11\nset\t10\t00,01\n"
        "cond\t00\t01@10\ncond\t1\t00@0\n"
    )
    sys = build_system(text)
    again = build_system(sys.to_descriptor_text())
    assert again.cond_shortcuts == sys.cond_shortcuts
    assert again.kraft_sums() == sys.kraft_sums()


### Randomized agreement with the oracles


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_systems_agree_with_oracles(seed):
    sys = random_system(seed)
    assert kraft_sum(sys.data_programs) <= 1
    assert kraft_sum(sys.set_programs) <= 1
    for v in range(sys.universe_size()):
        assert sys.K_data(v) == oracle_K_data(sys, v)
    for s, (k, w) in oracle_distinct_sets(sys).items():
        assert sys.K_set(s) == k
        assert sys.set_witness(s) == w
        for v in list(s.values)[:8]:
            assert sys.K_cond(v, s) == oracle_K_cond(sys, v, s)
    # each set's entry is kept once: K_set and set_witness read it
    assert len(sys._set_index) == len(oracle_distinct_sets(sys))
    assert all(sys._set_index[e.set] is e for e in sys.set_entries())
    assert sys.c_sub == oracle_c_sub(sys)
    # the entries are ranked by their shortest program, and so is each round
    # of the induced enumeration's sets
    ranked = list(oracle_distinct_sets(sys))
    assert [e.set for e in sys.set_entries()] == ranked
    k = sys.max_set_program_length()
    rounds = induced_Dk(sys, k).order
    for i in range(k + 1):
        listed = [o for o, level in rounds if level == i and isinstance(o, FiniteSet)]
        assert listed == [s for s in ranked if sys.K_set(s) <= i]


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_cheap_singleton_systems_valid(seed):
    sys = random_system(seed, cheap_singletons=True)
    assert kraft_sum(sys.set_programs) <= 1
    for v in range(sys.universe_size()):
        assert sys.K_set(FiniteSet(sys.universe_n, [v])) != math.inf


def _table_against_scan(seed: int, **shape) -> Counter:
    """Check the one-pass containing table against the per-string scan on one
    generated system, and count the cases the system holds."""
    scanned = random_system(seed, **shape)
    tabled = random_system(seed, **shape)
    tabled.cache_all_containing()
    table = tabled._containing
    assert len(table) == scanned.universe_size()
    # the walk that fills the table takes the census a lone c_sub takes
    assert tabled.defect_census == scanned.defect_census
    shared = {(id(r.set), r.K_cond): r for row in table for r in row}
    met: Counter = Counter()
    for v in scanned.universe_values():
        want = scanned.entries_containing(v)
        assert table[v] == want and tabled.entries_containing(v) is table[v]
        assert [r.K_cond for r in table[v]] == [oracle_K_cond(scanned, v, r.set) for r in want]
        # one record per (entry, K(x|S)), shared by the members
        assert all(shared[id(r.set), r.K_cond] is r for r in table[v])
        met["string in no set"] += not want
    # the scan and the census keep no table
    assert scanned._containing is None
    tabled.cache_all_containing()
    assert tabled._containing is table
    for s, shortcuts in scanned.cond_shortcuts.items():
        for q, out in shortcuts.items():
            if out.value not in s:
                met["non-member shortcut"] += 1
            elif len(q) < s.ceil_log_card:
                met["shortcut below the index code"] += 1
            else:
                met["shortcut at or above the index code"] += 1
    met["set printed twice"] += len(set(scanned.set_programs.values())) < len(
        scanned.set_programs
    )
    return met


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([{}, {"cheap_singletons": True}, {"n": 6, "max_sets": 40}]),
)
def test_containing_table_equals_the_per_string_scan(seed, shape):
    _table_against_scan(seed, **shape)


def test_containing_table_battery_meets_every_case():
    met = sum((_table_against_scan(seed) for seed in range(40)), Counter())
    assert len(met) == 5 and min(met.values()) >= 5, met
