"""Tests for bit strings, the integer enumeration, and the prefix codes.

The expected values for the enumeration table and both codes were computed
by hand from the definitions and double-checked with the brute-force
decoders in ``oracles.py`` before being frozen here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from structlab.codec import (
    EMPTY,
    BitString,
    decode_pair,
    decode_sd,
    decode_std,
    encode_pair,
    encode_sd,
    encode_std,
    integer_of_string,
    sd_code_length,
    std_code_length,
    string_of_integer,
)
from structlab.errors import CodecError

bits_st = st.text(alphabet="01", max_size=64).map(BitString)


def all_strings(max_len: int):
    yield EMPTY
    for n in range(1, max_len + 1):
        for tup in product("01", repeat=n):
            yield BitString("".join(tup))


### BitString basics


def test_bitstring_roundtrip_and_accessors():
    b = BitString("0110")
    assert str(b) == "0110"
    assert len(b) == 4
    assert list(b) == [0, 1, 1, 0]
    assert b[0] == 0 and b[1] == 1 and b[-1] == 0
    assert str(b.substring(1, 3)) == "11"
    assert str(b[1:3]) == "11"
    assert str(BitString("01") + BitString("10")) == "0110"
    assert BitString("0110").startswith(BitString("01"))
    assert not BitString("0110").startswith(BitString("11"))


def test_bitstring_rejects_garbage():
    with pytest.raises(CodecError):
        BitString("012")
    with pytest.raises(CodecError):
        BitString.from_value(2, 4)
    with pytest.raises(CodecError):
        BitString.from_value(-1, 0)


def test_leading_zeros_are_significant():
    assert BitString("00") != BitString("0")
    assert BitString("01") != BitString("1")
    assert len(BitString("0001")) == 4


### The integer <-> string enumeration


def test_enumeration_table_first_entries():
    expected = ["", "0", "1", "00", "01", "10", "11", "000"]
    got = [str(string_of_integer(m)) for m in range(len(expected))]
    assert got == expected


def test_enumeration_is_a_bijection_on_a_prefix():
    seen = {}
    for m in range(2**12):
        s = string_of_integer(m)
        assert integer_of_string(s) == m
        assert s not in seen
        seen[s] = m
    # every string of length <= 11 appears
    assert len(seen) == 2**12 - 1 + 1


def test_enumeration_length_formula():
    for m in range(5000):
        s = string_of_integer(m)
        assert len(s) == (m + 1).bit_length() - 1


def test_enumeration_order_matches_bitstring_order():
    strings = [string_of_integer(m) for m in range(200)]
    assert strings == sorted(strings)


@given(st.integers(min_value=0, max_value=10**12))
def test_enumeration_roundtrip_property(m):
    assert integer_of_string(string_of_integer(m)) == m


### encode_sd


def test_encode_sd_examples():
    assert str(encode_sd(EMPTY)) == "0"
    assert str(encode_sd(BitString("0"))) == "100"
    assert str(encode_sd(BitString("01"))) == "11001"
    assert str(encode_sd(BitString("111"))) == "1110111"


def test_encode_sd_length_formula():
    for x in all_strings(9):
        assert len(encode_sd(x)) == 2 * len(x) + 1 == sd_code_length(len(x))


def test_decode_sd_roundtrip_with_remainder():
    for x in all_strings(6):
        for tail in ["", "0", "1", "0101"]:
            payload, rest = decode_sd(encode_sd(x) + BitString(tail))
            assert payload == x
            assert str(rest) == tail


def test_decode_sd_rejects_malformed():
    with pytest.raises(CodecError):
        decode_sd(EMPTY)
    with pytest.raises(CodecError):
        decode_sd(BitString("111"))  # no terminator
    with pytest.raises(CodecError):
        decode_sd(BitString("1101"))  # promises 2 payload bits, has 1


def test_encode_sd_is_prefix_free():
    codes = sorted(encode_sd(x) for x in all_strings(7))
    for a, b in zip(codes, codes[1:]):
        assert a != b and not b.startswith(a)


def test_encode_sd_kraft_sum_exact():
    # sum over all x with |x| <= L of 2^-|code(x)| equals 1 - 2^-(L+1)
    for limit in range(6):
        total = sum(
            Fraction(1, 1 << len(encode_sd(x)))
            for x in all_strings(limit)
        )
        assert total == 1 - Fraction(1, 1 << (limit + 1))


### encode_std


def test_encode_std_examples():
    assert str(encode_std(EMPTY)) == "0"
    assert str(encode_std(BitString("010"))) == "11000010"


def test_encode_std_length_formula():
    for x in all_strings(10):
        n = len(x)
        expected = n + 2 * ((n + 1).bit_length() - 1) + 1
        assert len(encode_std(x)) == expected == std_code_length(n)


def test_decode_std_roundtrip_with_remainder():
    for x in all_strings(6):
        for tail in ["", "1", "001"]:
            payload, rest = decode_std(encode_std(x) + BitString(tail))
            assert payload == x
            assert str(rest) == tail


def test_encode_std_is_prefix_free():
    codes = sorted(encode_std(x) for x in all_strings(7))
    for a, b in zip(codes, codes[1:]):
        assert a != b and not b.startswith(a)


def test_decode_std_rejects_truncation():
    code = encode_std(BitString("1011"))
    with pytest.raises(CodecError):
        decode_std(code.substring(0, len(code) - 1))


### pairing


def test_pair_examples():
    assert str(encode_pair(EMPTY, EMPTY)) == "0"
    assert str(encode_pair(BitString("1"), BitString("0"))) == "1010"


def test_pair_roundtrip_exhaustive():
    for x in all_strings(4):
        for y in all_strings(4):
            assert decode_pair(encode_pair(x, y)) == (x, y)


def test_pair_left_injective():
    seen = {}
    for x in all_strings(4):
        for y in all_strings(2):
            z = encode_pair(x, y)
            assert z not in seen
            seen[z] = (x, y)


@given(bits_st, bits_st)
def test_pair_roundtrip_property(x, y):
    assert decode_pair(encode_pair(x, y)) == (x, y)


@given(bits_st)
def test_std_roundtrip_property(x):
    payload, rest = decode_std(encode_std(x))
    assert payload == x and len(rest) == 0
