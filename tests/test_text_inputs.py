"""The shared text reader: one lexical rule and one reader per token kind."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlab.codec import (
    BitString,
    read_bits,
    read_int,
    read_rational,
    show_bits,
    text_lines,
)
from structlab.descsys import FiniteSet, build_system
from structlab.errors import DescriptorError, FixtureError
from structlab.modelclasses import (
    ProbModel,
    TotalFnModel,
    format_fn,
    format_pmf,
    parse_fn,
    parse_pmf,
)
from structlab.predict import (
    PredictionStrategy,
    StrategyCodebook,
    format_codebook,
    format_strategy,
    parse_codebook,
    parse_strategy,
)
from structlab.unistat import EnumeratedD, format_enumerated, parse_enumerated

from .gensys import random_system

B = BitString


# ---------------------------------------------------------------------------
# the line reader and the token readers
# ---------------------------------------------------------------------------


def test_text_lines_skips_comments_and_blank_lines():
    text = "# header\n\n00\t1/2  # half\n  \t\n   # indented\n01 1/2#tight\n"
    assert list(text_lines(text, "string probability")) == [
        ("line 3", ["00", "1/2"]),
        ("line 6", ["01", "1/2"]),
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("# c\n00\n", r"^line 2: expected 'string probability' \(2 fields\), got '00'\Z"),
        ("00 1/2 extra", r"^line 1: expected 'string probability' \(2 fields\), got "),
    ],
)
def test_text_lines_checks_the_field_count(text, message):
    with pytest.raises(FixtureError, match=message):
        list(text_lines(text, "string probability"))


def test_text_lines_checks_the_keyword_and_raises_the_given_error():
    shape = "step LEVEL MEMBERS"
    lines = list(text_lines("step 1 00", shape, keyword="step"))
    assert lines == [("line 1", ["step", "1", "00"])]
    with pytest.raises(DescriptorError, match=r"^line 1: expected 'step LEVEL MEMBERS'"):
        list(text_lines("event 1 00", shape, DescriptorError, keyword="step"))


@pytest.mark.parametrize("token, bits", [(".", ""), ("0", "0"), ("0110", "0110")])
def test_read_bits_and_show_bits_are_inverse(token, bits):
    assert read_bits(token, "prefix", "line 1") == B(bits)
    assert show_bits(B(bits)) == token


@pytest.mark.parametrize(
    "read, token, what",
    [
        (read_bits, "0x", "prefix"),
        (read_bits, "..", "prefix"),
        (read_int, "one", "level"),
        (read_int, "1.5", "level"),
        (read_rational, "1/0", "belief"),
        (read_rational, "q", "probability"),
    ],
)
def test_token_readers_name_the_line_and_the_token(read, token, what):
    with pytest.raises(FixtureError, match=rf"^line 7: malformed {what} {token!r}\Z"):
        read(token, what, "line 7")


def test_bit_fields_of_descriptors_raise_descriptor_errors():
    with pytest.raises(DescriptorError, match=r"^line 2: malformed program '0x'\Z"):
        read_bits("0x", "program", "line 2", DescriptorError)


def test_number_readers_read_exactly():
    assert read_int("-12", "level", "line 1") == -12
    assert read_rational("25e-2", "belief", "line 1") == Fraction(1, 4)
    assert read_rational("2/6", "belief", "line 1") == Fraction(1, 3)


def test_member_lists_read_as_sets():
    assert FiniteSet.read("01,00,,01", "line 1") == FiniteSet(2, ["00", "01"])
    assert FiniteSet.read("1", "--members", width=1) == FiniteSet(1, ["1"])


@pytest.mark.parametrize(
    "field, width, message",
    [
        ("", None, r"^line 4: member list has no members\Z"),
        (",", None, r"^line 4: member list has no members\Z"),
        ("0,00", None, r"^line 4: mixed member widths in '0,00'\Z"),
        ("0x", None, r"^line 4: malformed member '0x'\Z"),
        (".", None, r"^line 4: member width 0 is outside \[1, 16\]\Z"),
        ("0" * 17, None, r"^line 4: member width 17 is outside \[1, 16\]\Z"),
        ("000", 4, r"^line 4: member width 3 != expected 4\Z"),
    ],
)
def test_member_list_refusals(field, width, message):
    with pytest.raises(FixtureError, match=message):
        FiniteSet.read(field, "line 4", width)
    with pytest.raises(DescriptorError, match=message):
        FiniteSet.read(field, "line 4", width, DescriptorError)


def test_descriptor_errors_count_file_lines_not_entries():
    text = "# header\n\ndata 0 0\ndata 1 1\nfoo 0 01\n"
    with pytest.raises(DescriptorError, match=r"^line 5: unknown kind 'foo'\Z"):
        build_system(text)
    with pytest.raises(DescriptorError, match=r"^line 4: duplicate data program '0'\Z"):
        build_system("# header\ndata 0 0\ndata 1 1\ndata 0 1\n")
    with pytest.raises(DescriptorError, match=r"^line 3: unknown set family 'mystery'\Z"):
        build_system("data 0 @family:literal(n=2)\n\nset 0 @family:mystery(n=2)\n")
    # a cond line may name a set printed further down, so it is resolved last
    sys = build_system("data 0 0\ncond 0 0@1\ndata 1 1\nset 1 0\n")
    assert sys.K_cond("0", FiniteSet(1, [0])) == 0
    message = r"^line 2: cond entry references unknown set program '11'\Z"
    with pytest.raises(DescriptorError, match=message):
        build_system("data 0 0\ncond 0 0@11\ndata 1 1\nset 1 0\n")


# ---------------------------------------------------------------------------
# every format reads back what it writes, around comments and blank lines
# ---------------------------------------------------------------------------


def bit_strings(lengths):
    return lengths.flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda v: B.from_value(n, v))
    )


@st.composite
def pmfs(draw):
    n = draw(st.integers(1, 4))
    support = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    weights = {B.from_value(n, v): draw(st.integers(1, 9)) for v in sorted(support)}
    total = sum(weights.values())
    return ProbModel(n, {b: Fraction(w, total) for b, w in weights.items()})


@st.composite
def fns(draw):
    arg_len = draw(st.integers(0, 3))
    lengths = draw(st.sets(st.integers(0, arg_len))) | {arg_len}
    table = {
        B.from_value(length, v): draw(bit_strings(st.integers(0, 3)))
        for length in sorted(lengths)
        for v in range(1 << length)
    }
    return TotalFnModel(arg_len, table)


@st.composite
def strategies(draw, n=None):
    n = draw(st.integers(1, 3)) if n is None else n
    belief = st.fractions(min_value=0, max_value=1, max_denominator=12)
    table = {
        B.from_value(length, v): draw(belief)
        for length in range(n)
        for v in range(1 << length)
    }
    return PredictionStrategy(n, table)


@st.composite
def codebooks(draw):
    width, n = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    programs = draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1))
    return StrategyCodebook(
        {B.from_value(width, v): draw(strategies(n)) for v in sorted(programs)}
    )


@st.composite
def enumerations(draw):
    sets = st.integers(1, 3).flatmap(
        lambda n: st.sets(st.integers(0, (1 << n) - 1), min_size=1).map(
            lambda vals: FiniteSet(n, vals)
        )
    )
    objects = st.one_of(bit_strings(st.integers(0, 3)), sets)
    pairs = draw(st.lists(st.tuples(objects, st.integers(0, 5)), max_size=8, unique=True))
    return EnumeratedD(pairs)


def system_key(sys):
    return (sys.universe_n, sys.data_programs, sys.set_programs, sys.cond_shortcuts)


FORMATS = {
    "pmf": (pmfs(), format_pmf, parse_pmf, None),
    "fn": (fns(), format_fn, parse_fn, None),
    "strategy": (strategies(), format_strategy, parse_strategy, None),
    "codebook": (codebooks(), format_codebook, parse_codebook, lambda book: book.programs),
    "enumeration": (enumerations(), format_enumerated, parse_enumerated, None),
    "descriptor": (
        st.integers(0, 10**6).map(lambda seed: random_system(seed, max_sets=8)),
        lambda sys: sys.to_descriptor_text(),
        build_system,
        system_key,
    ),
}


@st.composite
def with_comments(draw, text):
    """``text`` with comment lines, blank lines and trailing comments mixed in."""
    lines = []
    for line in text.splitlines():
        blanks = st.sampled_from(["", "# note", "   # indented", " \t "])
        lines += draw(st.lists(blanks, max_size=2))
        lines.append(line + draw(st.sampled_from(["", "\t# why", "  # a # b", "#tight"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n# end\n"]))


@pytest.mark.parametrize("kind", FORMATS)
@settings(max_examples=40)
@given(data=st.data())
def test_formats_read_back_around_comments(kind, data):
    objects, write, read, key = FORMATS[kind]
    key = key or (lambda obj: obj)
    obj = data.draw(objects)
    text = data.draw(with_comments(write(obj)))
    assert key(read(text)) == key(obj)
