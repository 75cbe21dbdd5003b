"""Tests for description systems: exact complexities, audits, families, streams."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlab.codec import BitString, encode_sd, string_of_integer
from structlab.descsys import (
    DescriptionSystem,
    FiniteSet,
    apply_permutation,
    build_system,
    check_prefix_free,
    enumerate_models,
    enumeration_stream,
    expand_family,
    kraft_sum,
)
from structlab.errors import DescriptorError, StructLabError

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
)

B = BitString


### FiniteSet


def test_finite_set_sorted_dedup_and_membership():
    s = FiniteSet(3, ["101", "001", "101", 2])
    assert [str(b) for b in s.bitstrings()] == ["001", "010", "101"]
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


def test_finite_set_reads_bools_and_empty_iterables_as_values():
    assert FiniteSet(2, [True, False, 3]) == FiniteSet(2, [0, 1, 3])
    empty = FiniteSet(3, iter(()))
    assert empty.values == () and empty.cardinality == 0
    with pytest.raises(DescriptorError, match="ceil_log_card of the empty set"):
        empty.ceil_log_card


def test_ceil_log_card_values():
    for card, expect in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)]:
        s = FiniteSet(4, range(card))
        assert s.ceil_log_card == expect


### The reference system: exact complexities


def test_fixa_data_complexities(fixa):
    for x, k in [("00", 1), ("01", 2), ("10", 3), ("11", 3)]:
        assert fixa.K_data(x) == k == oracle_K_data(fixa, x)
    assert str(fixa.data_witness("00")) == "0"


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
    assert rec.total_length == 3.0
    assert rec.deficiency == 0.0


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


@pytest.mark.parametrize(
    "name, args",
    list(_family_cases()),
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}{a}" for k, a in v.items()),
)
def test_expand_family_matches_the_scan_oracle(name, args):
    kind = "data" if name in ("literal", "bernoulli") else "set"
    got = expand_family(kind, B("10"), name, args)
    want = oracle_family_entries(kind, B("10"), name, args)
    assert [(k, p) for k, p, _ in got] == [(k, p) for k, p, _ in want]
    for (_, _, out), (_, _, expected) in zip(got, want):
        if kind == "set":
            assert out.values == tuple(expected)
            assert out == FiniteSet(args["n"], expected)
        else:
            assert out == expected


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
    (a cut at 0 adds the empty program), or a random prefix-free code."""
    if draw(st.booleans()):
        code = random_prefix_code(draw(st.randoms()), draw(st.integers(1, 40)))
        return draw(st.permutations(code))
    texts = draw(st.lists(st.text(alphabet="01", max_size=12), max_size=12))
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


### Enumeration streams


def test_stream_is_total_and_deterministic(fixa):
    s1 = enumeration_stream(fixa, seed=7).events
    s2 = enumeration_stream(fixa, seed=7).events
    assert s1 == s2
    assert [e.time for e in s1] == list(range(7))
    pairs = {(e.kind, str(e.program)) for e in s1}
    assert len(pairs) == 7
    assert {(("data"), str(p)) for p in fixa.data_programs} <= pairs


def test_stream_seed_changes_order(fixa):
    orders = {
        tuple(str(e.program) for e in enumeration_stream(fixa, s).events) for s in range(8)
    }
    assert len(orders) > 1


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
    assert sys.c_sub == oracle_c_sub(sys)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_cheap_singleton_systems_valid(seed):
    sys = random_system(seed, cheap_singletons=True)
    assert kraft_sum(sys.set_programs) <= 1
    for v in range(sys.universe_size()):
        assert sys.K_set(FiniteSet(sys.universe_n, [v])) != math.inf
