"""Probability and lookup-function models: expansions, restrictions, curves."""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from structlab.artifacts import encode
from structlab.codec import BitString
from structlab.descsys import FiniteSet
from structlab.errors import FixtureError, StructLabError
from structlab.modelclasses import (
    FnRestriction,
    PmfCodebook,
    PmfRestriction,
    ProbModel,
    TotalFnModel,
    expand_set,
    fn_deficiency,
    format_fn,
    format_pmf,
    likelihood_curve,
    parse_fn,
    parse_pmf,
    pmf_codebook_from_sets,
    pmf_deficiency_key,
    probability_level,
    restrict_to_set,
)
from structlab.rational import MAX_DIGITS, log2_display, pow2, show_fraction
from structlab.structfn import profile

from .gensys import random_system

B = BitString


def random_pmf(seed: int, n: "int | None" = None) -> ProbModel:
    """A pmf with random rational weights on a random support."""
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(1, 6)
    size = rng.randint(1, min(10, 1 << n))
    support = rng.sample(range(1 << n), size)
    weights = [rng.randint(1, 20) for _ in support]
    total = sum(weights)
    return ProbModel(
        n, {B.from_value(n, v): Fraction(w, total) for v, w in zip(support, weights)}
    )


def random_set(rng: random.Random, n: int, size: "int | None" = None) -> FiniteSet:
    if size is None:
        size = rng.randint(1, 1 << n)
    return FiniteSet(n, rng.sample(range(1 << n), size))


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


def test_pmf_requires_exact_total():
    with pytest.raises(StructLabError, match="sum to 1"):
        ProbModel(2, {"00": Fraction(1, 2), "01": Fraction(1, 3)})


def test_pmf_validation():
    with pytest.raises(StructLabError, match="support length"):
        ProbModel(0, {})
    with pytest.raises(StructLabError, match="does not have length"):
        ProbModel(2, {"000": 1})
    with pytest.raises(StructLabError, match="lie in"):
        ProbModel(1, {"0": Fraction(3, 2), "1": Fraction(-1, 2)})


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ProbModel(2, {"01": Fraction(1, 2), BitString("01"): Fraction(1, 2)}),
         StructLabError, "repeated support string BitString('01')"),
        (lambda: TotalFnModel(1, {"0": BitString("1"), BitString("0"): BitString("1")}),
         StructLabError, "repeated table argument BitString('0')"),
        (lambda: parse_pmf(".\t1\n"), FixtureError, "line 1: malformed string '.'"),
    ],
    ids=["pmf-support", "fn-table", "pmf-text"],
)
def test_repeated_or_malformed_strings_are_refused(make, error, message):
    with pytest.raises(StructLabError) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("value", ["abc", "1/0", None, float("nan"), float("inf")])
def test_malformed_probability_is_a_structlab_error(value):
    with pytest.raises(StructLabError, match=f"malformed probability value {value!r}"):
        ProbModel(1, {"0": value, "1": 0})


@pytest.mark.parametrize("token", ["1e-5000", "1e-1000000", "1e4300", "1e-4294"])
def test_too_long_probabilities_are_refused_quickly(token):
    start = time.perf_counter()
    with pytest.raises(StructLabError, match=f"malformed probability value {token!r}"):
        ProbModel(1, {"0": token, "1": 1})
    with pytest.raises(FixtureError, match=f"line 1: malformed probability {token!r}"):
        parse_pmf(f"0\t{token}\n1\t1\n")
    assert time.perf_counter() - start < 1


def test_pmf_total_of_the_longest_decimal_is_shown():
    with pytest.raises(StructLabError, match=f"sum to 1 exactly, got {10**4293 + 1}/{10**4293}"):
        parse_pmf("0\t1e-4293\n1\t1\n")


def test_pmf_total_too_long_to_show_is_approximated():
    total = Fraction(1, 3**8300) + Fraction(1, 7**4700)
    with pytest.raises(StructLabError) as info:
        ProbModel(1, {"0": Fraction(1, 3**8300), "1": Fraction(1, 7**4700)})
    assert str(info.value) == (
        f"probabilities must sum to 1 exactly, got about {float(total)!r} "
        f"(exact value over {MAX_DIGITS} digits)"
    )


@pytest.mark.parametrize(
    "q, shown",
    [
        (Fraction(10**4299), str(10**4299)),
        (Fraction(1, 10**4299), f"1/{10**4299}"),
        (Fraction(-(10**4299), 7), f"-{10**4299}/7"),
        (Fraction(10**4300 - 1), "9" * 4300),
        (Fraction(10**4300), f"a value over {MAX_DIGITS} digits long"),
        (Fraction(1, 10**4300), f"about 0.0 (exact value over {MAX_DIGITS} digits)"),
    ],
    ids=["long-int", "long-denominator", "negative", "longest", "overflow", "tiny"],
)
def test_show_fraction_stays_within_the_digit_limit(q, shown):
    assert show_fraction(q) == shown


def test_out_of_range_values_too_long_to_show_are_structlab_errors():
    with pytest.raises(StructLabError, match="lie in .0, 1., got a value over 4300 digits"):
        ProbModel(1, {"0": Fraction(10**4400), "1": 0})
    with pytest.raises(StructLabError, match="in .0, 1., got a value over 4300 digits"):
        probability_level(Fraction(10**4400))


def test_pmf_drops_explicit_zeros():
    with_zero = ProbModel(2, {"00": 1, "01": 0})
    without = ProbModel(2, {"00": 1})
    assert with_zero == without
    assert with_zero.support() == (B("00"),)
    assert with_zero.probability("01") == 0
    assert with_zero.probability("10") == 0


def test_pmf_lookup_and_order():
    m = ProbModel(2, {"10": Fraction(1, 4), "00": Fraction(3, 4)})
    assert m.probability(B("00")) == Fraction(3, 4)
    assert m.items() == ((B("00"), Fraction(3, 4)), (B("10"), Fraction(1, 4)))
    assert m.probability("0") == 0  # wrong length reads as outside the support


def test_fn_requires_total_lengths():
    with pytest.raises(StructLabError, match="covers 1 of 2"):
        TotalFnModel(1, {"0": "00"})
    with pytest.raises(StructLabError, match="not covered by the table"):
        TotalFnModel(2, {"0": "00", "1": "01"})
    with pytest.raises(StructLabError, match="longer than the declared"):
        TotalFnModel(0, {"00": "0"})
    with pytest.raises(StructLabError, match="at least one argument length"):
        TotalFnModel(0, {})
    with pytest.raises(StructLabError, match="argument length must be"):
        TotalFnModel(-1, {"": "0"})


def test_fn_lookup_image_and_lengths():
    p = TotalFnModel(1, {"": "11", "0": "00", "1": "00"})
    assert p.value("0") == B("00")
    assert p.image(0) == (B("11"),)
    assert p.image(1) == (B("00"),)
    assert p.data_length("00") == 1
    assert p.data_length("11") == 0
    assert p.data_length("01") is None
    with pytest.raises(StructLabError, match="not in the table"):
        p.value("00")
    with pytest.raises(StructLabError, match="not covered"):
        p.image(2)


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


def test_expand_pair_to_uniform_pmf():
    s = FiniteSet(2, ["00", "01"])
    m = expand_set(s, "pmf")
    assert m.items() == (
        (B("00"), Fraction(1, 2)),
        (B("01"), Fraction(1, 2)),
    )
    assert sum(q for _, q in m.items()) == 1


def test_expand_singleton():
    s = FiniteSet(3, ["101"])
    m = expand_set(s, "pmf")
    assert m.probability("101") == 1
    p = expand_set(s, "fn")
    assert p.arg_len == 0
    assert p.value("") == B("101")
    assert p.data_length("101") == 0


def test_expand_three_element_index_table():
    # Sorted members a=00, b=01, c=10 at the two-bit argument length: the
    # integer reading of the arguments (00 -> 3, 01 -> 4, 10 -> 5, 11 -> 6)
    # walks the members cyclically, wrapping once.
    s = FiniteSet(2, ["00", "01", "10"])
    p = expand_set(s, "fn")
    assert p.arg_len == 2
    assert p.items() == (
        (B("00"), B("00")),
        (B("01"), B("01")),
        (B("10"), B("10")),
        (B("11"), B("00")),
    )
    assert p.data_length("00") == 2
    assert p.data_length("01") == 2


def test_expand_member_cost_is_ceil_log_card():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        s = random_set(rng, n)
        p = expand_set(s, "fn")
        assert p.arg_len == s.ceil_log_card
        for b in s:
            assert p.data_length(b) == s.ceil_log_card
        assert set(p.image(p.arg_len)) == set(s)


def test_expand_rejects_bad_input():
    with pytest.raises(StructLabError, match="empty set"):
        expand_set(FiniteSet(2, []), "pmf")
    with pytest.raises(StructLabError, match="target"):
        expand_set(FiniteSet(2, ["00"]), "cdf")


# ---------------------------------------------------------------------------
# probability levels and restrictions
# ---------------------------------------------------------------------------


def test_probability_level_reference_values():
    assert probability_level(1) == 0
    assert probability_level(Fraction(1, 2)) == 1
    assert probability_level(Fraction(2, 3)) == 0
    assert probability_level(Fraction(1, 3)) == 1
    assert probability_level(Fraction(3, 8)) == 1
    assert probability_level(Fraction(1, 8)) == 3
    with pytest.raises(StructLabError, match="in \\(0, 1\\]"):
        probability_level(0)


def test_probability_level_brackets_exactly():
    rng = random.Random(11)
    for _ in range(200):
        den = rng.randint(1, 10_000)
        num = rng.randint(1, den)
        q = Fraction(num, den)
        m = probability_level(q)
        assert pow2(-m - 1) < q <= pow2(-m)


def test_restrict_pmf_one_third():
    # A flat three-point pmf: each point sits in the level-1 band
    # (1/4 < 1/3 <= 1/2), so the threshold 1/4 keeps all three points and
    # the certificate reads 3 < 4 <= 6.
    m = ProbModel(2, {v: Fraction(1, 3) for v in ("00", "01", "10")})
    r = restrict_to_set(m, "00")
    assert isinstance(r, PmfRestriction)
    assert r.m == 1
    assert r.threshold == Fraction(1, 4)
    assert r.set == FiniteSet(2, ["00", "01", "10"])
    assert r.cardinality == 3
    assert r.cardinality_bound == 4
    assert r.probability_bound == 6
    assert r.holds


def test_restrict_uniform_power_of_two_is_identity():
    for values in (["00", "01", "10", "11"], ["00", "11"]):
        t = FiniteSet(2, values)
        m = expand_set(t, "pmf")
        for b in t:
            assert restrict_to_set(m, b).set == t
    t = FiniteSet(3, ["000", "011", "101", "110"])
    m = expand_set(t, "pmf")
    assert restrict_to_set(m, "011").set == t


def test_restrict_pmf_drops_the_unlikely():
    m = ProbModel(2, {"00": Fraction(3, 4), "01": Fraction(1, 8), "10": Fraction(1, 8)})
    r = restrict_to_set(m, "00")
    # P(00) = 3/4 sits in the level-0 band; the threshold 1/4 drops both
    # eighth-weight strings.
    assert r.m == 0
    assert r.set == FiniteSet(2, ["00"])
    assert r.holds
    r = restrict_to_set(m, "01")
    assert r.m == 3
    assert r.set == FiniteSet(2, ["00", "01", "10"])
    assert r.holds


def test_restrict_pmf_certificate_on_random_models():
    for seed in range(120):
        m = random_pmf(seed)
        for x in m.support():
            r = restrict_to_set(m, x)
            p = m.probability(x)
            assert x in r.set
            assert r.cardinality < r.cardinality_bound
            assert r.cardinality_bound <= 2 / p
            # the set is exactly the strings above the threshold
            for y in m.support():
                assert (y in r.set) == (m.probability(y) > r.threshold)
            assert r.holds


def test_restrict_pmf_rejects_zero_probability():
    m = ProbModel(2, {"00": 1})
    with pytest.raises(StructLabError, match="probability 0"):
        restrict_to_set(m, "01")
    with pytest.raises(StructLabError, match="does not match the support length"):
        restrict_to_set(m, "0")


def test_restrict_fn_recovers_expanded_sets_exhaustively():
    # Every nonempty subset of a small universe survives the round trip;
    # the power-of-two cardinalities make the index table a bijection, and
    # the rest still cover every member at the single argument length.
    for n in (1, 2, 3):
        for mask in range(1, 1 << (1 << n)):
            values = [v for v in range(1 << n) if mask & (1 << v)]
            s = FiniteSet(n, values)
            p = expand_set(s, "fn")
            for b in s:
                r = restrict_to_set(p, b)
                assert isinstance(r, FnRestriction)
                assert r.set == s
                assert r.data_length == s.ceil_log_card
                assert r.holds


def test_restrict_fn_round_trip_spot_checks():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(4, 8)
        size = 1 << rng.randint(0, n)
        s = random_set(rng, n, size)
        p = expand_set(s, "fn")
        x = rng.choice(tuple(s))
        assert restrict_to_set(p, x).set == s


def test_restrict_fn_uses_shortest_printing_length():
    p = TotalFnModel(1, {"": "11", "0": "00", "1": "11"})
    r = restrict_to_set(p, "11")
    assert r.data_length == 0
    assert r.set == FiniteSet(2, ["11"])
    assert r.ceil_log_card == 0
    r = restrict_to_set(p, "00")
    assert r.data_length == 1
    assert r.set == FiniteSet(2, ["00", "11"])
    assert r.holds


def test_restrict_fn_rejects_missing_and_mixed():
    p = TotalFnModel(1, {"": "11", "0": "00", "1": "11"})
    with pytest.raises(StructLabError, match="not in the image"):
        restrict_to_set(p, "01")
    mixed = TotalFnModel(1, {"": "1", "0": "0", "1": "00"})
    with pytest.raises(StructLabError, match="mixes output lengths"):
        restrict_to_set(mixed, "00")
    with pytest.raises(StructLabError, match="cannot restrict a"):
        restrict_to_set(FiniteSet(2, ["00"]), "00")


def test_restriction_reports_serialize():
    m = ProbModel(2, {v: Fraction(1, 3) for v in ("00", "01", "10")})
    d = json.loads(encode(restrict_to_set(m, "00")))
    assert d["m"] == 1
    assert d["probability"] == "1/3"
    assert d["members"] == ["00", "01", "10"]
    assert d["holds"] is True
    p = expand_set(FiniteSet(2, ["00", "01"]), "fn")
    d = json.loads(encode(restrict_to_set(p, "01")))
    assert d["data_length"] == 1
    assert d["ceil_log_card"] == 1
    assert d["holds"] is True


# ---------------------------------------------------------------------------
# deficiencies
# ---------------------------------------------------------------------------


def test_pmf_deficiency_matches_set_deficiency_on_expansions():
    # The uniform pmf on S prices members at exactly log2 |S|, and its
    # default conditional code is the ceil(log2 |S|)-bit index -- the same
    # arithmetic as the set's deficiency with no shortcuts.
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 5)
        s = random_set(rng, n)
        m = expand_set(s, "pmf")
        for b in s:
            expected = Fraction(s.cardinality, 1 << s.ceil_log_card)
            assert pmf_deficiency_key(m, b) == expected


def test_pmf_deficiency_key_and_shortcuts():
    m = expand_set(FiniteSet(2, ["00", "01", "10", "11"]), "pmf")
    assert pmf_deficiency_key(m, "00") == 1
    # a one-bit shortcut for 00 makes it atypically simple
    assert pmf_deficiency_key(m, "00", {"00": "1"}) == 2
    assert pmf_deficiency_key(m, "01", {"00": "1"}) == 1
    assert pmf_deficiency_key(m, "00", None) == 1
    assert pmf_deficiency_key(ProbModel(2, {"00": 1}), "01") is None
    with pytest.raises(StructLabError, match="prefix"):
        pmf_deficiency_key(m, "00", {"00": "1", "01": "11"})


def test_fn_deficiency():
    p = expand_set(FiniteSet(2, ["00", "01", "10"]), "fn")
    assert fn_deficiency(p, "00") == 0
    assert fn_deficiency(p, "00", {"00": "0"}) == 1
    assert fn_deficiency(p, "11") == math.inf


# ---------------------------------------------------------------------------
# likelihood curves
# ---------------------------------------------------------------------------


def test_codebook_validation():
    m = ProbModel(1, {"0": 1})
    with pytest.raises(StructLabError, match="at least one program"):
        PmfCodebook({})
    with pytest.raises(StructLabError, match="does not map to a probability model"):
        PmfCodebook({"0": FiniteSet(1, ["0"])})
    with pytest.raises(StructLabError, match="share one support length"):
        PmfCodebook({"0": m, "1": ProbModel(2, {"00": 1})})
    with pytest.raises(StructLabError, match="prefix"):
        PmfCodebook({"0": m, "00": m})


def test_codebook_complexity_is_shortest_name():
    m = ProbModel(1, {"0": 1})
    other = ProbModel(1, {"1": 1})
    book = PmfCodebook({"00": m, "1": m, "01": other})
    assert book.complexity(m) == 1
    assert book.complexity(other) == 2
    assert book.complexity(ProbModel(1, {"0": Fraction(1, 2), "1": Fraction(1, 2)})) == math.inf
    assert len(book) == 3
    assert book.max_program_length() == 2


def test_likelihood_curve_on_fixture_sets(fixa):
    book = pmf_codebook_from_sets(fixa)
    curve = likelihood_curve(book, "00")
    assert [row.probability for row in curve.rows] == [
        None,
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 1),
    ]
    assert [row.witness for row in curve.rows] == [None, B("0"), B("10"), B("110")]
    assert [row.value for row in curve.rows] == [math.inf, 2.0, 1.0, 0.0]


def test_likelihood_row_zero_versus_none():
    # 11 is in no named set: programs are affordable from alpha=1 on, but
    # every affordable model gives it probability 0, so there is no
    # maximum-likelihood witness and the value stays infinite.
    book = PmfCodebook(
        {
            "0": expand_set(FiniteSet(2, ["00", "01"]), "pmf"),
            "1": expand_set(FiniteSet(2, ["00"]), "pmf"),
        }
    )
    curve = likelihood_curve(book, "11")
    assert curve.rows[0].probability is None
    assert curve.rows[1].probability == 0
    assert curve.rows[1].witness is None
    assert [row.value for row in curve.rows] == [math.inf, math.inf]


def test_likelihood_curve_validation(fixa):
    book = pmf_codebook_from_sets(fixa)
    with pytest.raises(StructLabError, match="support length"):
        likelihood_curve(book, "000")
    with pytest.raises(StructLabError, match="alpha_max"):
        likelihood_curve(book, "00", alpha_max=-1)


def test_likelihood_curve_equals_size_curve_everywhere():
    # The most probable affordable uniform model is the smallest affordable
    # set, so the curve value is exactly log2 of the size curve's key.
    for seed in range(20):
        sys = random_system(seed)
        book = pmf_codebook_from_sets(sys)
        for x in sys.universe_strings():
            prof = profile(sys, x)
            curve = likelihood_curve(book, x, alpha_max=prof.alpha_max)
            for alpha in range(prof.alpha_max + 1):
                row = curve.rows[alpha]
                h_key = prof.h_key(alpha)
                if h_key is None:
                    assert row.value == math.inf
                else:
                    assert row.probability == Fraction(1, h_key)
                    assert row.value == log2_display(h_key)
                    # within one bit of the integer-size reading
                    ceil_h = (h_key - 1).bit_length()
                    assert 0 <= ceil_h - row.value < 1


def test_likelihood_values_non_increasing():
    for seed in range(8):
        sys = random_system(seed)
        book = pmf_codebook_from_sets(sys)
        for x in sys.universe_strings():
            values = [row.value for row in likelihood_curve(book, x).rows]
            assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

PMF_TEXT = "00\t1/2\n01\t1/4\n10\t1/4\n"
FN_TEXT = ".\t11\n0\t00\n1\t11\n"


def test_pmf_fixture_round_trip():
    m = parse_pmf(PMF_TEXT)
    assert m == ProbModel(
        2, {"00": Fraction(1, 2), "01": Fraction(1, 4), "10": Fraction(1, 4)}
    )
    assert format_pmf(m) == PMF_TEXT
    assert parse_pmf(format_pmf(m)) == m


def test_pmf_fixture_grammar():
    m = parse_pmf("# weights\n\n1\t2/3\n0\t1/3\n")
    assert m.probability("1") == Fraction(2, 3)
    with pytest.raises(FixtureError, match="names no strings"):
        parse_pmf("# nothing\n")
    with pytest.raises(FixtureError, match="expected 'string probability'"):
        parse_pmf("00\n")
    with pytest.raises(FixtureError, match="malformed string"):
        parse_pmf("0x\t1\n")
    with pytest.raises(FixtureError, match="malformed probability"):
        parse_pmf("00\t1/0\n")
    with pytest.raises(FixtureError, match="repeated string"):
        parse_pmf("0\t1/2\n0\t1/2\n")
    with pytest.raises(StructLabError, match="sum to 1"):
        parse_pmf("00\t1/2\n")


def test_fn_fixture_round_trip():
    p = parse_fn(FN_TEXT)
    assert p == TotalFnModel(1, {"": "11", "0": "00", "1": "11"})
    assert format_fn(p) == FN_TEXT
    assert parse_fn(format_fn(p)) == p
    # an empty-string output formats as the placeholder too
    q = TotalFnModel(0, {"": ""})
    assert format_fn(q) == ".\t.\n"
    assert parse_fn(format_fn(q)) == q


def test_fn_fixture_grammar():
    with pytest.raises(FixtureError, match="names no entries"):
        parse_fn("")
    with pytest.raises(FixtureError, match="expected 'argument value'"):
        parse_fn("0\t0\t0\n")
    with pytest.raises(FixtureError, match="malformed argument"):
        parse_fn("2\t0\n")
    with pytest.raises(FixtureError, match="malformed value"):
        parse_fn("0\tx\n")
    with pytest.raises(FixtureError, match="repeated argument"):
        parse_fn("0\t1\n0\t1\n")
    with pytest.raises(StructLabError, match="covers 1 of 2"):
        parse_fn("0\t1\n")


def test_expanded_models_survive_their_fixtures():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(1, 5)
        s = random_set(rng, n)
        m = expand_set(s, "pmf")
        assert parse_pmf(format_pmf(m)) == m
        p = expand_set(s, "fn")
        assert parse_fn(format_fn(p)) == p
