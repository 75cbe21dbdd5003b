"""Enumeration indexes, half-blocks, and curve reconstruction."""

import gc
import random
import time
import weakref
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlab.artifacts import encode
from structlab.codec import BitString
from structlab.descsys import FiniteSet, build_system
from structlab.errors import FixtureError, RefusalError, StructLabError
from structlab.experiments import build_report_family_systems
from structlab.structfn import profile
from structlab.unistat import (
    EnumeratedD,
    build_index,
    build_Sli,
    format_enumerated,
    induced_data_D,
    induced_Dk,
    muchnik_lambda,
    parse_enumerated,
    reconstruct_from_prefix,
    sli_dominance_report,
    universal_family_report,
)

from .gensys import random_system
from .oracles import (
    oracle_c_sub,
    oracle_half_block,
    oracle_index,
    oracle_induced_pairs,
    oracle_section,
    oracle_sli_dominance_records,
    oracle_universal_family_rows,
)

B = BitString


def thirteen_pairs() -> EnumeratedD:
    """Thirteen distinct 4-bit strings, one pair each, all at level 1."""
    return EnumeratedD((B.from_value(4, v), 1) for v in range(13))


# ---------------------------------------------------------------------------
# enumerations
# ---------------------------------------------------------------------------


def test_enumeration_basics():
    d = thirteen_pairs()
    assert d.N_l == 13
    assert d.width == 4
    assert d.l == 1
    assert d.is_injective()
    assert len(d.objects()) == 13


def test_enumeration_rejects_repeated_pairs():
    with pytest.raises(StructLabError, match="repeated"):
        EnumeratedD([("00", 1), ("00", 1)])


def test_enumeration_rejects_bad_levels():
    with pytest.raises(StructLabError, match="nonnegative"):
        EnumeratedD([("00", -1)])
    with pytest.raises(StructLabError, match="below a pair level"):
        EnumeratedD([("00", 3)], l=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sys: induced_Dk(sys, -1), "complexity budget must be nonnegative, got -1"),
        (lambda sys: reconstruct_from_prefix(induced_data_D(sys), -1),
         "complexity level must be nonnegative, got -1"),
    ],
    ids=["induced_Dk", "reconstruct_from_prefix"],
)
def test_negative_levels_are_refused(fixa, call, message):
    with pytest.raises(StructLabError) as exc:
        call(fixa)
    assert type(exc.value) is StructLabError and str(exc.value) == message


def test_section_filters_and_reindexes():
    d = EnumeratedD([("00", 2), ("01", 1), ("10", 2)])
    sec = d.section(1)
    assert sec.N_l == 1
    assert sec.order == ((B("01"), 1),)
    assert sec.l == 1


# ---------------------------------------------------------------------------
# index records
# ---------------------------------------------------------------------------


def test_index_of_first_object_is_zero():
    d = thirteen_pairs()
    rec = build_index(d, B.from_value(4, 0))
    assert rec.I == 0


def test_index_nine_of_thirteen():
    # count 13 = 1101, index 9 = 1001: they share exactly the leading bit
    d = thirteen_pairs()
    rec = build_index(d, B.from_value(4, 9))
    assert rec.I == 9
    assert rec.m == B("1")
    assert rec.m_len == 1


def test_index_of_absent_object_is_flagged():
    d = thirteen_pairs()
    rec = build_index(d, B.from_value(4, 15))
    assert rec.I is None
    assert rec.m is None
    assert rec.m_len is None


def test_index_counts_pairs_not_objects():
    d = EnumeratedD([("00", 1), ("00", 2), ("01", 2)])
    assert build_index(d, "01").I == 2
    assert build_index(d, "00").I == 0


# ---------------------------------------------------------------------------
# half-blocks
# ---------------------------------------------------------------------------


def test_half_block_at_level_zero():
    d = thirteen_pairs()
    blk = build_Sli(d, 0)
    assert blk.cardinality == 8 == 1 << (d.width - 0 - 1)
    assert blk.members == tuple(B.from_value(4, v) for v in range(8))
    assert (blk.lo, blk.hi) == (0, 7)


def test_half_block_at_level_one():
    d = thirteen_pairs()
    blk = build_Sli(d, 1)
    assert blk.cardinality == 4
    assert blk.members == tuple(B.from_value(4, v) for v in range(8, 12))
    assert blk.prefix == B("1")


def test_half_block_refuses_on_zero_bit():
    # 13 = 1101: bit 2 is the zero
    with pytest.raises(RefusalError, match="not full"):
        build_Sli(thirteen_pairs(), 2)


def test_half_block_at_last_level():
    d = thirteen_pairs()
    blk = build_Sli(d, 3)
    assert blk.members == (B.from_value(4, 12),)


def test_half_block_level_out_of_range():
    with pytest.raises(StructLabError, match="half-block level"):
        build_Sli(thirteen_pairs(), 4)
    with pytest.raises(StructLabError, match="half-block level"):
        build_Sli(thirteen_pairs(), -1)


def test_half_block_membership_reads_strings(fixa):
    blk = build_Sli(induced_data_D(fixa), 0)
    assert "00" in blk and B("00") in blk
    blk = build_Sli(thirteen_pairs(), 0)
    assert "0111" in blk and B("0111") in blk
    # non-members, malformed strings and unhashable objects are all just absent
    for obj in ("1100", "011", "0x", "", 7, None, [0], B("1100")):
        assert obj not in blk


def test_half_block_cardinality_exact_on_shuffled_enumerations():
    for seed in range(40):
        rng = random.Random(seed)
        count = rng.randint(1, 200)
        values = rng.sample(range(256), count)
        d = EnumeratedD((B.from_value(8, v), rng.randint(0, 3)) for v in values)
        bits = format(d.N_l, "b")
        for i in range(d.width):
            if bits[i] == "1":
                blk = build_Sli(d, i)
                assert blk.cardinality == 1 << (d.width - i - 1)
            else:
                with pytest.raises(RefusalError):
                    build_Sli(d, i)


# ---------------------------------------------------------------------------
# induced enumerations
# ---------------------------------------------------------------------------


def test_induced_data_enumeration_reference(fixa):
    d = induced_data_D(fixa)
    assert d.order == (
        (B("00"), 1),
        (B("01"), 2),
        (B("10"), 3),
        (B("11"), 3),
    )
    assert d.is_injective()
    assert d.section(2).N_l == 2


def test_induced_rounds_reference(fixa):
    d = induced_Dk(fixa, 2)
    cube = FiniteSet(2, range(4))
    pair = FiniteSet(2, [0, 1])
    assert d.order == (
        (cube, 1),
        (B("00"), 1),
        (cube, 2),
        (pair, 2),
        (B("00"), 2),
        (B("01"), 2),
    )
    assert not d.is_injective()


def test_induced_enumeration_is_built_once_per_live_system():
    sys = random_system(3, n=4)
    d = induced_data_D(sys)
    assert induced_data_D(sys) is d
    assert induced_data_D(random_system(3, n=4)) is not d
    gone = weakref.ref(d)
    del sys, d
    gc.collect()
    assert gone() is None


def _assert_induced_matches_oracle(sys) -> None:
    d = induced_data_D(sys)
    want = EnumeratedD(oracle_induced_pairs(sys))
    assert d == want
    assert d._first == want._first
    assert list(d._distinct) == list(want._distinct)
    assert d.is_injective() and d.N_l == sys.universe_size()


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(0, 6), st.booleans())
def test_induced_enumeration_matches_the_sorted_rows(seed, extra_data, cheap_singletons):
    sys = random_system(seed, extra_data=extra_data, cheap_singletons=cheap_singletons)
    if extra_data and not cheap_singletons:  # some string has two data programs
        assert len(sys.data_programs) > sys.universe_size()
    _assert_induced_matches_oracle(sys)


def test_induced_enumeration_takes_each_string_at_its_shortest_program():
    # 11 is printed by 0 and by 111; it is listed once, at level 1
    sys = build_system("data 0 11\ndata 100 00\ndata 101 01\ndata 110 10\ndata 111 11\n")
    _assert_induced_matches_oracle(sys)
    assert induced_data_D(sys).order == ((B("11"), 1), (B("00"), 3), (B("01"), 3), (B("10"), 3))
    for system in build_report_family_systems().values():
        _assert_induced_matches_oracle(system)


# ---------------------------------------------------------------------------
# fast paths against reference scans
# ---------------------------------------------------------------------------


def assert_matches_scans(d: EnumeratedD, probes) -> None:
    """Sections, indexes and half-blocks of ``d`` equal the oracle scans.

    Checks every level up to one past ``d.l``, every probe object at each
    level, and every prefix length of each section's count.
    """
    for l in range(d.l + 2):
        sec = d.section(l)
        assert sec.order == oracle_section(d.order, l)
        assert sec.objects() == tuple(dict.fromkeys(o for o, _ in sec.order))
        assert sec == EnumeratedD(sec.order, l=l)
        for x in probes:
            rec = build_index(sec, x)
            index, m = oracle_index(sec.order, x)
            assert (rec.I, rec.m) == (index, None if m is None else B(m))
        for i in range(sec.width):
            ref = oracle_half_block(sec.order, i)
            if ref is None:
                with pytest.raises(RefusalError):
                    build_Sli(sec, i)
                continue
            blk = build_Sli(sec, i)
            # size and membership come from the index range, before members
            assert blk.cardinality == len(ref[2])
            assert [x in blk for x in probes] == [x in ref[2] for x in probes]
            assert (blk.lo, blk.hi, blk.members) == ref


def _probes(d: EnumeratedD, limit: int = 64) -> list:
    objects = d.objects()
    stride = max(1, len(objects) // limit)
    return list(objects[::stride]) + [objects[-1], B("1" * 17)]


@pytest.mark.parametrize("name", ["cylinders-6", "hamming-12", "patches-8"])
def test_battery_enumerations_match_scans(name):
    sys = build_report_family_systems()[name]
    d = induced_data_D(sys)
    assert_matches_scans(d, _probes(d))


def test_fixture_enumerations_match_scans(fixa):
    for d in (induced_data_D(fixa), induced_Dk(fixa, 3)):
        assert_matches_scans(d, list(d.objects()) + [B("0")])


@pytest.mark.parametrize("sort_levels", [False, True])
def test_random_enumerations_match_scans(sort_levels):
    """Injective (even seeds) and repeating (odd seeds) random enumerations."""
    for seed in range(30):
        rng = random.Random(seed)
        count = rng.randint(1, 32 if seed % 2 == 0 else 120)
        if seed % 2 == 0:
            values = rng.sample(range(32), count)
        else:
            values = [rng.randrange(32) for _ in range(count)]
        top = rng.randint(0, 5)
        pairs = sorted({(v, rng.randint(0, top)) for v in values}, key=lambda p: p[1])
        if not sort_levels:
            rng.shuffle(pairs)
        d = EnumeratedD((B.from_value(5, v), level) for v, level in pairs)
        probes = [B.from_value(5, v) for v in range(32)] + [B("0000")]
        assert_matches_scans(d, probes)


# ---------------------------------------------------------------------------
# counting reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_reference(fixa):
    d = induced_data_D(fixa)
    assert reconstruct_from_prefix(d, 0).objects == ()
    assert set(reconstruct_from_prefix(d, 1).objects) == {B("00")}
    assert set(reconstruct_from_prefix(d, 2).objects) == {B("00"), B("01")}
    assert set(reconstruct_from_prefix(d, 3).objects) == set(d.objects())


def test_reconstruction_requires_one_pair_per_object(fixa):
    with pytest.raises(StructLabError, match="each object once"):
        reconstruct_from_prefix(induced_Dk(fixa, 2), 1)


def test_reconstruction_exact_on_random_systems():
    for seed in range(60):
        sys = random_system(seed)
        d = induced_data_D(sys)
        for i in range(d.l + 1):
            want = {o for o, j in d.order if j <= i}
            got = reconstruct_from_prefix(d, i)
            assert set(got.objects) == want
            assert got.cutoff_count <= d.N_l


# ---------------------------------------------------------------------------
# curve reconstruction from a truncated enumeration
# ---------------------------------------------------------------------------


def test_curve_reconstruction_reference(fixa):
    curve = muchnik_lambda(induced_Dk(fixa, 3), "00", 3, 3)
    assert curve.values == (None, 3, 3, 3)
    assert curve.cutoff == 1  # stops at the first data pair carrying 00
    prof = profile(fixa, "00")
    rebuilt = [
        None if row is None else row.K_S + row.set.ceil_log_card
        for row in prof.lambda_rows
    ]
    assert list(curve.values) == rebuilt


def test_curve_reconstruction_for_late_string(fixa):
    curve = muchnik_lambda(induced_Dk(fixa, 3), "10", 3, 3)
    assert curve.values == (None, 3, 3, 3)
    assert curve.cutoff == 11  # 10 only shows up in the last round


def test_curve_clamps_past_the_plateau(fixa):
    curve = muchnik_lambda(induced_Dk(fixa, 4), "00", 4, 1)
    assert curve.values == (None, 3, 4, 4, 4)


def test_curve_errors(fixa):
    with pytest.raises(StructLabError, match="never appears"):
        muchnik_lambda(induced_Dk(fixa, 0), "00", 0, 0)
    with pytest.raises(StructLabError, match="plateau start"):
        muchnik_lambda(induced_Dk(fixa, 3), "00", 3, 4)
    with pytest.raises(StructLabError, match="exceeds the budget"):
        muchnik_lambda(induced_Dk(fixa, 3), "00", 2, 1)


def test_curve_refuses_a_budget_past_the_enumeration_before_any_work(fixa):
    d_k = induced_Dk(fixa, 3)
    start = time.perf_counter()
    bound = r"must be in \[0, 3\], the enumeration bound, got 1000000000"
    with pytest.raises(StructLabError, match=bound):
        muchnik_lambda(d_k, "00", 10**9, 0)
    assert time.perf_counter() - start < 1


def test_curve_matches_exact_costs_up_to_the_data_cost():
    checked = 0
    for seed in range(40):
        sys = random_system(seed, max_sets=10)
        x = B.from_value(sys.universe_n, seed % sys.universe_size())
        k_x = sys.K_data(x)
        k = k_x + 2
        curve = muchnik_lambda(induced_Dk(sys, k), x, k, k)
        entries = sys.entries_containing(x)
        for alpha in range(min(k, k_x) + 1):
            want = min(
                (e.K_S + e.set.ceil_log_card for e in entries if e.K_S <= alpha),
                default=None,
            )
            assert curve.values[alpha] == want
        finite = [v for v in curve.values if v is not None]
        assert finite == sorted(finite, reverse=True) or all(
            a >= b for a, b in zip(finite, finite[1:])
        )
        checked += 1
    assert checked == 40


# ---------------------------------------------------------------------------
# half-block dominance
# ---------------------------------------------------------------------------


def test_dominance_reference(fixa):
    report = sli_dominance_report(fixa, "00")
    assert len(report.records) == 6  # three models, two level variants each
    for rec in report.records:
        assert rec.l == 3
        assert rec.in_section
        assert rec.i == 0
        assert rec.block_cardinality == 4
        assert rec.block_lambda == 2
        assert rec.slack == -1
        assert rec.contains
    assert max(r.slack for r in report.records if r.slack is not None) == -1
    assert report.c_sub == 0


def test_dominance_slack_never_positive():
    seen = 0
    for seed in range(50):
        sys = random_system(seed)
        x = seed % sys.universe_size()
        if not sys.entries_containing(x):
            continue
        report = sli_dominance_report(sys, x)
        for rec in report.records:
            if rec.variant == "padded":
                assert rec.in_section  # padded levels always reach x
            if rec.in_section:
                assert rec.contains
                assert rec.block_cardinality == 1 << (rec.block_lambda - rec.i)
                assert rec.slack <= 0
                seen += 1
    assert seen > 100


# ---------------------------------------------------------------------------
# the half-block family against the exact profile
# ---------------------------------------------------------------------------


def test_universal_family_reference(fixa):
    report = universal_family_report(fixa, "00")
    assert report.K_x == 1
    first = report.rows[0]
    assert (first.lambda_gap, first.h_gap, first.beta_gap) == (None, None, None)
    assert first.lambda_analog == 0  # the one-string section pinpoints 00
    last = report.rows[3]
    assert last.lambda_analog == 0 and last.lambda_l == 1
    assert last.h_analog == 0 and last.h_l == 1
    assert last.lambda_gap == pytest.approx(-3.0)
    assert last.h_gap == pytest.approx(0.0)
    assert last.beta_gap == pytest.approx(-1.0)


@settings(max_examples=30)
@given(st.integers(0, 10**6), st.booleans())
def test_half_block_reports_match_the_per_level_loop(seed, cheap_singletons):
    sys = random_system(seed, cheap_singletons=cheap_singletons)
    order = induced_data_D(sys).order
    for v in sys.universe_values():
        family = universal_family_report(sys, v)
        assert [asdict(row) for row in family.rows] == oracle_universal_family_rows(
            sys, order, v
        )
        dominance = sli_dominance_report(sys, v)
        assert dominance.c_sub == oracle_c_sub(sys)
        records = {
            (r.program, r.variant): {
                k: val for k, val in asdict(r).items() if k not in ("program", "variant")
            }
            for r in dominance.records
        }
        assert len(records) == len(dominance.records)
        assert records == oracle_sli_dominance_records(sys, order, v)


def test_universal_family_rows_are_json_ready(fixa):
    report = universal_family_report(fixa, "11")
    blob = encode(report)
    assert '"alpha": 0' in blob


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def test_fixture_round_trip(fixa):
    for d in (induced_data_D(fixa), induced_Dk(fixa, 2)):
        text = format_enumerated(d)
        assert parse_enumerated(text) == d


def test_fixture_grammar():
    d = parse_enumerated(".\t0\n{00,01}\t2\n# comment\n\n11\t1\n")
    assert d.order == ((B(""), 0), (FiniteSet(2, [0, 1]), 2), (B("11"), 1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("00", "expected"),
        ("00\tx", "malformed level"),
        ("{00\t1", "unterminated"),
        ("{}\t1", "no members"),
        ("{0,00}\t1", "mixed member widths"),
        ("0x\t1", "malformed enumeration object"),
    ],
)
def test_fixture_errors(text, message):
    with pytest.raises(FixtureError, match=message):
        parse_enumerated(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\t1\n0\t1\n", "line 2: repeated enumeration pair 0 1"),
        ("# head\n{00,01}\t1\n\n{01,00}\t1\n", "line 4: repeated enumeration pair {01,00} 1"),
        ("0\t-1\n", "line 1: pair level must be nonnegative, got -1"),
    ],
)
def test_fixture_pair_errors_name_their_line(text, message):
    with pytest.raises(FixtureError) as exc:
        parse_enumerated(text)
    assert str(exc.value) == message
    # the library check stays for callers that build an enumeration directly
    with pytest.raises(StructLabError):
        EnumeratedD([(B("0"), 1), (B("0"), 1)])
