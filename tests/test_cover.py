"""On-line cover families: the threshold construction and its budget."""

import json
import random
from fractions import Fraction

import pytest

from structlab.artifacts import encode
from structlab.descsys import FiniteSet
from structlab.errors import StructLabError
from structlab.synth import CoverRecord, cover_family


def rec(width, members, k=3, cond=2):
    return CoverRecord(FiniteSet(width, members), k, cond)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_no_records_rejected():
    with pytest.raises(StructLabError, match="no cover records"):
        cover_family([], "00")


def test_heterogeneous_complexity_rejected():
    records = [rec(2, [0, 1], k=3), rec(2, [0, 2], k=4)]
    with pytest.raises(StructLabError, match="heterogeneous"):
        cover_family(records, "00")


def test_heterogeneous_cardinality_class_rejected():
    records = [rec(3, [0, 1]), rec(3, [0, 1, 2])]
    with pytest.raises(StructLabError, match="heterogeneous"):
        cover_family(records, "000")


def test_heterogeneous_conditional_rejected():
    records = [rec(2, [0, 1], cond=1), rec(2, [0, 2], cond=2)]
    with pytest.raises(StructLabError, match="heterogeneous"):
        cover_family(records, "00")


@pytest.mark.parametrize("k, cond", [(-5, -9), (-1, 2), (3, -1)])
def test_negative_claimed_complexities_rejected(k, cond):
    message = r"cover record 1: claimed complexities must be nonnegative"
    with pytest.raises(StructLabError, match=message):
        cover_family([rec(2, [0, 1]), rec(2, [0, 2], k=k, cond=cond)], "00")
    with pytest.raises(StructLabError, match=message):
        cover_family([rec(2, [0, 1]), (FiniteSet(2, [0, 2]), k, cond)], "00")


def test_x_in_no_record_rejected():
    with pytest.raises(StructLabError, match="no record contains"):
        cover_family([rec(2, [0, 1])], "11")


# ---------------------------------------------------------------------------
# hand-traced runs
# ---------------------------------------------------------------------------


def test_two_distinct_records_cover_at_unit_threshold():
    # t = 2**(2-2) = 1: everything seen is eligible, the chop fires the
    # moment any element is claimed twice
    records = [rec(2, [0, 1], cond=2), rec(2, [0, 2], cond=2)]
    report = cover_family(records, "00", delta=2)
    assert report.threshold == 1
    assert report.chop_count == 1
    assert report.blocks == (FiniteSet(2, [0, 1]), FiniteSet(2, [2]))
    assert report.covered and report.multiplicity_of_x == 2
    assert report.block_capacity == 2
    assert report.block_budget_ok


def test_duplicate_records_count_once():
    # multiplicity counts distinct sets: the same set twice is one claim,
    # so nothing ever reaches the doubled threshold
    records = [rec(2, [0, 1]), rec(2, [0, 1])]
    report = cover_family(records, "00", delta=2)
    assert report.records_seen == 2 and report.distinct_records == 1
    assert report.multiplicity_of_x == 1
    assert not report.covered and report.blocks == ()


@pytest.mark.parametrize("a", [1, 2, 3])
def test_doubled_family_covers_x(a):
    # threshold t = 2**a; 2**(a+1) distinct two-element sets through x
    # reach exactly 2t and fire a chop that covers x alone
    width = 6
    records = [rec(width, [0, filler], cond=a) for filler in range(1, 2 ** (a + 1) + 1)]
    report = cover_family(records, 0, delta=0)
    assert report.threshold == 2**a
    assert report.covered
    assert report.chop_count == 1
    assert report.blocks == (FiniteSet(width, [0]),)
    assert report.multiplicity_of_x == 2 ** (a + 1)
    assert report.block_budget_ok


@pytest.mark.parametrize("a", [1, 2, 3])
def test_half_family_does_not_fire(a):
    records = [rec(6, [0, filler], cond=a) for filler in range(1, 2**a + 1)]
    report = cover_family(records, 0, delta=0)
    assert report.multiplicity_of_x == 2**a  # only t, not 2t
    assert not report.covered and report.blocks == ()


def test_disjoint_records_leave_x_uncovered():
    records = [rec(3, [0, 1], cond=1), rec(3, [2, 3], cond=1), rec(3, [4, 5], cond=1)]
    report = cover_family(records, "000", delta=0)
    assert report.threshold == 2
    assert report.multiplicity_of_x == 1
    assert not report.covered
    assert report.blocks == ()


def test_default_delta_from_anchor_total():
    # anchor claims complexity 3 over a 4-element set: total 5 bits, so
    # the default slack is ceil(log2 5) + 1 = 4
    records = [rec(3, [0, 1, 2, 3], k=3, cond=4)]
    report = cover_family(records, "000")
    assert report.delta == 4
    assert report.threshold == Fraction(1)


def test_subunit_threshold():
    records = [rec(2, [0, 1], cond=0), rec(2, [0, 2], cond=0)]
    report = cover_family(records, "00", delta=1)
    assert report.threshold == Fraction(1, 2)
    # 2t = 1: the very first record fires a chop over everything seen
    assert report.chop_count >= 1
    assert report.covered


@pytest.mark.parametrize(
    "cond, delta, exponent",
    [(2, -100000, 100002), (2, 1000000, -999998), (10**6, 1, 999999), (2, -63, 65), (2, 67, -65)],
)
def test_threshold_exponent_out_of_range_rejected(cond, delta, exponent):
    records = [rec(2, [0, 1], cond=cond), rec(2, [0, 2], cond=cond)]
    with pytest.raises(StructLabError, match=f"got {exponent}"):
        cover_family(records, "00", delta=delta)


@pytest.mark.parametrize("delta", [-62, 66])
def test_threshold_exponent_range_is_inclusive(delta):
    records = [rec(2, [0, 1], cond=2), rec(2, [0, 2], cond=2)]
    report = cover_family(records, "00", delta=delta)
    assert report.threshold == Fraction(2) ** (2 - delta)
    assert report.block_budget_ok


def test_report_json_serializable():
    records = [rec(2, [0, 1], cond=2), rec(2, [0, 2], cond=2)]
    report = json.loads(encode(cover_family(records, "00", delta=2)))
    assert report["covered"] is True
    assert report["x"] == "00" and report["threshold"] == "1"
    assert report["blocks"] == [["00", "01"], ["10"]]


# ---------------------------------------------------------------------------
# adversarial randomized runs
# ---------------------------------------------------------------------------


def random_records(rng):
    width = rng.randint(3, 6)
    log_card = rng.randint(1, 3)
    lo, hi = (1 << (log_card - 1)) + 1, 1 << log_card
    if log_card == 1:
        lo = 2
    cond = rng.randint(0, 4)
    k = rng.randint(0, 5)
    x = rng.randrange(1 << width)
    records = []
    for _ in range(rng.randint(1, 40)):
        card = rng.randint(lo, hi)
        members = set(rng.sample(range(1 << width), card))
        if rng.random() < 0.6:
            members.pop()
            members.add(x)
        while len(members) < card:
            members.add(rng.randrange(1 << width))
        records.append(CoverRecord(FiniteSet(width, members), k, cond))
    return records, x, cond


def test_randomized_guarantee_and_budget():
    checked_covered = 0
    for seed in range(300):
        rng = random.Random(seed)
        records, x, cond = random_records(rng)
        if not any(x in r.set for r in records):
            continue
        delta = rng.choice([None, 0, 1, 2, 3])
        report = cover_family(records, x, delta=delta)

        assert report.block_budget_ok
        assert all(s.cardinality <= report.block_capacity for s in report.blocks)
        seen = set()
        for s in report.blocks:
            assert not (set(s.values) & seen)  # blocks are pairwise disjoint
            seen.update(s.values)
        if report.multiplicity_of_x >= 2 * report.threshold:
            assert report.covered
            checked_covered += 1
    assert checked_covered > 50
