"""Curve synthesis: block replacement simulation and its exact counting."""

import json
import random

import pytest

from structlab.artifacts import encode
from structlab.codec import BitString
from structlab.descsys import FiniteSet
from structlab.errors import FixtureError, StructLabError
from structlab.synth import SynthEvent, analog_curve, parse_synth_stream, synthesize

from .oracles import oracle_synthesized_curve

B = BitString


def cube(n):
    return FiniteSet(n, range(1 << n))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_empty_target_rejected():
    with pytest.raises(StructLabError, match="empty"):
        synthesize((), cube(2), [])


def test_increasing_target_rejected():
    with pytest.raises(StructLabError, match="non-increasing"):
        synthesize((2, 3, 2), cube(3), [])


def test_target_endpoint_rejected():
    with pytest.raises(StructLabError, match="end at its domain"):
        synthesize((3, 2, 1), cube(3), [])


def test_target_start_above_n_rejected():
    with pytest.raises(StructLabError, match="exceeds"):
        synthesize((4, 2, 2), cube(4), [], n=3)


def test_small_universe_rejected():
    with pytest.raises(StructLabError, match="universe"):
        synthesize((3, 2, 2), FiniteSet(3, range(7)), [])


def test_event_level_out_of_range():
    with pytest.raises(StructLabError, match="level"):
        synthesize((3, 2, 2), cube(3), [(5, ["000"])])


def test_oversized_event_rejected():
    with pytest.raises(StructLabError, match="removes 3"):
        synthesize((3, 2, 2), cube(3), [(1, ["000", "001", "010"])])


def test_kraft_budget_enforced():
    events = [(0, ["000", "001"]), (0, ["010"])]
    with pytest.raises(StructLabError, match="Kraft"):
        synthesize((3, 2, 2), cube(3), events)


def test_event_outside_universe_rejected():
    half = FiniteSet(3, range(4))
    with pytest.raises(StructLabError, match="outside the universe"):
        synthesize((2, 1), half, [(1, ["100"])], n=2)


def test_event_width_mismatch_rejected():
    with pytest.raises(StructLabError, match="width"):
        synthesize((3, 2, 2), cube(3), [SynthEvent(0, 1, FiniteSet(4, [0]))])


# ---------------------------------------------------------------------------
# hand-checked runs
# ---------------------------------------------------------------------------


def test_empty_stream_keeps_initial_blocks():
    run = synthesize((3, 2, 2), cube(3), [])
    assert run.replacement_counts == (0, 0, 0)
    assert [s.cardinality for s in run.final_blocks] == [8, 2, 1]
    assert run.final_blocks[1] == FiniteSet(3, ["000", "001"])
    assert run.final_blocks[2] == FiniteSet(3, ["000"])
    assert run.witness_x == B("000")
    assert run.certificate_witness == B("000")
    assert not run.exhausted
    assert run.kraft_total == 0
    assert all(run.witness_x in s for s in run.final_blocks)


def test_single_event_refills_two_levels():
    run = synthesize((3, 2, 2), cube(3), [(1, ["000", "001"])])
    # the full-cube block at level 0 still has available members; the
    # levels holding exactly the removed pair must both refill once
    assert run.replacement_counts == (0, 1, 1)
    assert run.final_blocks[0].cardinality == 8
    assert run.final_blocks[1] == FiniteSet(3, ["010", "011"])
    assert run.final_blocks[2] == FiniteSet(3, ["010"])
    assert run.witness_x == B("010")
    assert all(run.witness_x in s for s in run.final_blocks)
    assert run.replacement_bounds_ok
    # the event uses its full allowance, so it constrains no certificate
    assert run.certificate_witness == B("000")
    assert analog_curve(run.events, run.witness_x, 2) == [None, None, None]
    assert analog_curve(run.events, B("000"), 2) == [None, 2, 2]
    assert oracle_synthesized_curve(run, run.witness_x) == [3, 2, 2]


def test_partial_refill_on_oversized_universe():
    universe = FiniteSet(3, range(5))  # 5 >= 2**2 elements, abstract pool
    run = synthesize((2, 1), universe, [(0, ["000", "001", "010", "011"])], n=2)
    assert run.replacement_counts == (1, 1)
    assert [s.cardinality for s in run.final_blocks] == [1, 1]
    assert run.final_blocks[0] == FiniteSet(3, ["100"])
    assert run.witness_x == B("100")
    assert not run.exhausted
    assert all(run.witness_x in s for s in run.final_blocks)
    assert run.certificate_witness == B("000")
    assert analog_curve(run.events, B("000"), 1) == [2, 2]


def test_exhausted_universe_is_flagged():
    run = synthesize((2, 1), cube(2), [(0, ["00", "01", "10", "11"])])
    assert run.exhausted
    assert run.witness_x is None
    assert [s.cardinality for s in run.final_blocks] == [0, 0]
    assert run.certificate_witness == B("00")
    assert run.to_json_dict()["witness"] is None


def test_json_report_shape():
    run = synthesize((3, 2, 2), cube(3), [(1, ["000", "001"])])
    report = json.loads(encode(run))
    assert report["target"] == [3, 2, 2]
    assert report["replacement_counts"] == [0, 1, 1]
    assert report["replacement_bounds"] == [2, 4, 8]
    assert report["replacement_bounds_ok"] is True
    assert report["witness"] == "010"
    assert report["kraft_total"] == "1/2"


# ---------------------------------------------------------------------------
# stream fixture parsing
# ---------------------------------------------------------------------------


def test_parse_stream_round_trip():
    text = """
    # adversary fixture
    step 1 000,001

    step 0 110  # trailing comment
    """
    events = parse_synth_stream(text)
    assert [(e.time, e.level) for e in events] == [(0, 1), (1, 0)]
    assert events[0].block == FiniteSet(3, ["000", "001"])
    assert events[1].block == FiniteSet(3, ["110"])


def test_parse_stream_errors():
    with pytest.raises(StructLabError, match="expected 'step"):
        parse_synth_stream("event 1 000")
    with pytest.raises(StructLabError, match="malformed level"):
        parse_synth_stream("step one 000")
    with pytest.raises(StructLabError, match="no members"):
        parse_synth_stream("step 1 ,")
    with pytest.raises(StructLabError, match="mixed member widths"):
        parse_synth_stream("step 1 000,01")
    with pytest.raises(StructLabError, match="!= expected 4"):
        parse_synth_stream("step 1 000", width=4)


def test_parse_stream_refuses_levels_past_the_target_by_line():
    text = "step 2 000\n# comment\nstep -1 001\n"
    assert [e.level for e in parse_synth_stream(text)] == [2, -1]
    with pytest.raises(FixtureError, match=r"^line 3: event level -1 outside \[0, 2\]$"):
        parse_synth_stream(text, max_level=2)
    # library callers that pass no bound are still refused by synthesize
    with pytest.raises(StructLabError, match=r"^event level -1 outside \[0, 2\]$"):
        synthesize([3, 2, 2], FiniteSet(3, range(8)), parse_synth_stream(text))


# ---------------------------------------------------------------------------
# adversarial randomized runs
# ---------------------------------------------------------------------------


def random_target(rng):
    k = rng.randint(0, 4)
    target = [k]
    for _ in range(k):
        target.append(target[-1] + rng.randint(0, 1))
    target.reverse()
    return tuple(target)


def greedy_adversary(rng, target, universe):
    """Events removing the lexicographically first available elements.

    The simulation always fills blocks from the front, so front-removal
    maximizes replacements — the worst case for the counting bound.
    """
    k = len(target) - 1
    kraft_left = 1.0
    values = list(universe.values)
    removed = 0
    events = []
    for _ in range(rng.randint(0, 40)):
        j = rng.randint(0, k)
        if 2.0 ** -j > kraft_left or removed >= len(values):
            continue
        kraft_left -= 2.0 ** -j
        allowance = 1 << (target[j] - j)
        size = allowance if rng.random() < 0.8 else rng.randint(1, allowance)
        block = values[removed : removed + min(size, len(values) - removed)]
        removed += len(block)
        events.append((j, block))
    return events


@pytest.mark.parametrize("seed_base", [0, 1000, 2000])
def test_adversarial_bounds_hold(seed_base):
    for seed in range(seed_base, seed_base + 100):
        rng = random.Random(seed)
        target = random_target(rng)
        n = target[0]
        width = min(n + rng.randint(0, 1), 8)
        width = max(width, n, 1)
        extra = rng.randint(0, 3) if width > n else 0
        universe = FiniteSet(width, range(min((1 << n) + extra, 1 << width)))
        run = synthesize(target, universe, greedy_adversary(rng, target, universe), n=n)

        assert run.replacement_bounds_ok
        k = run.k
        cert_curve = analog_curve(run.events, run.certificate_witness, k)
        assert all(c is None or c >= target[a] for a, c in enumerate(cert_curve))
        if run.witness_x is not None:
            assert not run.exhausted
            assert all(run.witness_x in s for s in run.final_blocks)
            wit_curve = analog_curve(run.events, run.witness_x, k)
            assert all(c is None or c >= target[a] for a, c in enumerate(wit_curve))
            synth_curve = oracle_synthesized_curve(run, run.witness_x)
            assert all(c is not None and c <= target[a] for a, c in enumerate(synth_curve))
        else:
            assert run.exhausted
