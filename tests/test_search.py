"""Anytime search: declaration traces, online guarantees, audits."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlab.artifacts import encode
from structlab.codec import EMPTY, BitString, encode_sd
from structlab.descsys import (
    DescriptionSystem,
    EnumerationStream,
    FiniteSet,
    ModelRecord,
    build_system,
    enumeration_stream,
)
from structlab.errors import StructLabError
from structlab.rational import log2_display
from structlab.search import (
    Declaration,
    SearchTrace,
    anytime_search,
    improvement_audit,
    mdl_guarantee_holds,
    search_many,
    trace_jsonl_lines,
)
from structlab.structfn import profile

from .gensys import random_system
from .oracles import oracle_mdl_guarantee, oracle_search_trace

B = BitString


def manual_stream(sys, first=()):
    """A valid stream putting the given (kind, program) pairs first."""
    order = list(first)
    placed = set(order)
    for p in sys.data_programs:
        if ("data", p) not in placed:
            order.append(("data", p))
    for p in sys.set_programs:
        if ("set", p) not in placed:
            order.append(("set", p))
    return EnumerationStream(sys, order)


def canonical_order(sys):
    """Every (kind, program) pair of the system, data programs first."""
    return [("data", p) for p in sys.data_programs] + [("set", p) for p in sys.set_programs]


# ---------------------------------------------------------------------------
# argument and stream validation
# ---------------------------------------------------------------------------


def test_unknown_mode_rejected(fixa):
    with pytest.raises(StructLabError, match="mode"):
        anytime_search(fixa, "00", 3, enumeration_stream(fixa, 0), mode="fastest")


def test_negative_alpha_rejected(fixa):
    with pytest.raises(StructLabError, match="alpha"):
        anytime_search(fixa, "00", -1, enumeration_stream(fixa, 0))


def test_truncated_stream_rejected(fixa):
    with pytest.raises(StructLabError, match="events"):
        EnumerationStream(fixa, canonical_order(fixa)[:-1])


def test_repeated_program_rejected(fixa):
    order = canonical_order(fixa)
    with pytest.raises(StructLabError, match="repeats"):
        EnumerationStream(fixa, [order[0], order[0]] + order[2:])


def test_unknown_program_or_kind_rejected(fixa):
    order = canonical_order(fixa)
    assert B("1111") not in fixa.data_programs
    with pytest.raises(StructLabError, match="lacks"):
        EnumerationStream(fixa, [("data", B("1111"))] + order[1:])
    with pytest.raises(StructLabError, match="kind"):
        EnumerationStream(fixa, [("cond", order[0][1])] + order[1:])


def test_plain_event_tuple_rejected(fixa):
    events = enumeration_stream(fixa, 0).events
    with pytest.raises(StructLabError, match="EnumerationStream"):
        anytime_search(fixa, "00", 3, events)


def test_stream_of_an_equal_system_rejected(fixa):
    text = fixa.to_descriptor_text()
    first, second = build_system(text), build_system(text)
    with pytest.raises(StructLabError, match="this system"):
        anytime_search(second, "00", 3, enumeration_stream(first, 0))


# ---------------------------------------------------------------------------
# reference system: frozen behavior
# ---------------------------------------------------------------------------


def test_reference_mdl_declares_once_any_seed(fixa):
    # all three models of 00 tie at two-part key 2**1 * 4 = 2**2 * 2 = 2**3 * 1
    for seed in range(10):
        trace = anytime_search(fixa, "00", 3, enumeration_stream(fixa, seed), "mdl")
        assert [d.objective_key for d in trace.declarations] == [8]
        assert trace.final is not None and not trace.flagged_empty
        assert mdl_guarantee_holds(fixa, trace)


def test_reference_mdl_alpha_one_only_cube(fixa):
    trace = anytime_search(fixa, "00", 1, enumeration_stream(fixa, 3), "mdl")
    assert len(trace.declarations) == 1
    assert trace.final.witness_program == B("0")
    assert trace.final.cardinality == 4
    assert trace.final.K_cond == 2


def test_reference_ml_descends_to_singleton(fixa):
    seen_lengths = set()
    for seed in range(10):
        trace = anytime_search(fixa, "00", 3, enumeration_stream(fixa, seed), "ml")
        cards = [d.objective_key for d in trace.declarations]
        assert cards == sorted(cards, reverse=True)
        assert len(set(cards)) == len(cards)
        assert cards[-1] == 1 and trace.final.cardinality == 1
        seen_lengths.add(len(cards))
    assert len(seen_lengths) > 1  # the path depends on the seed, the end does not


def test_reference_ml_alpha_one(fixa):
    trace = anytime_search(fixa, "11", 3, enumeration_stream(fixa, 0), "ml")
    assert trace.final.cardinality == 4  # only the full cube contains 11


def test_reference_direct_final_is_full_cube(fixa):
    # without shortcuts every estimate is log|S| - ceil(log|S|) = 0 here,
    # so the tie-break (shortest program) settles on the full cube
    for seed in range(10):
        trace = anytime_search(fixa, "00", 3, enumeration_stream(fixa, seed), "direct")
        assert trace.final.witness_program == B("0")
        assert trace.declarations[-1].objective_key == Fraction(1)


def test_alpha_zero_is_flagged_empty(fixa):
    for mode in ("mdl", "ml", "direct"):
        trace = anytime_search(fixa, "00", 0, enumeration_stream(fixa, 0), mode)
        assert trace.flagged_empty
        assert trace.final is None and trace.declarations == ()


def test_no_model_is_flagged_empty():
    sys = build_system(
        """
        data  0    00
        data  10   01
        data  110  10
        data  111  11
        set   0    00,01
        """
    )
    for mode in ("mdl", "ml", "direct"):
        trace = anytime_search(sys, "11", 4, enumeration_stream(sys, 1), mode)
        assert trace.flagged_empty and trace.final is None


# ---------------------------------------------------------------------------
# direct mode: staged conditional knowledge
# ---------------------------------------------------------------------------


def shortcut_system():
    """00 has a free conditional shortcut inside {00, 01}."""
    data = {B("0"): B("00"), B("10"): B("01"), B("110"): B("10"), B("111"): B("11")}
    sets = {B("0"): FiniteSet(2, [0, 1]), B("10"): FiniteSet(2, range(4))}
    shortcuts = {FiniteSet(2, [0, 1]): {EMPTY: B("00")}}
    return DescriptionSystem(2, data, sets, shortcuts)


def test_direct_redeclares_after_unlock():
    sys = shortcut_system()
    stream = manual_stream(sys, first=[("set", B("0")), ("data", B("0"))])
    trace = anytime_search(sys, "00", 1, stream, "direct")
    # the pair is declared on sight with the index estimate, then again at
    # 00's data event once the free shortcut corrects the estimate upward
    assert [d.record.witness_program for d in trace.declarations] == [B("0"), B("0")]
    assert [d.record.K_cond for d in trace.declarations] == [1, 0]
    assert [d.objective_key for d in trace.declarations] == [Fraction(1), Fraction(2)]
    assert trace.final.K_cond == 0


def test_direct_final_estimate_is_exact_deficiency():
    sys = shortcut_system()
    for seed in range(8):
        trace = anytime_search(sys, "00", 3, enumeration_stream(sys, seed), "direct")
        prof = profile(sys, "00", alpha_max=3)
        assert trace.declarations[-1].objective_key == prof.beta_key(3)


def test_direct_no_redeclaration_when_x_known_first():
    sys = shortcut_system()
    stream = manual_stream(
        sys, first=[("data", B("0")), ("set", B("0")), ("set", B("10"))]
    )
    trace = anytime_search(sys, "00", 3, stream, "direct")
    # estimates are exact from the start: {00,01} enters at its true
    # deficiency 1, then the cube (deficiency 0) takes over; nothing repeats
    assert [d.record.witness_program for d in trace.declarations] == [B("0"), B("10")]
    assert [d.objective_key for d in trace.declarations] == [Fraction(2), Fraction(1)]


def test_direct_objective_sequence_may_rise():
    sys = shortcut_system()
    stream = manual_stream(sys, first=[("set", B("0")), ("data", B("0"))])
    trace = anytime_search(sys, "00", 1, stream, "direct")
    objectives = [d.objective_key for d in trace.declarations]
    assert objectives == sorted(objectives)
    assert objectives[0] < objectives[-1]


# ---------------------------------------------------------------------------
# randomized: finals are stream-independent and match the exact profile
# ---------------------------------------------------------------------------


def final_keys(sys, x, alpha, seed):
    out = {}
    stream = enumeration_stream(sys, seed)
    for mode in ("mdl", "ml", "direct"):
        trace = anytime_search(sys, x, alpha, stream, mode)
        out[mode] = None if trace.flagged_empty else trace.declarations[-1].objective_key
    return out


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.data())
def test_final_matches_profile_and_is_stream_independent(seed, data):
    sys = random_system(seed)
    x = data.draw(st.integers(0, sys.universe_size() - 1), label="x")
    alpha = sys.max_set_program_length()
    prof = profile(sys, x, alpha_max=alpha)
    finals = [final_keys(sys, x, alpha, s) for s in (0, 7, 99)]
    assert finals[0] == finals[1] == finals[2]
    assert finals[0]["mdl"] == prof.lambda_key(alpha)
    assert finals[0]["ml"] == prof.h_key(alpha)
    assert finals[0]["direct"] == prof.beta_key(alpha)


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_mdl_trace_invariants(seed):
    sys = random_system(seed)
    x = seed % sys.universe_size()
    stream = enumeration_stream(sys, seed)
    trace = anytime_search(sys, x, sys.max_set_program_length(), stream, "mdl")
    keys = [d.objective_key for d in trace.declarations]
    assert all(b < a for a, b in zip(keys, keys[1:]))
    programs = [d.record.witness_program for d in trace.declarations]
    assert len(set(programs)) == len(programs)
    times = [d.time for d in trace.declarations]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert mdl_guarantee_holds(sys, trace)


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.data())
def test_guarantee_matches_the_fraction_oracle(seed, data):
    # Declared program lengths are drawn freely, so the bound both holds and fails.
    sys = random_system(seed)
    x = data.draw(st.integers(0, sys.universe_size() - 1), label="x")
    containing = sys.entries_containing(x)
    if not containing:
        return
    decls = tuple(
        Declaration(
            t,
            ModelRecord(r.set, data.draw(st.integers(0, 12)), r.witness_program, r.K_cond),
            0,
        )
        for t, r in enumerate(data.draw(st.lists(st.sampled_from(containing), min_size=1)))
    )
    xb = B.from_value(sys.universe_n, x)
    trace = SearchTrace("mdl", xb, 12, decls, decls[-1].record, False)
    assert mdl_guarantee_holds(sys, trace) == oracle_mdl_guarantee(sys, trace)


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.data())
def test_direct_search_ends_on_the_beta_key(seed, data):
    sys = random_system(seed, cheap_singletons=data.draw(st.booleans(), label="singletons"))
    x = data.draw(st.integers(0, sys.universe_size() - 1), label="x")
    alpha = data.draw(st.integers(0, sys.max_set_program_length()), label="alpha")
    want = profile(sys, x, alpha_max=alpha).beta_key(alpha)
    for stream_seed in (3, 11):
        trace = anytime_search(sys, x, alpha, enumeration_stream(sys, stream_seed), "direct")
        if want is None:
            assert trace.flagged_empty
            continue
        final = trace.declarations[-1]
        assert type(final.objective_key) is Fraction and final.objective_key == want
        assert final.record.delta_key == want and final.record is trace.final
        # a declaration names a new program or a corrected estimate
        sigs = [(d.record.witness_program, d.record.K_cond) for d in trace.declarations]
        assert all(a != b for a, b in zip(sigs, sigs[1:]))


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.data())
def test_declarations_match_the_rescanning_oracle(seed, stream_seed, data):
    sys = random_system(seed, cheap_singletons=data.draw(st.booleans(), label="singletons"))
    x = data.draw(st.integers(0, sys.universe_size() - 1), label="x")
    alpha = data.draw(st.integers(0, sys.max_set_program_length()), label="alpha")
    stream = enumeration_stream(sys, stream_seed)
    for mode in ("mdl", "ml", "direct"):
        trace = anytime_search(sys, x, alpha, stream, mode)
        got = [
            (d.time, d.record.witness_program, d.record.K_cond, d.objective_key)
            for d in trace.declarations
        ]
        assert got == oracle_search_trace(sys, x, alpha, stream, mode), mode
        assert trace.flagged_empty == (not got)


def oracle_trace(sys, x, alpha, stream, mode):
    """The oracle's declarations as a trace, records read from the system."""
    declarations = tuple(
        Declaration(t, ModelRecord(sys.set_programs[p], len(p), p, k), key)
        for t, p, k, key in oracle_search_trace(sys, x, alpha, stream, mode)
    )
    final = declarations[-1].record if declarations else None
    xb = B.from_value(sys.universe_n, sys._value(x))
    return SearchTrace(mode, xb, alpha, declarations, final, final is None)


@pytest.mark.parametrize("mode", ["mdl", "ml"])
@settings(max_examples=60)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_stream_fold_matches_the_per_string_search(mode, seed, data):
    sys = random_system(seed, cheap_singletons=data.draw(st.booleans(), label="singletons"))
    xs = list(range(sys.universe_size()))
    alpha = data.draw(st.integers(0, sys.max_set_program_length()), label="alpha")
    for stream_seed in (3, 11):
        stream = enumeration_stream(sys, stream_seed)
        traces = search_many(sys, xs, alpha, stream, mode)
        assert len(traces) == len(xs)
        for x, trace in zip(xs, traces):
            want = oracle_trace(sys, x, alpha, stream, mode)
            assert trace == want, x
            if mode == "mdl":
                assert improvement_audit(sys, trace) == improvement_audit(sys, want)


@pytest.mark.parametrize("mode", ["mdl", "ml"])
def test_single_string_search_is_the_stream_fold(fixa, mode):
    stream = enumeration_stream(fixa, 5)
    for x in fixa.universe_strings():
        trace = anytime_search(fixa, x, 3, stream, mode)
        assert trace == search_many(fixa, [x], 3, stream, mode)[0]
        assert trace.mode == mode


def test_stream_fold_takes_any_strings_in_order(fixa):
    stream = enumeration_stream(fixa, 4)
    assert search_many(fixa, [], 3, stream) == []
    xs = ["10", B("00"), 2, "00"]
    traces = search_many(fixa, xs, 3, stream)
    assert traces == [oracle_trace(fixa, x, 3, stream, "mdl") for x in xs]
    assert traces[1] == traces[3]


def test_stream_fold_refusals(fixa):
    stream = enumeration_stream(fixa, 0)
    with pytest.raises(StructLabError, match="alpha must be nonnegative"):
        search_many(fixa, ["00"], -1, stream)
    other = build_system(fixa.to_descriptor_text())
    with pytest.raises(StructLabError, match="built for this system"):
        search_many(other, ["00"], 3, stream)


def test_stream_fold_refuses_direct_and_unknown_modes(fixa):
    stream = enumeration_stream(fixa, 0)
    with pytest.raises(
        StructLabError, match="direct runs in anytime_search, because its keys change"
    ):
        search_many(fixa, ["00"], 3, stream, "direct")
    with pytest.raises(StructLabError, match="unknown search mode 'fastest'"):
        search_many(fixa, ["00"], 3, stream, "fastest")
    with pytest.raises(StructLabError, match="unknown search mode 'fastest'"):
        anytime_search(fixa, "00", 3, stream, "fastest")


def test_stream_fold_tests_membership_at_most_once_per_declaration(monkeypatch):
    sys = random_system(7, n=6, cheap_singletons=True)
    stream = enumeration_stream(sys, 3)
    calls = []
    original = FiniteSet.__contains__

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(FiniteSet, "__contains__", counted)
    traces = search_many(sys, range(sys.universe_size()), sys.max_set_program_length(), stream)
    declared = sum(len(t.declarations) for t in traces)
    assert declared > sys.universe_size()
    assert len(calls) <= declared


def test_guarantee_requires_mdl_trace(fixa):
    trace = anytime_search(fixa, "00", 3, enumeration_stream(fixa, 0), "ml")
    with pytest.raises(StructLabError, match="mdl"):
        mdl_guarantee_holds(fixa, trace)
    with pytest.raises(StructLabError, match="mdl"):
        improvement_audit(fixa, trace)


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------


def test_trace_jsonl_round_trip(fixa):
    trace = anytime_search(fixa, "00", 3, enumeration_stream(fixa, 2), "ml")
    lines = trace_jsonl_lines(trace)
    assert len(lines) == len(trace.declarations)
    for line, decl in zip(lines, trace.declarations):
        row = json.loads(line)
        assert row["time"] == decl.time
        assert row["program"] == str(decl.record.witness_program)
        assert row["cardinality"] == decl.record.cardinality
        assert row["objective"] == log2_display(decl.objective_key)
        assert list(row) == sorted(row)


# ---------------------------------------------------------------------------
# improvement audit
# ---------------------------------------------------------------------------

WEIGHT_FAMILY_12 = """
data  0    @family:literal(n=12)
set   0    @family:cube(n=12)
set   10   @family:hamming(n=12)
set   111  @family:singletons(n=12)
"""


def test_audit_no_pairs_on_single_declaration(fixa):
    trace = anytime_search(fixa, "00", 3, enumeration_stream(fixa, 0), "mdl")
    audit = improvement_audit(fixa, trace, c=1.0)
    assert audit.qualifying_count == 0
    assert audit.max_slack_needed is None
    assert audit.threshold_bits == pytest.approx(2.0)
    assert json.loads(encode(audit))["pairs"] == []


def test_audit_qualifying_pair_weight_family():
    sys = build_system(WEIGHT_FAMILY_12)
    x = "0" * 12
    ham0 = B("10") + encode_sd(EMPTY)
    stream = manual_stream(sys, first=[("set", B("0")), ("set", ham0)])
    trace = anytime_search(sys, x, 15, stream, "mdl")
    assert [d.objective_key for d in trace.declarations] == [2 * 4096, 8]

    audit = improvement_audit(sys, trace, c=1.0)
    assert audit.threshold_bits == pytest.approx(2 * math.log2(12))
    assert audit.qualifying_count == 1
    (pair,) = audit.pairs
    assert pair.program_1 == B("0") and pair.program_2 == ham0
    assert pair.lambda_drop == pytest.approx(10.0)
    # both declared sets fit the string perfectly, so the deficiency drop
    # is 0 and the drop-by-c*log2(n) relation needs the full c*log2(n)
    assert pair.delta_1 == pytest.approx(0.0)
    assert pair.delta_2 == pytest.approx(0.0)
    assert pair.required_drop == pytest.approx(math.log2(12))
    assert pair.slack_needed == pytest.approx(math.log2(12))
    assert audit.max_slack_needed == pytest.approx(math.log2(12))


def test_audit_threshold_scaling():
    sys = build_system(WEIGHT_FAMILY_12)
    ham0 = B("10") + encode_sd(EMPTY)
    stream = manual_stream(sys, first=[("set", B("0")), ("set", ham0)])
    trace = anytime_search(sys, "0" * 12, 15, stream, "mdl")
    # the 10-bit drop qualifies at c = 1 and c = 1.25 but not at c = 1.5,
    # where the threshold is 3 * log2(12) > 10 bits
    assert improvement_audit(sys, trace, c=1.0).qualifying_count == 1
    assert improvement_audit(sys, trace, c=1.25).qualifying_count == 1
    assert improvement_audit(sys, trace, c=1.5).qualifying_count == 0


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_audit_refuses_non_finite_constant(fixa, c):
    trace = anytime_search(fixa, "00", 3, enumeration_stream(fixa, 0), "mdl")
    with pytest.raises(StructLabError, match="must be finite"):
        improvement_audit(fixa, trace, c=c)


def test_audit_huge_constant_builds_no_huge_power():
    sys = build_system(WEIGHT_FAMILY_12)
    ham0 = B("10") + encode_sd(EMPTY)
    stream = manual_stream(sys, first=[("set", B("0")), ("set", ham0)])
    trace = anytime_search(sys, "0" * 12, 15, stream, "mdl")
    # 12**(2 * 10**12) would have about 7 * 10**12 bits
    audit = improvement_audit(sys, trace, c=1e12)
    assert audit.qualifying_count == 0
    assert audit.threshold_bits == pytest.approx(2e12 * math.log2(12))


def test_audit_cut_off_is_exact_at_its_boundary():
    # keys 2 * 26 = 52 then 2 * 1: the ratio 26 reaches 5**2 = 25, so the
    # pair qualifies at c = 1 although 52 has as many bits as 2**(2 * 3)
    members = ",".join(format(v, "05b") for v in range(26))
    sys = build_system(
        f"data\t0\t@family:literal(n=5)\nset\t0\t{members}\nset\t1\t00000"
    )
    stream = manual_stream(sys, first=[("set", B("0")), ("set", B("1"))])
    trace = anytime_search(sys, "00000", 1, stream, "mdl")
    assert [d.objective_key for d in trace.declarations] == [52, 2]
    assert improvement_audit(sys, trace, c=1.0).qualifying_count == 1
    assert improvement_audit(sys, trace, c=1.5).qualifying_count == 0


@pytest.mark.parametrize("seed", range(12))
def test_audit_pairs_match_direct_power_comparison(seed):
    # the bit-length cut-off must never change which pairs qualify
    sys = random_system(seed, n=2 + seed % 5)
    alpha = sys.max_set_program_length()
    stream = enumeration_stream(sys, seed)
    n = sys.universe_n
    for x in list(sys.universe_strings())[:6]:
        trace = anytime_search(sys, x, alpha, stream, "mdl")
        keys = [d.objective_key for d in trace.declarations]
        for two_c in range(-1, 12):
            expected = sum(
                k2 * n**two_c <= k1 for k1, k2 in zip(keys, keys[1:])
            )
            audit = improvement_audit(sys, trace, c=two_c / 2)
            assert audit.qualifying_count == expected, (x, two_c)


def test_audit_json_shape():
    sys = build_system(WEIGHT_FAMILY_12)
    ham0 = B("10") + encode_sd(EMPTY)
    stream = manual_stream(sys, first=[("set", B("0")), ("set", ham0)])
    trace = anytime_search(sys, "0" * 12, 15, stream, "mdl")
    report = json.loads(encode(improvement_audit(sys, trace, c=1.0)))
    assert report["x"] == "0" * 12
    assert report["qualifying_count"] == 1
    assert report["pairs"][0]["program_1"] == "0"
    json.dumps(report)  # must be serializable as-is
