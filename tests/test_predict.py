"""Prediction strategies: exact losses, set conversions, snooping curves."""

import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlab import descsys, predict
from structlab.codec import BitString
from structlab.descsys import FiniteSet, build_system
from structlab.errors import CodecError, FixtureError, StructLabError
from structlab.experiments import build_report_family_systems
from structlab.modelclasses import PmfCodebook, expand_set, likelihood_curve, pmf_codebook_from_sets
from structlab.predict import (
    PredictionStrategy,
    StrategyCodebook,
    codebook_from_sets,
    evaluate_loss,
    format_codebook,
    format_strategy,
    parse_codebook,
    parse_strategy,
    set_to_strategy,
    snooping_curve,
    strategy_to_set,
)
from structlab.rational import log2_display, unit_fraction
from structlab.structfn import profile
from structlab.unistat import induced_Dk, muchnik_lambda

from .gensys import random_system
from .oracles import oracle_loss_product, oracle_set_to_strategy

B = BitString


def random_strategy(seed: int, n: int) -> PredictionStrategy:
    rng = random.Random(seed)
    table = {}
    for length in range(n):
        for v in range(1 << length):
            den = rng.randint(1, 12)
            table[B.from_value(length, v)] = Fraction(rng.randint(0, den), den)
    return PredictionStrategy(n, table)


# ---------------------------------------------------------------------------
# strategies and losses
# ---------------------------------------------------------------------------


def test_strategy_must_be_total():
    with pytest.raises(StructLabError, match="cover all"):
        PredictionStrategy(2, {"": Fraction(1, 2)})


def test_strategy_validation():
    with pytest.raises(StructLabError, match="horizon"):
        PredictionStrategy(0, {})
    with pytest.raises(StructLabError, match="shorter than the horizon"):
        PredictionStrategy(1, {"0": Fraction(1, 2)})
    with pytest.raises(StructLabError, match="lie in"):
        PredictionStrategy(1, {"": Fraction(3, 2)})


def test_repeated_prefix_is_refused():
    # "0" and BitString("0") are distinct keys naming one prefix
    with pytest.raises(StructLabError, match="repeated prefix"):
        PredictionStrategy(2, {"": 0, "0": 0, B("0"): 1, "1": 0})


@pytest.mark.parametrize("value", ["abc", "1/0", None, float("nan"), float("inf")])
def test_malformed_belief_is_a_structlab_error(value):
    with pytest.raises(StructLabError, match=f"malformed belief value {value!r}"):
        PredictionStrategy(1, {"": value})


@pytest.mark.parametrize(
    "n, beliefs, message",
    [
        (2, (Fraction(1, 2),) * 2, "cover all 3 prefixes"),
        (2, (Fraction(1, 2), Fraction(3, 2), Fraction(3, 2)), "in \\[0, 1\\]"),
        (1, (0.5,), "Fractions"),
        (17, (), "horizon"),
    ],
)
def test_belief_tuple_check(n, beliefs, message):
    # the check every explicit belief tuple passes; a set's strategy reads
    # its beliefs off the set and has no tuple to check
    with pytest.raises(StructLabError, match=message):
        PredictionStrategy._from_beliefs(n, beliefs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p_refuses_prefixes_past_the_horizon(n):
    strat = PredictionStrategy.uniform(n)
    assert strat.p(B.ones(n - 1)) == Fraction(1, 2)
    for length in (n, n + 3):
        with pytest.raises(StructLabError, match="outside the horizon"):
            strat.p(B.zeros(length))


@pytest.mark.parametrize("value", [3, 2.5, None])
def test_targets_that_are_not_bit_strings_are_domain_errors(fixa, value):
    calls = [
        lambda: evaluate_loss(PredictionStrategy.uniform(2), value),
        lambda: snooping_curve(codebook_from_sets(fixa), value),
        lambda: likelihood_curve(pmf_codebook_from_sets(fixa), value),
        lambda: muchnik_lambda(induced_Dk(fixa, 3), value, 3, 3),
    ]
    message = rf"BitString expects a str of 0/1, got {type(value).__name__}\Z"
    for call in calls:
        with pytest.raises(CodecError, match=message):
            call()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_uniform_equals_a_dict_built_table(n):
    table = {
        B.from_value(length, v): Fraction(1, 2)
        for length in range(n)
        for v in range(1 << length)
    }
    built = PredictionStrategy(n, table)
    assert PredictionStrategy.uniform(n) == built
    assert hash(PredictionStrategy.uniform(n)) == hash(built)
    assert PredictionStrategy.uniform(n).items() == built.items()


def test_uniform_strategy_loses_one_bit_per_step():
    p = PredictionStrategy.uniform(3)
    for v in range(8):
        rec = evaluate_loss(p, B.from_value(3, v))
        assert rec.product == Fraction(1, 8)
        assert rec.loss == pytest.approx(3.0)


def test_oracle_strategy_loses_nothing():
    x = B("101")
    table = {}
    for length in range(3):
        for v in range(1 << length):
            prefix = B.from_value(length, v)
            if x.startswith(prefix):
                table[prefix] = Fraction(x[length])
            else:
                table[prefix] = Fraction(1, 2)
    rec = evaluate_loss(PredictionStrategy(3, table), x)
    assert rec.product == 1
    assert rec.loss == 0


def test_loss_length_mismatch():
    with pytest.raises(StructLabError, match="horizon"):
        evaluate_loss(PredictionStrategy.uniform(3), "01")


def test_loss_matches_oracle_on_random_strategies():
    for seed in range(30):
        n = 1 + seed % 5
        strat = random_strategy(seed, n)
        table = dict(strat.items())
        for v in range(1 << n):
            x = B.from_value(n, v)
            assert evaluate_loss(strat, x).product == oracle_loss_product(table, x)


def test_products_always_sum_to_one():
    for seed in range(25):
        n = 1 + seed % 4
        assert random_strategy(seed, n).kraft_total() == 1
    assert PredictionStrategy.uniform(5).kraft_total() == 1
    assert set_to_strategy(FiniteSet(3, [0, 3, 5])).kraft_total() == 1


# ---------------------------------------------------------------------------
# sets as strategies
# ---------------------------------------------------------------------------


def test_proportions_of_a_three_element_set():
    strat = set_to_strategy(FiniteSet(2, ["00", "01", "10"]))
    assert strat.p("") == Fraction(1, 3)
    assert strat.p("0") == Fraction(1, 2)
    assert strat.p("1") == 0
    for member in ("00", "01", "10"):
        rec = evaluate_loss(strat, member)
        assert rec.product == Fraction(1, 3)
        assert rec.loss == pytest.approx(math.log2(3))
    outsider = evaluate_loss(strat, "11")
    assert outsider.product == 0
    assert outsider.loss == math.inf


def test_full_cube_predicts_uniformly():
    assert set_to_strategy(FiniteSet(3, range(8))) == PredictionStrategy.uniform(3)


def test_singleton_set_is_an_oracle():
    strat = set_to_strategy(FiniteSet(3, ["110"]))
    assert evaluate_loss(strat, "110").product == 1
    assert strat.p("0") == Fraction(1, 2)  # dead branch


@st.composite
def nonempty_sets(draw):
    """Random, singleton, full-cube and one-subtree sets at widths 1..8."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "singleton", "cube", "subtree"]))
    if kind == "cube":
        return FiniteSet(n, range(1 << n))
    if kind == "singleton":
        return FiniteSet(n, [draw(st.integers(0, (1 << n) - 1))])
    if kind == "random":
        return FiniteSet(n, draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1)))
    # every member extends one prefix, so all other subtrees are empty
    k = draw(st.integers(0, n))
    prefix = draw(st.integers(0, (1 << k) - 1))
    tails = draw(st.sets(st.integers(0, (1 << (n - k)) - 1), min_size=1))
    return FiniteSet(n, [(prefix << (n - k)) | t for t in tails])


@settings(max_examples=200)
@given(nonempty_sets())
def test_set_to_strategy_matches_the_dict_oracle(a):
    fast = set_to_strategy(a)
    oracle = oracle_set_to_strategy(a)
    assert fast.items() == oracle.items()
    assert fast == oracle
    assert hash(fast) == hash(oracle)
    assert PredictionStrategy(a.n, dict(oracle.items())) == fast


def test_empty_set_has_no_strategy():
    with pytest.raises(StructLabError, match="empty set"):
        set_to_strategy(FiniteSet(2, []))


def test_member_products_on_random_sets():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 6)
        card = rng.randint(1, 1 << n)
        a = FiniteSet(n, rng.sample(range(1 << n), card))
        strat = set_to_strategy(a)
        for x in a:
            assert evaluate_loss(strat, x).product == Fraction(1, card)


# ---------------------------------------------------------------------------
# strategies as sets
# ---------------------------------------------------------------------------


def test_uniform_threshold_boundaries():
    p = PredictionStrategy.uniform(4)
    assert strategy_to_set(p, 4).cardinality == 16
    assert strategy_to_set(p, 3).cardinality == 0


def test_threshold_argument_validation():
    p = PredictionStrategy.uniform(2)
    with pytest.raises(StructLabError, match="exactly one"):
        strategy_to_set(p)
    with pytest.raises(StructLabError, match="exactly one"):
        strategy_to_set(p, 1, product_bound=Fraction(1, 2))
    with pytest.raises(StructLabError, match="nonnegative"):
        strategy_to_set(p, -1)
    with pytest.raises(StructLabError, match="product bound"):
        strategy_to_set(p, product_bound=Fraction(2))


def test_round_trip_recovers_the_set_exactly():
    # members carry product exactly 1/|A| and soak up the whole budget,
    # so thresholding at 1/|A| returns A itself
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        card = rng.randint(1, 1 << n)
        a = FiniteSet(n, rng.sample(range(1 << n), card))
        back = strategy_to_set(set_to_strategy(a), product_bound=Fraction(1, card))
        assert back == a


def test_cardinality_bound_is_exact_for_every_strategy():
    for seed in range(40):
        n = 1 + seed % 5
        strat = random_strategy(2000 + seed, n)
        for m in range(n + 1):
            picked = strategy_to_set(strat, m)
            assert picked.cardinality <= 1 << m
            for x in picked:
                assert evaluate_loss(strat, x).product >= Fraction(1, 1 << m)


# ---------------------------------------------------------------------------
# codebooks and snooping curves
# ---------------------------------------------------------------------------


def test_codebook_validation():
    uniform = PredictionStrategy.uniform(2)
    with pytest.raises(StructLabError, match="at least one"):
        StrategyCodebook({})
    with pytest.raises(StructLabError, match="share one horizon"):
        StrategyCodebook({"0": uniform, "1": PredictionStrategy.uniform(3)})
    with pytest.raises(StructLabError, match="prefix"):
        StrategyCodebook({"0": uniform, "01": uniform})
    with pytest.raises(StructLabError, match="malformed program 0"):
        StrategyCodebook({0: uniform})


def test_codebook_refuses_a_program_given_as_text_and_as_bits():
    uniform, other = PredictionStrategy.uniform(2), set_to_strategy(FiniteSet(2, [1]))
    with pytest.raises(StructLabError, match="duplicate program '0' in strategy namespace"):
        StrategyCodebook({"0": uniform, B("0"): other, "1": uniform})
    book = StrategyCodebook({"1": uniform, B("00"): other, "01": uniform})
    assert list(book.programs) == [B("1"), B("00"), B("01")]
    assert book.max_program_length() == 2


def test_codebook_complexity_is_the_shortest_name():
    uniform = PredictionStrategy.uniform(2)
    book = StrategyCodebook({"0": uniform, "11": uniform})
    assert book.complexity(uniform) == 1
    assert book.complexity(PredictionStrategy.uniform(3)) == math.inf


@pytest.mark.parametrize("name", ["fixa", "hamming-12"])
def test_set_codebooks_read_only_the_beliefs_along_x(name, fixa, monkeypatch):
    # A set strategy reads its beliefs off the set: building the codebook
    # reads none, and one snooping curve reads at most n per strategy.
    sys = fixa if name == "fixa" else build_report_family_systems()[name]
    n = sys.universe_n
    reads: dict[int, int] = {}
    ratio = predict._SetBeliefs.ratio

    def counted(store, length, value):
        reads[id(store)] = reads.get(id(store), 0) + 1
        return ratio(store, length, value)

    monkeypatch.setattr(predict._SetBeliefs, "ratio", counted)
    book = codebook_from_sets(sys)
    assert reads == {}
    for x in (B.zeros(n), B.ones(n), B.from_value(n, 0b101010101010 % (1 << n))):
        reads.clear()
        snooping_curve(book, x)
        assert len(reads) == len(book)
        assert max(reads.values()) <= n


def test_codebook_complexity_finds_a_set_built_strategy():
    a = FiniteSet(3, ["001", "010", "011", "110"])
    book = StrategyCodebook({"0": PredictionStrategy.uniform(3), "10": set_to_strategy(a)})
    dict_built = PredictionStrategy(3, dict(set_to_strategy(a).items()))
    assert book.complexity(dict_built) == 2


def test_single_uniform_codebook_curve():
    book = StrategyCodebook({"0": PredictionStrategy.uniform(4)})
    curve = snooping_curve(book, "0110", alpha_max=2)
    assert curve.rows[0].product is None
    assert curve.rows[0].loss == math.inf
    assert curve.rows[1].loss == pytest.approx(4.0)
    assert curve.rows[2].witness == B("0")


def test_snooping_curve_input_validation():
    book = StrategyCodebook({"0": PredictionStrategy.uniform(4)})
    with pytest.raises(StructLabError, match="horizon"):
        snooping_curve(book, "01")
    with pytest.raises(StructLabError, match="alpha_max"):
        snooping_curve(book, "0110", alpha_max=-1)


def test_set_codebook_reference_curve(fixa):
    curve = snooping_curve(codebook_from_sets(fixa), "00")
    assert [row.product for row in curve.rows] == [
        None,
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
    ]
    assert [row.witness for row in curve.rows] == [None, B("0"), B("10"), B("110")]
    assert [row.loss for row in curve.rows] == [math.inf, 2.0, 1.0, 0.0]


def test_set_codebook_curve_equals_size_curve_everywhere():
    for seed in range(25):
        sys = random_system(seed, max_sets=12)
        book = codebook_from_sets(sys)
        for v in range(sys.universe_size()):
            x = B.from_value(sys.universe_n, v)
            prof = profile(sys, x)
            curve = snooping_curve(book, x, alpha_max=prof.alpha_max)
            for alpha in range(prof.alpha_max + 1):
                h = prof.h_key(alpha)
                row = curve.rows[alpha]
                if h is None:
                    # no model of x fits the budget: every affordable
                    # strategy (if any) predicts some bit of x with 0
                    assert row.loss == math.inf
                else:
                    assert row.product == Fraction(1, h)
                    assert row.loss == pytest.approx(log2_display(h))


@pytest.mark.parametrize("seed", range(8))
def test_set_codebooks_take_the_audited_namespace_as_it_is(monkeypatch, seed):
    sys = random_system(seed, max_sets=12)
    checks = []
    check = descsys.check_prefix_free

    def counted(programs, namespace):
        checks.append(namespace)
        check(programs, namespace)

    monkeypatch.setattr(descsys, "check_prefix_free", counted)
    books = [codebook_from_sets(sys), pmf_codebook_from_sets(sys)]
    assert checks == []
    monkeypatch.undo()
    # the checked constructors, given the same namespace
    checked = [
        StrategyCodebook({p: set_to_strategy(s) for p, s in sys.set_programs.items()}),
        PmfCodebook({p: expand_set(s, "pmf") for p, s in sys.set_programs.items()}),
    ]
    for book, want in zip(books, checked):
        assert type(book) is type(want) and book.n == want.n == sys.universe_n
        assert list(book.programs.items()) == list(want.programs.items())
        assert book.max_program_length() == want.max_program_length()


def test_set_codebooks_refuse_a_system_with_no_sets():
    sys = build_system("data 0 0\ndata 1 1\n")
    for make in (codebook_from_sets, pmf_codebook_from_sets):
        with pytest.raises(StructLabError, match="a codebook needs at least one program"):
            make(sys)


def test_snooping_losses_never_increase():
    for seed in range(10):
        sys = random_system(seed)
        book = codebook_from_sets(sys)
        x = B.from_value(sys.universe_n, seed % sys.universe_size())
        losses = [row.loss for row in snooping_curve(book, x).rows]
        assert all(a >= b for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


STRATEGY_TEXT = ".\t1/3\n0\t1/2\n1\t0\n"


def test_strategy_fixture_round_trip():
    strat = parse_strategy(STRATEGY_TEXT)
    assert strat == set_to_strategy(FiniteSet(2, ["00", "01", "10"]))
    assert parse_strategy(format_strategy(strat)) == strat


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "names no prefixes"),
        (".\t1/2\textra", "expected"),
        ("x\t1/2", "malformed prefix"),
        (".\tone", "malformed belief"),
        (".\t1/2\n.\t1/3", "repeated prefix"),
        (".\t1/0", "malformed belief"),
    ],
)
def test_strategy_fixture_errors(text, message):
    with pytest.raises(FixtureError, match=message):
        parse_strategy(text)


# every value read has at most MAX_DIGITS digits, so each can be shown
TOO_LONG = [
    "1e-1000000", "1e-1_000_000", "1e-99999999", "1E+5000", "1e4300", "1e-4294",
    "0." + "0" * 4298 + "1",
]


@pytest.mark.parametrize("token", TOO_LONG, ids=lambda t: t[:12])
def test_too_long_beliefs_are_refused_quickly(token):
    start = time.perf_counter()
    with pytest.raises(StructLabError, match=re.escape(f"malformed belief value {token!r}")):
        unit_fraction(token, "belief")
    with pytest.raises(FixtureError, match=re.escape(f"line 1: malformed belief {token!r}")):
        parse_strategy(f".\t{token}\n")
    with pytest.raises(FixtureError, match=re.escape(f"line 1: malformed belief {token!r}")):
        parse_codebook(f"0\t.\t{token}\n")
    assert time.perf_counter() - start < 1


def test_longest_decimal_beliefs_are_read_exactly():
    assert unit_fraction("1e-4293", "belief") == Fraction(1, 10**4293)
    assert unit_fraction("0." + "0" * 4297 + "1", "belief") == Fraction(1, 10**4298)
    assert unit_fraction("25e-2", "belief") == Fraction(1, 4)
    with pytest.raises(StructLabError, match="lie in"):
        unit_fraction("9" * 4300, "belief")


def test_strategy_fixture_must_be_total():
    with pytest.raises(StructLabError, match="cover all"):
        parse_strategy(".\t1/2\n0\t1/2\n")


def test_codebook_fixture_round_trip(fixa):
    book = codebook_from_sets(fixa)
    text = format_codebook(book)
    again = parse_codebook(text)
    assert again.programs == book.programs
    assert format_codebook(again) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "names no programs"),
        ("0\t.\t", "expected"),
        ("0x\t.\t1/2", "malformed program"),
        ("0\tq\t1/2", "malformed prefix"),
        ("0\t.\tq", "malformed belief"),
        ("0\t.\t1/2\n0\t.\t1/3", "repeated prefix"),
    ],
)
def test_codebook_fixture_errors(text, message):
    with pytest.raises(FixtureError, match=message):
        parse_codebook(text)
