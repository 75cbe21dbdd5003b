"""Tests for exact structure-function profiles and their companions.

Frozen expected arrays were first computed with the naive oracle in
``oracles.py`` (full rescans per budget) and by hand for the reference
system; the library must reproduce them bit for bit, witnesses included.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structlab.codec import BitString
from structlab.descsys import FiniteSet, apply_permutation, build_system
from structlab.errors import StructLabError
from structlab.structfn import (
    deficiency,
    deficiency_key,
    deficiency_tail_count,
    profile,
    profile_universe,
    staircase,
)

from .gensys import random_system
from .oracles import (
    oracle_K_data,
    oracle_critical_alphas,
    oracle_mss,
    oracle_pareto_triples,
    oracle_profile_arrays,
    oracle_signature_rows,
)

INF = math.inf


### Deficiency


def test_fixa_deficiencies(fixa):
    a = FiniteSet(2, ["00", "01", "10", "11"])
    b = FiniteSet(2, ["00", "01"])
    c = FiniteSet(2, ["00"])
    assert deficiency(fixa, "00", a) == 0.0
    assert deficiency(fixa, "00", b) == 0.0
    assert deficiency(fixa, "00", c) == 0.0
    assert deficiency(fixa, "10", b) == INF
    assert deficiency_key(fixa, "00", b) == Fraction(1)
    assert deficiency_key(fixa, "10", b) is None


def test_deficiency_requires_representable_set(fixa):
    with pytest.raises(StructLabError, match="representable"):
        deficiency(fixa, "00", FiniteSet(2, ["01", "10"]))


def test_deficiency_with_shortcut():
    text = (
        "data\t0\t00\ndata\t10\t01\ndata\t110\t10\ndata\t111\t11\n"
        "set\t0\t00,01,10,11\n"
        "cond\t0\t10@0\n"
    )
    sys = build_system(text)
    cube = FiniteSet(2, range(4))
    assert deficiency(sys, "10", cube) == 1.0  # 2 - 1
    assert deficiency(sys, "00", cube) == 0.0
    assert deficiency_key(sys, "10", cube) == Fraction(4, 2)


def test_deficiency_tail_counts():
    text = (
        "data\t0\t000\ndata\t10\t001\n"
        "data\t1100\t010\ndata\t1101\t011\ndata\t1110\t100\ndata\t11110\t101\n"
        "data\t111110\t110\ndata\t111111\t111\n"
        "set\t0\t000,001,010,011,100,101,110,111\n"
        "cond\t0\t000@0\ncond\t10\t001@0\n"
    )
    sys = build_system(text)
    cube = FiniteSet(3, range(8))
    # K(x|cube): 1 for 000, 2 for 001, index code 3 otherwise
    assert deficiency_tail_count(sys, cube, 0) == 2  # K < 3
    assert deficiency_tail_count(sys, cube, 1) == 1  # K < 2
    assert deficiency_tail_count(sys, cube, 2) == 0  # K < 1
    for d in range(4):
        assert deficiency_tail_count(sys, cube, d) < 2 ** (3 - d) + 1


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_deficiency_tail_bound_exact(seed):
    sys = random_system(seed)
    for entry in sys.set_entries():
        top = entry.set.ceil_log_card
        for d in range(top + 2):
            count = deficiency_tail_count(sys, entry.set, d)
            assert count < 2 ** (top - d) or count == 0


### Profiles on the reference system (frozen, oracle-verified)


def test_fixa_profile_of_easy_string(fixa):
    p = profile(fixa, "00")
    assert p.K_x == 1 and p.alpha_max == 3 and p.c_sub == 0
    assert p.h_values() == [INF, 2.0, 1.0, 0.0]
    assert p.lambda_values() == [INF, 3.0, 3.0, 3.0]
    assert p.beta_values() == [INF, 0.0, 0.0, 0.0]
    # witnesses: h walks down the chain, lambda/beta stick with min-K ties
    assert [None if r is None else str(r.witness_program) for r in p.h_rows] == [
        None,
        "0",
        "10",
        "110",
    ]
    assert [None if r is None else str(r.witness_program) for r in p.lambda_rows] == [
        None,
        "0",
        "0",
        "0",
    ]
    assert [None if r is None else str(r.witness_program) for r in p.beta_rows] == [
        None,
        "0",
        "0",
        "0",
    ]
    assert p.critical_alphas == (1,)
    assert p.sufficiency is None  # lambda never reaches K(x) + c_sub = 1
    assert not p.flagged


def test_fixa_profile_of_plain_string(fixa):
    p = profile(fixa, "11")
    assert p.h_values() == [INF, 2.0, 2.0, 2.0]
    assert p.lambda_values() == [INF, 3.0, 3.0, 3.0]
    assert p.beta_values() == [INF, 0.0, 0.0, 0.0]
    assert p.critical_alphas == (1,)
    # K(11) = 3, c_sub = 0, lambda-key 8 == 2**3: sufficiency at alpha = 1
    assert p.sufficiency is not None and p.sufficiency.alpha == 1


def test_fixa_mss_with_explicit_slack(fixa):
    p = profile(fixa, "00", mss_slack=2)
    assert p.sufficiency is not None
    assert p.sufficiency.alpha == 1 and p.sufficiency.slack == 2


def test_fixa_pareto_frontier_collapses(fixa):
    p = profile(fixa, "00")
    assert [(pt.K_S, pt.delta_key, pt.lambda_key) for pt in p.pareto] == [
        (1, Fraction(1), 8)
    ]
    assert oracle_pareto_triples(fixa, "00") == [(1, Fraction(1), 8)]


def test_flagged_profile_for_unmodelled_string():
    sys = build_system(
        "data\t0\t00\ndata\t10\t01\ndata\t110\t10\ndata\t111\t11\nset\t0\t00"
    )
    p = profile(sys, "11")
    assert p.flagged
    assert p.h_values() == [INF, INF]
    assert p.lambda_values() == [INF, INF]
    assert p.beta_values() == [INF, INF]
    assert p.critical_alphas == ()
    assert p.sufficiency is None
    assert p.pareto == ()


def test_profile_rejects_negative_budget(fixa):
    with pytest.raises(StructLabError):
        profile(fixa, "00", alpha_max=-1)


### The per-budget fold


def test_staircase_without_candidates():
    assert staircase([], 3) == [None, None, None, None]
    assert staircase([], -1) == []


def test_staircase_ignores_budgets_above_alpha_max():
    assert staircase([(2, 5), (4, 1)], 3) == [None, None, 5, 5]
    assert staircase([(-1, 7)], 1) == [7, 7]


def test_staircase_least_key_wins_ties():
    # equal objectives fall through to the tie-break carried in the key
    assert staircase([(1, (3, "b")), (1, (3, "a")), (0, (3, "c"))], 2) == [
        (3, "c"),
        (3, "a"),
        (3, "a"),
    ]


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.integers(-2, 8), st.integers(0, 20)), max_size=12),
    st.integers(0, 6),
)
def test_staircase_is_the_running_minimum(candidates, alpha_max):
    out = staircase(candidates, alpha_max)
    assert out == [
        min((key for budget, key in candidates if budget <= alpha), default=None)
        for alpha in range(alpha_max + 1)
    ]
    found = [key for key in out if key is not None]
    assert found == sorted(found, reverse=True)
    assert out[: len(out) - len(found)] == [None] * (len(out) - len(found))


### Profiles against the naive oracle


def _assert_matches_oracle(sys, x, alpha_max):
    p = profile(sys, x, alpha_max=alpha_max)
    h_rows, lam_rows, beta_rows = oracle_profile_arrays(sys, x, alpha_max)
    for alpha in range(alpha_max + 1):
        for mine, theirs, key in (
            (p.h_rows[alpha], h_rows[alpha], "card"),
            (p.lambda_rows[alpha], lam_rows[alpha], "lambda_key"),
            (p.beta_rows[alpha], beta_rows[alpha], "delta_key"),
        ):
            if theirs is None:
                assert mine is None
            else:
                assert mine is not None
                assert mine.set == theirs["set"]
                assert mine.K_S == theirs["K"]
                assert mine.witness_program == theirs["witness"]
    assert list(p.critical_alphas) == oracle_critical_alphas(lam_rows)
    mss = oracle_mss(sys, x, lam_rows, sys.c_sub)
    assert (None if p.sufficiency is None else p.sufficiency.alpha) == mss
    assert [(pt.K_S, pt.delta_key, pt.lambda_key) for pt in p.pareto] == (
        oracle_pareto_triples(sys, x)
    )


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_delta_order_is_an_exact_integer_key(seed):
    # random systems carry conditional shortcuts below the index code
    sys = random_system(seed)
    n = sys.universe_n
    for v in range(sys.universe_size()):
        records = sys.entries_containing(v)
        for rec in records:
            assert 0 <= rec.K_cond <= n
            assert rec.delta_order == rec.delta_key * (1 << n)
            assert type(rec.delta_key) is Fraction
            assert rec.delta_key == deficiency_key(sys, v, rec.set)
        assert sorted(records, key=lambda r: r.delta_order) == sorted(
            records, key=lambda r: r.delta_key
        )


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_signature_matches_the_oracle_arrays(seed):
    sys = random_system(seed, max_sets=16)
    alpha_max = sys.max_set_program_length() + 1
    for v in range(0, sys.universe_size(), max(1, sys.universe_size() // 8)):
        k_x, rows, critical, _, pareto, _ = profile(sys, v, alpha_max=alpha_max).signature()
        assert k_x == oracle_K_data(sys, v)
        assert rows == oracle_signature_rows(sys, v, alpha_max)
        assert all(type(row[4]) is Fraction for row in rows if row[4] is not None)
        lam_rows = oracle_profile_arrays(sys, v, alpha_max)[1]
        assert list(critical) == oracle_critical_alphas(lam_rows)
        assert list(pareto) == oracle_pareto_triples(sys, v)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_profile_matches_oracle_on_random_systems(seed):
    sys = random_system(seed, n=None, max_sets=16)
    assert sys.max_set_program_length() == max(
        (e.K_S for e in sys.set_entries()), default=0
    )
    alpha_max = sys.max_set_program_length() + 1
    for v in range(0, sys.universe_size(), max(1, sys.universe_size() // 8)):
        _assert_matches_oracle(sys, v, alpha_max)


def test_pareto_front_matches_the_oracle_on_long_fronts():
    long_fronts = 0
    for seed in range(16):
        sys = random_system(seed, n=6, max_sets=40)
        for v in sys.universe_values():
            front = [(p.K_S, p.delta_key, p.lambda_key) for p in profile(sys, v).pareto]
            assert front == oracle_pareto_triples(sys, v)
            long_fronts += len(front) > 3
    assert long_fronts >= 20


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([{}, {"cheap_singletons": True}, {"n": 6, "max_sets": 40}]),
)
def test_profile_universe_is_profile_of_each_string(seed, shape):
    alone = random_system(seed, **shape)
    swept = random_system(seed, **shape)
    alpha_max = alone.max_set_program_length() + 1
    got = list(profile_universe(swept, alpha_max=alpha_max))
    assert [x for x, _ in got] == list(alone.universe_strings())
    for v, (x, prof) in enumerate(got):
        assert prof.x == x
        assert prof.signature() == profile(alone, v, alpha_max=alpha_max).signature()


### Exact definitional inequalities (spot checks; the acceptance suite scales up)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_profile_inequalities_exact(seed):
    sys = random_system(seed, max_sets=12)
    c = sys.c_sub
    alpha_max = sys.max_set_program_length() + 1
    for v in range(sys.universe_size()):
        p = profile(sys, v, alpha_max=alpha_max)
        prev_h = prev_l = prev_b = None
        for alpha in range(alpha_max + 1):
            h, l, b = p.h_key(alpha), p.lambda_key(alpha), p.beta_key(alpha)
            # monotone nonincreasing (None = infinity)
            if prev_h is not None:
                assert h is not None and h <= prev_h
            if prev_l is not None:
                assert l is not None and l <= prev_l
            if prev_b is not None:
                assert b is not None and b <= prev_b
            prev_h, prev_l, prev_b = h, l, b
            if h is not None:
                # lambda(alpha) <= h(alpha) + alpha, exactly
                assert l <= h * (1 << alpha)
            if b is not None:
                # beta(alpha) + K(x) <= lambda(alpha) + c_sub, exactly
                lhs = b * (1 << p.K_x)
                rhs = Fraction(l) * (Fraction(1 << c) if c >= 0 else Fraction(1, 1 << -c))
                assert lhs <= rhs


### Recoding invariance


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_profile_invariant_under_recoding(seed):
    import random as _random

    sys = random_system(seed, max_sets=10)
    size = sys.universe_size()
    rng = _random.Random(seed + 1)
    table = list(range(size))
    rng.shuffle(table)
    image = apply_permutation(sys, dict(enumerate(table)))
    for v in range(0, size, max(1, size // 6)):
        before = profile(sys, v)
        after = profile(image, table[v])
        assert before.signature() == after.signature()
