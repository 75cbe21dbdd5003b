"""Model improvement: best replacements and their measured slacks."""

import json

import pytest

from structlab.artifacts import encode
from structlab.codec import BitString
from structlab.descsys import DescriptionSystem, FiniteSet, build_system
from structlab.errors import StructLabError
from structlab.synth import improve_model

from .gensys import random_system
from .oracles import oracle_improve, oracle_profile_arrays

B = BitString

CUBE = FiniteSet(2, range(4))


def test_anchor_must_be_representable(fixa):
    with pytest.raises(StructLabError, match="not representable"):
        improve_model(fixa, "00", FiniteSet(2, [0, 3]), 3)


def test_anchor_must_contain_x(fixa):
    with pytest.raises(StructLabError, match="does not contain"):
        improve_model(fixa, "11", FiniteSet(2, [0, 1]), 3)


def test_reference_improves_cube_to_singleton(fixa):
    # all models of 00 tie in two-part total; the tie prefers the most
    # specific set, which also meets the exact optimum at this budget
    report = improve_model(fixa, "00", CUBE, 3)
    assert report.best.witness_program == B("110")
    assert report.best.cardinality == 1
    assert report.best.lambda_key == 1 << 3  # Lambda = 3 bits
    assert not report.improved  # equal total, not strictly better
    assert report.slack_total == pytest.approx(0.0)
    assert report.slack_complexity == pytest.approx(2.0)
    assert report.slack_cardinality == pytest.approx(2.0)


def test_reference_self_improvement(fixa):
    singleton = FiniteSet(2, [0])
    report = improve_model(fixa, "00", singleton, 3)
    assert report.best.set == singleton
    assert not report.improved
    assert report.anchor.lambda_key == 1 << 3
    assert report.slack_total == pytest.approx(0.0)


def test_reference_single_candidate(fixa):
    report = improve_model(fixa, "11", CUBE, 3)
    assert report.best.set == CUBE
    assert report.slack_total == pytest.approx(0.0)
    assert not report.improved


def test_small_budget_leaves_slacks_undefined(fixa):
    report = improve_model(fixa, "00", CUBE, 0)
    assert report.best.cardinality == 1  # the replacement search is budget-free
    assert report.slack_total is None
    assert report.slack_complexity is None
    assert report.slack_cardinality is None
    with pytest.raises(StructLabError, match="alpha_max must be nonnegative"):
        improve_model(fixa, "00", CUBE, -1)


def test_improve_model_scans_the_set_entries_once(fixa, monkeypatch):
    scans = []
    original = DescriptionSystem.entries_containing

    def counted(self, x):
        scans.append(self._containing is None)
        return original(self, x)

    monkeypatch.setattr(DescriptionSystem, "entries_containing", counted)
    improve_model(fixa, "00", CUBE, 3)
    assert scans == [True]


# ---------------------------------------------------------------------------
# equal-fit, worse-total anchors
# ---------------------------------------------------------------------------

STRAY_SYSTEM = """
# 32-string universe; a clean 16-block and its strayed variant
data   1      @family:literal(n=5)
set    00     00000,00001,00010,00011,00100,00101,00110,00111,01000,01001,01010,01011,01100,01101,01110,01111
set    01000  00000,00001,00010,00011,00100,00101,00110,00111,01000,01001,01010,01011,01100,01101,01110,11111
"""


def test_stray_anchor_swapped_for_clean_block():
    sys = build_system(STRAY_SYSTEM)
    clean = sys.set_programs[B("00")]
    stray = sys.set_programs[B("01000")]
    report = improve_model(sys, "00000", stray, 5)

    # the two models fit equally well...
    assert report.anchor.delta_key == 1
    assert report.best.delta_key == 1
    # ...but the clean block is strictly cheaper to name
    assert report.best.set == clean
    assert report.improved
    assert report.anchor.lambda_key == 1 << 9
    assert report.best.lambda_key == 1 << 6
    assert report.slack_total == pytest.approx(0.0)
    assert json.loads(encode(report))["improved"] is True


def test_randomized_replacement_never_worse():
    checked = 0
    for seed in range(100):
        sys = random_system(seed)
        x = seed % sys.universe_size()
        entries = sys.entries_containing(x)
        if not entries:
            continue
        anchor = entries[seed % len(entries)]
        top = sys.max_set_program_length()
        want_best, want_slacks = oracle_improve(
            sys, x, anchor.set, oracle_profile_arrays(sys, x, top)
        )
        for alpha in range(top + 1):
            report = improve_model(sys, x, anchor.set, alpha)
            assert x in report.best.set
            assert report.best.lambda_key <= anchor.lambda_key
            assert report.improved == (report.best.lambda_key < anchor.lambda_key)
            best = report.best
            assert (best.set, best.K_S, best.witness_program) == want_best
            slacks = (report.slack_total, report.slack_complexity, report.slack_cardinality)
            assert slacks == (want_slacks[alpha] or (None, None, None))
        checked += 1
    assert checked > 60
