"""Planted non-stochastic systems and the measured-gap report battery."""

import json
import math
from fractions import Fraction

import pytest

from structlab.artifacts import encode
from structlab.codec import BitString
from structlab.descsys import MAX_UNIVERSE_BITS, build_system
from structlab.errors import StructLabError
from structlab.experiments import (
    additivity_defect_report,
    build_report_family_systems,
    generate_gap_reports,
    improvement_slack_report,
    make_nonstoch_system,
    reverse_fit_gap_report,
    universal_gap_report,
    verify_nonstoch,
)
from structlab.structfn import profile

from .gensys import random_system
from .oracles import oracle_additivity_report, oracle_c_sub

B = BitString


# ---------------------------------------------------------------------------
# planted non-stochastic strings
# ---------------------------------------------------------------------------


def test_nonstoch_reference_staircase():
    plan = make_nonstoch_system(6, 3, 4, seed=0)
    report = verify_nonstoch(plan)
    assert plan.expected_beta_keys() == (None, Fraction(16), Fraction(16), Fraction(1))
    assert report.actual_beta_keys == plan.expected_beta_keys()
    assert report.ok
    assert report.K_x == 1
    assert report.c_sub == 0
    assert report.beta_values() == [math.inf, 4.0, 4.0, 0.0]
    d = report.to_json_dict()
    assert d["beta"] == ["inf", 4, 4, 0]
    assert d["ok"] is True


def test_nonstoch_profile_shape():
    plan = make_nonstoch_system(6, 3, 4, seed=0)
    prof = profile(plan.system, plan.x)
    # only the cube is affordable below the drop budget
    assert prof.h_key(1) == 1 << 6
    assert prof.lambda_key(1) == 2 * (1 << 6)
    assert prof.lambda_key(3) == 1 << 3
    assert prof.h_key(3) == 1


def test_nonstoch_only_the_planted_string_resists():
    plan = make_nonstoch_system(5, 3, 3, seed=1)
    for v in range(1 << 5):
        b = B.from_value(5, v)
        if b == plan.x:
            continue
        prof = profile(plan.system, b)
        # every other string is perfectly typical for the cube immediately
        assert prof.beta_key(1) == Fraction(1)


def test_nonstoch_full_depth_shortcut():
    # beta_level == n prices the planted string at zero bits inside the
    # cube, via the empty shortcut program
    plan = make_nonstoch_system(4, 2, 4, seed=3)
    report = verify_nonstoch(plan)
    assert report.ok
    assert report.actual_beta_keys == (None, Fraction(1 << 4), Fraction(1))


def test_nonstoch_across_seeds():
    xs = set()
    for seed in range(10):
        plan = make_nonstoch_system(8, 4, 5, seed=seed)
        assert verify_nonstoch(plan).ok
        xs.add(plan.x)
    assert len(xs) > 1


def test_nonstoch_validation():
    with pytest.raises(StructLabError, match="universe width"):
        make_nonstoch_system(0, 3, 1)
    with pytest.raises(StructLabError, match="drop budget"):
        make_nonstoch_system(6, 1, 3)
    with pytest.raises(StructLabError, match="planted deficiency"):
        make_nonstoch_system(6, 3, 7)
    with pytest.raises(StructLabError, match="planted deficiency"):
        make_nonstoch_system(6, 3, 0)
    with pytest.raises(StructLabError, match="universe width"):
        make_nonstoch_system(MAX_UNIVERSE_BITS + 1, 3, 1)


# ---------------------------------------------------------------------------
# additivity defects
# ---------------------------------------------------------------------------


def test_additivity_report_on_fixture(fixa):
    report = additivity_defect_report(fixa)
    assert report.pair_count == 7
    assert report.c_sub == 0
    assert report.max_defect == 0
    assert report.min_defect == -2
    assert report.histogram == {-2: 3, -1: 2, 0: 2}
    assert report.max_defect == report.max_record.defect
    assert report.max_record.x == B("10")
    assert report.max_record.set_program == B("0")
    assert report.min_record.x == B("00")
    d = json.loads(encode(report, int_floats=False))
    assert d["histogram"] == {"-2": 3, "-1": 2, "0": 2}
    assert d["max_record"]["K_cond"] == 2


def _oracle_battery_systems():
    """Random systems at widths 2..8: shortcuts, duplicate programs, ties."""
    return [random_system(seed, n=2 + seed % 7) for seed in range(56)]


def test_additivity_max_matches_c_sub(fixa):
    # c_sub may be negative: it is the largest defect, never clamped at 0
    for sys in [fixa, *_oracle_battery_systems()]:
        report = additivity_defect_report(sys)
        if report.pair_count > 0:
            assert report.max_defect == sys.c_sub


def _assert_walk_matches_oracles(sys):
    report = additivity_defect_report(sys)
    assert report == oracle_additivity_report(sys)
    assert sys.c_sub == oracle_c_sub(sys)


def test_additivity_walk_matches_oracle_on_stock_systems(fixa):
    _assert_walk_matches_oracles(fixa)
    for sys in build_report_family_systems().values():
        _assert_walk_matches_oracles(sys)
    _assert_walk_matches_oracles(make_nonstoch_system(8, 4, 5, seed=2).system)


def test_additivity_walk_matches_oracle_on_random_systems():
    shortcut_wins = duplicate_sets = tied_extremes = 0
    for sys in _oracle_battery_systems():
        _assert_walk_matches_oracles(sys)
        shortcut_wins += any(
            len(q) < s.ceil_log_card and out.value in s
            for s, table in sys.cond_shortcuts.items()
            for q, out in table.items()
        )
        duplicate_sets += len(set(sys.set_programs.values())) < len(sys.set_programs)
        pairs = list(sys._chain_rule_defects())
        for extreme in (max, min):
            target = extreme(d for *_, d in pairs)
            tied = [(rank, v) for rank, v, d in pairs if d == target]
            # set-major and string-major order pick different first pairs
            tied_extremes += min(tied) != min(tied, key=lambda rv: (rv[1], rv[0]))
    # the battery exercises the cases the tie-breaks and shortcut reads guard
    assert shortcut_wins >= 10
    assert duplicate_sets >= 5
    assert tied_extremes >= 5


# ---------------------------------------------------------------------------
# reverse fit gaps
# ---------------------------------------------------------------------------


def test_reverse_fit_gap_reference(fixa):
    report = reverse_fit_gap_report(fixa, list(fixa.universe_strings()))
    assert report.strings_used == 4
    by_label = {s.label: s for s in report.summaries}
    s0 = by_label["epsilon=0"]
    # every deficiency in the fixture is 0, so the gap is lambda - K(x):
    # 2 bits for 00, 1 for 01, 0 for 10 and 11, at every budget
    assert s0.count == 12
    assert s0.minimum == 0.0
    assert s0.maximum == 2.0
    assert s0.mean == pytest.approx(0.75)
    assert s0.max_witness == {"x": "00", "alpha": 1}
    assert s0.min_witness == {"x": "10", "alpha": 1}
    assert by_label["epsilon=1"].count == 8
    assert by_label["epsilon=2"].count == 4
    assert by_label["epsilon=2"].mean == pytest.approx(0.75)


def test_reverse_fit_gap_sampling(fixa):
    # the report measures exactly the strings it is given
    report = reverse_fit_gap_report(fixa, [B("01"), B("11")], epsilons=(0,))
    assert report.strings_used == 2
    assert report.summaries[0].count == 6
    assert report.summaries[0].min_witness["x"] in {"01", "11"}
    assert report.summaries[0].max_witness["x"] in {"01", "11"}


def test_reverse_fit_gap_refuses_negative_epsilon(fixa, monkeypatch):
    # a negative extra budget would read lambda from the end of the curve
    def no_profile(*args):
        raise AssertionError("profiled before the refusal")

    monkeypatch.setattr("structlab.experiments.profile", no_profile)
    with pytest.raises(StructLabError, match="nonnegative, got \\(0, -3\\)"):
        reverse_fit_gap_report(fixa, list(fixa.universe_strings()), epsilons=(0, -3))


# ---------------------------------------------------------------------------
# half-block family gaps
# ---------------------------------------------------------------------------


def test_universal_gap_report_on_fixture(fixa):
    report = universal_gap_report(fixa, list(fixa.universe_strings()))
    assert report.strings_used == 4
    by_label = {s.label: s for s in report.summaries}
    for label in ("lambda_gap", "h_gap", "beta_gap", "dominance_slack"):
        assert by_label[label].count > 0
    # dominance slack is nonpositive by construction
    assert by_label["dominance_slack"].maximum <= 0
    witness = by_label["dominance_slack"].max_witness
    assert set(witness) == {"x", "set_program", "variant"}


# ---------------------------------------------------------------------------
# improvement slacks
# ---------------------------------------------------------------------------

WEIGHT_8 = """
data  0    @family:literal(n=8)
set   0    @family:cube(n=8)
set   10   @family:hamming(n=8)
set   111  @family:singletons(n=8)
"""


def test_improvement_slack_report_weight_family():
    sys = build_system(WEIGHT_8)
    # one or two strings per weight class, the structured corners included
    xs = [
        B(t)
        for t in (
            "00000000 00000011 00011001 00011010 00100000 00101000 "
            "01111111 10000000 11010001 11101101 11110100 11111111"
        ).split()
    ]
    report = improvement_slack_report(sys, xs, c=1.0, seeds=(0, 1, 2, 3))
    assert report.searches == 48
    assert report.qualifying_pairs >= 1
    assert report.traces_with_pairs >= 1
    assert report.improved_count <= report.qualifying_pairs
    assert report.slack.count == report.qualifying_pairs
    assert report.deficiency_drop.count == report.qualifying_pairs
    d = json.loads(encode(report, int_floats=False))
    assert d["searches"] == 48
    assert set(d["slack"]["max_witness"]) == {"x", "seed", "from", "to"}


def test_improvement_slack_report_empty_on_fixture(fixa):
    # one-bit universes never see a 2*log2(n) = 2-bit qualifying drop
    report = improvement_slack_report(fixa, list(fixa.universe_strings()), c=1.0, seeds=(0,))
    assert report.searches == 4
    assert report.qualifying_pairs == 0
    assert report.slack.count == 0
    assert report.slack.minimum is None


# ---------------------------------------------------------------------------
# the report battery
# ---------------------------------------------------------------------------


def test_report_family_systems_build():
    systems = build_report_family_systems()
    assert set(systems) == {"hamming-12", "patches-8", "cylinders-6"}
    assert systems["hamming-12"].universe_n == 12
    assert systems["patches-8"].universe_n == 8
    assert systems["cylinders-6"].universe_n == 6


CYL_4 = """
data  0    @family:literal(n=4)
set   0    @family:cube(n=4)
set   1    @family:cylinders(n=4)
"""


def test_generate_gap_reports_is_deterministic(tmp_path):
    systems = {"cyl-4": build_system(CYL_4)}
    first = generate_gap_reports(tmp_path / "a", systems=systems)
    second = generate_gap_reports(tmp_path / "b", systems=systems)
    assert sorted(first["files"]) == sorted(second["files"])
    for name in first["files"]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b

    payload = json.loads((tmp_path / "a" / "gaps_cyl-4.json").read_text())
    assert payload["system"] == "cyl-4"
    assert set(payload) >= {
        "reverse_fit_gap",
        "universal_family_gap",
        "additivity_defect",
        "improvement_slack",
        "c_sub",
    }
    nonstoch = json.loads((tmp_path / "a" / "nonstoch_12.json").read_text())
    assert nonstoch["ok"] is True
    index = json.loads((tmp_path / "a" / "index.json").read_text())
    assert "gaps_cyl-4.json" in index["files"]
    assert "nonstoch_12.json" in index["files"]
    assert all(name in first["seconds"] for name in ("cyl-4", "nonstoch"))


def _battery_on_weight_8(out, full):
    generate_gap_reports(out, systems={"hamming-8": build_system(WEIGHT_8)}, full=full)
    gaps = json.loads((out / "gaps_hamming-8.json").read_text())
    index = json.loads((out / "index.json").read_text())
    return gaps, index["parameters"]


def test_generate_gap_reports_samples_the_archived_sizes(tmp_path):
    gaps, parameters = _battery_on_weight_8(tmp_path, full=False)
    assert gaps["reverse_fit_gap"]["strings_used"] == 192
    assert gaps["universal_family_gap"]["strings_used"] == 32
    # 16 strings, each searched under both archived seeds
    assert gaps["improvement_slack"]["searches"] == 32
    assert parameters == {
        "c": 1.0,
        "epsilons": [0, 1, 2],
        "improvement_seeds": [0, 1],
        "improvement_strings": 16,
        "reverse_strings": 192,
        "universal_strings": 32,
    }


def test_generate_gap_reports_full_reaches_every_string(tmp_path):
    gaps, parameters = _battery_on_weight_8(tmp_path, full=True)
    assert gaps["reverse_fit_gap"]["strings_used"] == 256
    assert gaps["universal_family_gap"]["strings_used"] == 256
    assert gaps["improvement_slack"]["searches"] == 512
    assert parameters["reverse_strings"] is None
    assert parameters["universal_strings"] is None
    assert parameters["improvement_strings"] is None
