"""Planted non-stochastic systems and the measured-gap report battery."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from structlab import experiments, unistat
from structlab.artifacts import encode
from structlab.codec import BitString
from structlab.descsys import (
    MAX_UNIVERSE_BITS,
    DescriptionSystem,
    FiniteSet,
    build_system,
)
from structlab.errors import StructLabError
from structlab.experiments import (
    _sample_strings,
    _stratified_sample,
    _Tally,
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
from .oracles import (
    oracle_additivity_report,
    oracle_c_sub,
    oracle_gap_summary,
    oracle_sample_strings,
    oracle_stratified_sample,
)

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
    d = json.loads(encode(report))
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


@pytest.mark.parametrize(
    "n, alpha0, beta_level", [(12, 5, 6), (12, 9, 4), (3, 2, 3), (6, 32, 1)]
)
def test_nonstoch_descriptor_prices_the_planted_string(n, alpha0, beta_level):
    plan = make_nonstoch_system(n, alpha0, beta_level, seed=0)
    sys = plan.system
    cube = FiniteSet(n, range(1 << n))
    assert sys.K_data(plan.x) == 1
    assert sys.K_set(cube) == 1
    assert sys.K_set(FiniteSet(n, [plan.x])) == alpha0
    assert sys.K_cond(plan.x, cube) == n - beta_level
    assert verify_nonstoch(plan).ok


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
    d = json.loads(encode(report))
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


def test_battery_walks_each_system_once_and_c_sub_fills_no_table(tmp_path, monkeypatch):
    walks = []
    original = DescriptionSystem._walk_pairs

    def counted(self, found):
        walks.append(self)
        return original(self, found)

    monkeypatch.setattr(DescriptionSystem, "_walk_pairs", counted)
    system = build_system(WEIGHT_8)
    assert system.c_sub == additivity_defect_report(system).max_defect
    # c_sub leaves the containing table unfilled, so a lone profile still scans
    assert walks == [system] and system._containing is None
    walks.clear()
    system = build_system(WEIGHT_8)
    generate_gap_reports(tmp_path, systems={"hamming-8": system})
    # one walk fills the containing table and takes the census for c_sub and
    # the report; the planted-staircase system reads c_sub alone
    assert system in walks and all(walks.count(s) == 1 for s in walks)


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
        pairs = [
            (rank, v, sys.K_data(v) - entry.K_S - sys.K_cond(v, entry.set))
            for rank, entry in enumerate(sys.set_entries())
            for v in entry.set.values
        ]
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
# gap summaries
# ---------------------------------------------------------------------------


def _tally_of(values) -> tuple:
    """A tally fed ``values`` with witness ``{"i": position}``, and the
    number of witnesses it built."""
    built = []

    def witness(i):
        built.append(i)
        return {"i": i}

    tally = _Tally("q", witness)
    for i, v in enumerate(values):
        tally.add(v, i)
    return tally.summary(), built


@given(
    st.lists(
        st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 1e16, -1e16]) | st.integers(-3, 3),
        max_size=30,
    )
)
@example([1.0, 3.0, 1.0, 3.0, 2.0])  # ties at both extremes keep the first
@example([2, 0.5, 2, 0.5])
@example([])
def test_running_tally_matches_the_list_summary(values):
    summary, built = _tally_of(values)
    assert summary == oracle_gap_summary("q", [(v, {"i": i}) for i, v in enumerate(values)])
    # a witness is built only for a sample that becomes a new extreme
    assert built == sorted(set(built))
    assert set(built) >= {w["i"] for w in (summary.min_witness, summary.max_witness) if w}


def test_running_tally_builds_a_witness_per_new_extreme_only():
    summary, built = _tally_of([5, 1, 2, 3, 4, 0.5, 5])
    assert built == [0, 1, 5]
    assert (summary.min, summary.max) == (0.5, 5)
    assert (summary.min_witness, summary.max_witness) == ({"i": 5}, {"i": 0})


def test_running_tally_sums_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the running sum is 0.0; the
    # compensated sum() of Python 3.12 and later would keep the 1.0
    values = [1e16, 1.0, -1e16]
    summary, _ = _tally_of(values)
    assert summary.mean == 0.0
    assert oracle_gap_summary("q", [(v, None) for v in values]).mean == 0.0
    assert summary.count == 3 and (summary.min, summary.max) == (-1e16, 1e16)


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
    assert s0.min == 0.0
    assert s0.max == 2.0
    assert s0.mean == pytest.approx(0.75)
    assert s0.max_witness == {"x": B("00"), "alpha": 1}
    assert s0.min_witness == {"x": B("10"), "alpha": 1}
    assert by_label["epsilon=1"].count == 8
    assert by_label["epsilon=2"].count == 4
    assert by_label["epsilon=2"].mean == pytest.approx(0.75)


def test_reverse_fit_gap_sampling(fixa):
    # the report measures exactly the strings it is given
    report = reverse_fit_gap_report(fixa, [B("01"), B("11")], epsilons=(0,))
    assert report.strings_used == 2
    assert report.summaries[0].count == 6
    assert report.summaries[0].min_witness["x"] in {B("01"), B("11")}
    assert report.summaries[0].max_witness["x"] in {B("01"), B("11")}


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
    assert by_label["dominance_slack"].max <= 0
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
    d = json.loads(encode(report))
    assert d["searches"] == 48
    assert set(d["slack"]["max_witness"]) == {"x", "seed", "from", "to"}


def test_improvement_slack_report_counts_exact_deficiency_ties():
    # Index codes price |S| = 5 and |S| = 20 at the same deficiency,
    # 5/8 = 20/32, but the floats log2(5) - 3 and log2(20) - 5 differ in the
    # last bit.  The 32-fold two-part drop qualifies (n**2 = 25), and the
    # exact comparison counts the tie as not worse.
    sys = build_system(
        "data 0 @family:literal(n=5)\n"
        f"set 0 {FiniteSet(5, range(20)).show()}\n"
        f"set 10000000 {FiniteSet(5, range(5)).show()}\n"
    )
    report = improvement_slack_report(sys, [B("00000")], c=1.0, seeds=(0,))
    assert report.qualifying_pairs == 1
    assert report.improved_count == 1


def test_improvement_slack_report_empty_on_fixture(fixa):
    # one-bit universes never see a 2*log2(n) = 2-bit qualifying drop
    report = improvement_slack_report(fixa, list(fixa.universe_strings()), c=1.0, seeds=(0,))
    assert report.searches == 4
    assert report.qualifying_pairs == 0
    assert report.slack.count == 0
    assert report.slack.min is None


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


@pytest.mark.parametrize("full", [False, True])
def test_gap_battery_never_scans_sets_per_string(tmp_path, monkeypatch, full):
    system = build_system(WEIGHT_8)
    lookups = {"tabled": 0, "scanned": 0}
    original = DescriptionSystem.entries_containing

    def counted(self, x):
        if self is system:  # the planted-staircase section profiles one string
            lookups["scanned" if self._containing is None else "tabled"] += 1
        return original(self, x)

    monkeypatch.setattr(DescriptionSystem, "entries_containing", counted)
    generate_gap_reports(tmp_path, systems={"hamming-8": system}, full=full)
    assert lookups["tabled"] >= 256 and lookups["scanned"] == 0


def test_gap_battery_builds_no_section_or_index(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(unistat.EnumeratedD, "section", counted(unistat.EnumeratedD.section))
    for name in ("build_index", "build_Sli"):
        monkeypatch.setattr(unistat, name, counted(getattr(unistat, name)))
    _battery_on_weight_8(tmp_path, full=False)
    assert calls == []


def test_gap_sections_format_no_string(monkeypatch):
    # Witnesses keep strings and programs as BitStrings, which the encoder
    # spells; no str() while measuring, and no witness dict per sample.
    sys = build_system(WEIGHT_8)
    xs = list(sys.universe_strings())
    calls = {"str": 0, "witness": 0}
    original_str = BitString.__str__

    def counted_str(self):
        calls["str"] += 1
        return original_str(self)

    def counted(fn):
        def wrapper(*args):
            calls["witness"] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(BitString, "__str__", counted_str)
    for name in ("_at_budget", "_dominance_witness"):
        monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
    for section in (reverse_fit_gap_report, universal_gap_report):
        calls.update(str=0, witness=0)
        report = section(sys, xs)
        samples = sum(summary.count for summary in report.summaries)
        assert calls["str"] == 0
        assert calls["witness"] * 20 < samples
        encode(report)
        assert 0 < calls["str"] <= 2 * calls["witness"]  # the counter sees spellings


def test_induced_enumeration_makes_no_bitstring(monkeypatch):
    sys = build_system(WEIGHT_8)
    made = []
    init, trusted = BitString.__init__, BitString._trusted.__func__

    def counted_init(self, *args):
        made.append("init")
        init(self, *args)

    def counted_trusted(cls, *args):
        made.append("trusted")
        return trusted(cls, *args)

    # every BitString is made by one of these two
    monkeypatch.setattr(BitString, "__init__", counted_init)
    monkeypatch.setattr(BitString, "_trusted", classmethod(counted_trusted))
    d = unistat.induced_data_D(sys)
    assert made == []
    assert d.N_l == 256 and d.is_injective()
    B("0"), B.from_value(1, 0)
    assert made == ["init", "trusted"]  # the counters see constructions


@pytest.mark.parametrize("name", ["hamming-12", "patches-8", "cylinders-6", "random"])
def test_sampling_helpers_return_the_listed_strings(name):
    sys = random_system(5, n=5) if name == "random" else build_report_family_systems()[name]
    size = sys.universe_size()
    for k in (1, 16, 32, 192, size - 1, size, size + 1, None):
        for seed in (0, 3):
            assert _sample_strings(sys, k, seed) == oracle_sample_strings(sys, k, seed)
            assert _stratified_sample(sys, k, seed) == oracle_stratified_sample(sys, k, seed)


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
