"""Planted non-stochastic strings and measured-gap experiment reports.

The exact inequalities of the core modules all run one way; their reverse
directions hold in the limit only up to machine-dependent constants, so
this package *measures* them instead of asserting them.  This module
collects those measurements into archivable JSON reports:

* ``make_nonstoch_system`` plants a string whose best-fit curve stays at a
  chosen deficiency level until a chosen budget and then drops to zero --
  the classical staircase certifying that no cheap sufficient explanation
  exists -- and ``verify_nonstoch`` checks the plan exactly against the
  synthesized codebook;
* ``additivity_defect_report`` measures, over every (string, model) pair,
  how far ``K(x)`` sits from ``K(S) + K(x|S)`` in both directions;
* ``reverse_fit_gap_report`` measures ``lambda(alpha+eps) - beta(alpha)
  - K(x)``, the reverse direction of the exact fit inequality;
* ``universal_gap_report`` aggregates the half-block family's signed gaps
  against exact profiles, plus the dominance slacks of every model;
* ``improvement_slack_report`` aggregates the deficiency slacks observed
  across large two-part improvements in anytime searches.

``generate_gap_reports`` runs the whole battery over a family of stock
systems and writes deterministic JSON files (no timestamps, sorted keys),
so reruns are byte-identical and diffs are meaningful.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .artifacts import number, write_json
from .codec import BitString
from .descsys import (
    MAX_UNIVERSE_BITS,
    DescriptionSystem,
    FiniteSet,
    build_system,
    enumeration_stream,
)
from .errors import StructLabError
from .rational import log2_display
from .search import anytime_search, improvement_audit
from .structfn import profile
from .unistat import sli_dominance_report, universal_family_report

__all__ = [
    "NonStochPlan",
    "NonStochReport",
    "make_nonstoch_system",
    "verify_nonstoch",
    "AdditivityRecord",
    "AdditivityReport",
    "additivity_defect_report",
    "GapSummary",
    "ReverseFitGapReport",
    "reverse_fit_gap_report",
    "UniversalGapReport",
    "universal_gap_report",
    "ImprovementSlackReport",
    "improvement_slack_report",
    "build_report_family_systems",
    "generate_gap_reports",
]


#: The archived battery: extra budgets, search seeds, the ``c`` of the
#: drop-by-``c*log2(n)`` relation, and the strings sampled per system by
#: the reverse-fit, half-block and improvement sections.
EPSILONS = (0, 1, 2)
IMPROVEMENT_SEEDS = (0, 1)
C = 1.0
SAMPLE_SIZES = {"reverse_strings": 192, "universal_strings": 32, "improvement_strings": 16}


def _sample_strings(
    sys: DescriptionSystem, size: "int | None", seed: int
) -> list[BitString]:
    universe = list(sys.universe_strings())
    if size is None or size >= len(universe):
        return universe
    rng = random.Random(seed)
    picked = rng.sample(universe, size)
    return sorted(picked, key=BitString.sort_key)


def _stratified_sample(
    sys: DescriptionSystem, size: "int | None", seed: int
) -> list[BitString]:
    """A seeded sample spread across weight classes.

    Uniform sampling concentrates on middle weights, where the simplest
    model is often already the best one; taking strings round-robin from
    every popcount class keeps the structured corners of the universe --
    where large improvements actually occur -- in the probe.
    """
    universe = list(sys.universe_strings())
    if size is None or size >= len(universe):
        return universe
    rng = random.Random(seed)
    classes: dict[int, list[BitString]] = {}
    for b in universe:
        classes.setdefault(bin(b.value).count("1"), []).append(b)
    pools = [rng.sample(v, len(v)) for _, v in sorted(classes.items())]
    picked: list[BitString] = []
    while len(picked) < size and any(pools):
        for pool in pools:
            if pool and len(picked) < size:
                picked.append(pool.pop())
    return sorted(picked, key=BitString.sort_key)


# ---------------------------------------------------------------------------
# planted non-stochastic strings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonStochPlan:
    """A synthesized system built around one deliberately atypical string.

    The codebook gives ``x`` a one-bit name, the full cube a one-bit name
    with a conditional shortcut that prices ``x`` at ``n - beta_level``
    bits inside it, and the singleton ``{x}`` a name of length ``alpha0``.
    Below budget ``alpha0`` the only model of ``x`` is the cube, where its
    deficiency is exactly ``beta_level``; at ``alpha0`` the singleton
    drops the deficiency to 0.
    """

    n: int
    alpha0: int
    beta_level: int
    x: BitString
    system: DescriptionSystem

    def expected_beta_keys(self) -> tuple:
        """The planted staircase as exact comparison keys per budget."""
        plateau = (Fraction(1 << self.beta_level),) * (self.alpha0 - 1)
        return (None,) + plateau + (Fraction(1),)


@dataclass(frozen=True)
class NonStochReport:
    """Exact check of a planted staircase against the synthesized codebook."""

    plan: NonStochPlan
    K_x: int
    c_sub: int
    actual_beta_keys: tuple
    ok: bool

    def beta_values(self) -> list[float]:
        return [
            math.inf if key is None else log2_display(key)
            for key in self.actual_beta_keys
        ]

    def to_json_dict(self) -> dict:
        return {
            "n": self.plan.n,
            "alpha0": self.plan.alpha0,
            "beta_level": self.plan.beta_level,
            "x": str(self.plan.x),
            "K_x": self.K_x,
            "c_sub": self.c_sub,
            "beta": [number(v) for v in self.beta_values()],
            "ok": self.ok,
        }


def make_nonstoch_system(
    n: int, alpha0: int, beta_level: int, seed: int = 0
) -> NonStochPlan:
    """Synthesize a system in which one string resists cheap explanation.

    The returned plan's string has best-fit deficiency exactly
    ``beta_level`` at every budget in ``[1, alpha0)`` and exactly 0 at
    ``alpha0``.  The data namespace stays total (a literal name for every
    string) and all Kraft sums stay within budget, so the system is a
    legal codebook, not a bookkeeping trick.
    """
    if not 1 <= n <= MAX_UNIVERSE_BITS:
        raise StructLabError(
            f"universe width must be in [1, {MAX_UNIVERSE_BITS}], got {n}"
        )
    if not 2 <= alpha0 <= 32:
        raise StructLabError(f"the drop budget must be in [2, 32], got {alpha0}")
    if not 1 <= beta_level <= n:
        raise StructLabError(
            f"the planted deficiency must be in [1, {n}], got {beta_level}"
        )
    rng = random.Random(seed)
    x = BitString.from_value(n, rng.randrange(1 << n))

    data = {BitString("0"): x}
    for v in range(1 << n):
        b = BitString.from_value(n, v)
        data[BitString("1") + b] = b

    cube = FiniteSet(n, range(1 << n))
    singleton_program = BitString("1" + "0" * (alpha0 - 1))
    sets = {BitString("0"): cube, singleton_program: FiniteSet(n, [x.value])}

    shortcut = BitString.from_value(n - beta_level, 0)
    shortcuts = {cube: {shortcut: x}}

    system = DescriptionSystem(n, data, sets, shortcuts)
    return NonStochPlan(n=n, alpha0=alpha0, beta_level=beta_level, x=x, system=system)


def verify_nonstoch(plan: NonStochPlan) -> NonStochReport:
    """Compare the planted staircase with the profile, key for key."""
    prof = profile(plan.system, plan.x)
    actual = tuple(prof.beta_key(alpha) for alpha in range(prof.alpha_max + 1))
    ok = actual == plan.expected_beta_keys() and prof.K_x == 1
    return NonStochReport(
        plan=plan,
        K_x=prof.K_x,
        c_sub=plan.system.c_sub,
        actual_beta_keys=actual,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# additivity (chain-rule) defects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditivityRecord:
    """One (string, model) pair's defect ``K(x) - K(S) - K(x|S)``."""

    x: BitString
    set_program: BitString
    K_x: int
    K_S: int
    K_cond: int
    defect: int


@dataclass(frozen=True)
class AdditivityReport:
    """Two-sided spread of the chain-rule defect across a whole system.

    The positive extreme is the system's subadditivity constant (two-part
    descriptions undershooting the plain name); the negative extreme says
    how far two-part descriptions can overshoot it.
    """

    pair_count: int
    c_sub: int
    max_defect: "int | None"
    min_defect: "int | None"
    max_record: "AdditivityRecord | None"
    min_record: "AdditivityRecord | None"
    histogram: dict


def additivity_defect_report(sys: DescriptionSystem) -> AdditivityReport:
    """Measure ``K(x) - K(S) - K(x|S)`` over every representable pair.

    One set-major walk over ``sys.set_entries()``, O(sum of |S|).  Each
    extreme record is the first pair in (x, entry rank) order to reach it.
    """
    histogram: dict[int, int] = {}
    highest = lowest = None  # least (-defect, v, rank) and (defect, v, rank)
    for rank, v, defect in sys._chain_rule_defects():
        histogram[defect] = histogram.get(defect, 0) + 1
        if highest is None or (-defect, v, rank) < highest:
            highest = (-defect, v, rank)
        if lowest is None or (defect, v, rank) < lowest:
            lowest = (defect, v, rank)

    def record(v: int, rank: int) -> AdditivityRecord:
        entry = sys.set_entries()[rank]
        k_x = sys.K_data(v)
        k_cond = int(sys.K_cond(v, entry.set))
        return AdditivityRecord(
            x=BitString.from_value(sys.universe_n, v),
            set_program=entry.witness_program,
            K_x=k_x,
            K_S=entry.K_S,
            K_cond=k_cond,
            defect=k_x - entry.K_S - k_cond,
        )

    max_rec = None if highest is None else record(highest[1], highest[2])
    min_rec = None if lowest is None else record(lowest[1], lowest[2])
    return AdditivityReport(
        pair_count=sum(histogram.values()),
        c_sub=sys.c_sub,
        max_defect=None if max_rec is None else max_rec.defect,
        min_defect=None if min_rec is None else min_rec.defect,
        max_record=max_rec,
        min_record=min_rec,
        histogram=histogram,
    )


# ---------------------------------------------------------------------------
# gap summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapSummary:
    """Count/min/max/mean of one measured quantity, with extreme witnesses."""

    label: str
    count: int
    minimum: "float | None"
    maximum: "float | None"
    mean: "float | None"
    min_witness: "dict | None"
    max_witness: "dict | None"

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "count": self.count,
            "min": number(self.minimum),
            "max": number(self.maximum),
            "mean": self.mean,
            "min_witness": self.min_witness,
            "max_witness": self.max_witness,
        }


def _summarize(label: str, samples: list) -> GapSummary:
    """Collapse (value, witness) samples into a GapSummary."""
    if not samples:
        return GapSummary(label, 0, None, None, None, None, None)
    lo = min(samples, key=lambda s: s[0])
    hi = max(samples, key=lambda s: s[0])
    total = sum(v for v, _ in samples)
    return GapSummary(
        label=label,
        count=len(samples),
        minimum=lo[0],
        maximum=hi[0],
        mean=total / len(samples),
        min_witness=lo[1],
        max_witness=hi[1],
    )


# ---------------------------------------------------------------------------
# reverse fit gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReverseFitGapReport:
    """Measured ``lambda(alpha+eps) - beta(alpha) - K(x)`` distributions.

    The exact inequality runs the other way (beta + K(x) never exceeds
    lambda by more than the subadditivity constant); this report measures
    how tightly the two-part curve, given a small extra budget, tracks the
    best fit plus the plain data cost.
    """

    epsilons: tuple
    strings_used: int
    summaries: tuple


def reverse_fit_gap_report(
    sys: DescriptionSystem, xs: "list[BitString]", epsilons: tuple = EPSILONS
) -> ReverseFitGapReport:
    if any(eps < 0 for eps in epsilons):
        raise StructLabError(f"extra budgets must be nonnegative, got {epsilons}")
    samples: dict[int, list] = {eps: [] for eps in epsilons}
    for x in xs:
        prof = profile(sys, x)
        for alpha in range(prof.alpha_max + 1):
            beta_key = prof.beta_key(alpha)
            if beta_key is None:
                continue
            beta = log2_display(beta_key)
            for eps in epsilons:
                bumped = alpha + eps
                if bumped > prof.alpha_max:
                    continue
                lam_key = prof.lambda_key(bumped)
                if lam_key is None:
                    continue
                gap = log2_display(lam_key) - beta - prof.K_x
                samples[eps].append((gap, {"x": str(x), "alpha": alpha}))
    summaries = tuple(
        _summarize(f"epsilon={eps}", samples[eps]) for eps in epsilons
    )
    return ReverseFitGapReport(
        epsilons=tuple(epsilons), strings_used=len(xs), summaries=summaries
    )


# ---------------------------------------------------------------------------
# half-block family gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniversalGapReport:
    """Half-block analogs vs exact profiles, plus dominance slacks."""

    strings_used: int
    summaries: tuple


def universal_gap_report(
    sys: DescriptionSystem, xs: "list[BitString]"
) -> UniversalGapReport:
    lambda_gaps: list = []
    h_gaps: list = []
    beta_gaps: list = []
    slacks: list = []
    for x in xs:
        rep = universal_family_report(sys, x)
        for row in rep.rows:
            witness = {"x": str(x), "alpha": row.alpha}
            if row.lambda_gap is not None and math.isfinite(row.lambda_gap):
                lambda_gaps.append((row.lambda_gap, witness))
            if row.h_gap is not None and math.isfinite(row.h_gap):
                h_gaps.append((row.h_gap, witness))
            if row.beta_gap is not None and math.isfinite(row.beta_gap):
                beta_gaps.append((row.beta_gap, witness))
        dom = sli_dominance_report(sys, x)
        for record in dom.records:
            if record.slack is None:
                continue
            slacks.append(
                (
                    float(record.slack),
                    {
                        "x": str(x),
                        "set_program": str(record.program),
                        "variant": record.variant,
                    },
                )
            )
    return UniversalGapReport(
        strings_used=len(xs),
        summaries=(
            _summarize("lambda_gap", lambda_gaps),
            _summarize("h_gap", h_gaps),
            _summarize("beta_gap", beta_gaps),
            _summarize("dominance_slack", slacks),
        ),
    )


# ---------------------------------------------------------------------------
# improvement slacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImprovementSlackReport:
    """Deficiency behavior across large two-part improvements.

    ``improved_count`` counts qualifying pairs whose deficiency did not
    increase; ``slack`` summarizes the extra bits each pair needed to meet
    the drop-by-``c*log2(n)`` relation.
    """

    c: float
    searches: int
    traces_with_pairs: int
    qualifying_pairs: int
    improved_count: int
    slack: GapSummary
    deficiency_drop: GapSummary


def improvement_slack_report(
    sys: DescriptionSystem,
    xs: "list[BitString]",
    c: float = C,
    seeds: tuple = IMPROVEMENT_SEEDS,
) -> ImprovementSlackReport:
    alpha = sys.max_set_program_length()
    searches = 0
    traces_with_pairs = 0
    qualifying = 0
    improved = 0
    slack_samples: list = []
    drop_samples: list = []
    streams = {s: enumeration_stream(sys, s) for s in seeds}
    for x in xs:
        for s in seeds:
            trace = anytime_search(sys, x, alpha, streams[s], "mdl")
            audit = improvement_audit(sys, trace, c=c)
            searches += 1
            if audit.qualifying_count:
                traces_with_pairs += 1
            for pair in audit.pairs:
                qualifying += 1
                witness = {
                    "x": str(x),
                    "seed": s,
                    "from": str(pair.program_1),
                    "to": str(pair.program_2),
                }
                slack_samples.append((pair.slack_needed, witness))
                drop_samples.append((pair.delta_2 - pair.delta_1, witness))
                if pair.delta_2 <= pair.delta_1:
                    improved += 1
    return ImprovementSlackReport(
        c=c,
        searches=searches,
        traces_with_pairs=traces_with_pairs,
        qualifying_pairs=qualifying,
        improved_count=improved,
        slack=_summarize("slack_needed", slack_samples),
        deficiency_drop=_summarize("deficiency_drop", drop_samples),
    )


# ---------------------------------------------------------------------------
# stock report systems and the report battery
# ---------------------------------------------------------------------------

_HAMMING_12 = """
data  0    @family:literal(n=12)
set   0    @family:cube(n=12)
set   10   @family:hamming(n=12)
set   111  @family:singletons(n=12)
"""

_PATCHES_8 = """
data  .    @family:bernoulli(n=8)
set   0    @family:cube(n=8)
set   10   @family:patches(n=8,m=4)
set   11   @family:singletons(n=8)
"""

_CYLINDERS_6 = """
data  0    @family:literal(n=6)
set   0    @family:cube(n=6)
set   1    @family:cylinders(n=6)
"""


def build_report_family_systems() -> dict:
    """The stock systems the gap battery runs over (n = 6, 8, 12)."""
    return {
        "hamming-12": build_system(_HAMMING_12),
        "patches-8": build_system(_PATCHES_8),
        "cylinders-6": build_system(_CYLINDERS_6),
    }


def generate_gap_reports(
    out_dir, *, systems: "dict | None" = None, full: bool = False
) -> dict:
    """Run the measured-gap battery and archive it as deterministic JSON.

    One ``gaps_<system>.json`` per system (reverse fit gaps, half-block
    gaps, additivity defects, improvement slacks), one planted-staircase
    report, and an ``index.json``.  Each section samples the archived
    number of strings, or with ``full`` every string of the universe.
    File contents carry no timestamps and keys are sorted, so identical
    inputs give byte-identical archives.  Returns the written file names
    and per-section wall-clock seconds.
    """
    out = Path(out_dir)
    if systems is None:
        systems = build_report_family_systems()
    sizes = {section: None if full else size for section, size in SAMPLE_SIZES.items()}
    payloads: dict = {}
    seconds: dict[str, float] = {}

    for name, system in sorted(systems.items()):
        start = time.perf_counter()
        payloads[f"gaps_{name}.json"] = {
            "system": name,
            "universe_n": system.universe_n,
            "set_programs": len(system.set_programs),
            "data_programs": len(system.data_programs),
            "c_sub": system.c_sub,
            "reverse_fit_gap": reverse_fit_gap_report(
                system, _sample_strings(system, sizes["reverse_strings"], 0)
            ),
            "universal_family_gap": universal_gap_report(
                system, _sample_strings(system, sizes["universal_strings"], 0)
            ),
            "additivity_defect": additivity_defect_report(system),
            "improvement_slack": improvement_slack_report(
                system, _stratified_sample(system, sizes["improvement_strings"], 0)
            ),
        }
        seconds[name] = time.perf_counter() - start

    start = time.perf_counter()
    plan = make_nonstoch_system(12, 5, 6, seed=0)
    payloads["nonstoch_12.json"] = verify_nonstoch(plan)
    seconds["nonstoch"] = time.perf_counter() - start

    payloads["index.json"] = {
        "files": sorted(payloads),
        "parameters": {
            "epsilons": EPSILONS, "improvement_seeds": IMPROVEMENT_SEEDS, "c": C, **sizes
        },
    }
    for filename, payload in payloads.items():
        write_json(out / filename, payload, int_floats=False)
    return {"out_dir": str(out), "files": list(payloads), "seconds": seconds}
