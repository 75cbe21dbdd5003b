"""Acceptance gate: twelve scaled-up exact properties, one summary line each.

Every test here prints one ``ACCEPTANCE Cnn PASS/FAIL`` line (shown by the
``-rP`` report option) and backs it with assertions over large randomized
batteries.  Everything exact stays exact: curve values are compared as
integer / Fraction keys, probability mass as Fractions, and counting claims
as integer inequalities.  C11 regenerates the measured-gap archive into a
temporary directory and byte-compares it with ``reports/`` at the
repository root.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from structlab.codec import BitString
from structlab.descsys import (
    DescriptionSystem,
    FiniteSet,
    build_system,
    enumeration_stream,
)
from structlab.errors import RefusalError
from structlab.experiments import (
    build_report_family_systems,
    generate_gap_reports,
    make_nonstoch_system,
    verify_nonstoch,
)
from structlab.modelclasses import (
    ProbModel,
    expand_set,
    probability_level,
    restrict_to_set,
)
from structlab.predict import (
    PredictionStrategy,
    codebook_from_sets,
    evaluate_loss,
    set_to_strategy,
    snooping_curve,
    strategy_to_set,
)
from structlab.search import anytime_search, mdl_guarantee_holds
from structlab.structfn import deficiency_tail_count, profile
from structlab.synth import CoverRecord, cover_family, synthesize, analog_curve
from structlab.unistat import (
    EnumeratedD,
    build_Sli,
    induced_data_D,
    induced_Dk,
    muchnik_lambda,
    reconstruct_from_prefix,
)

from .gensys import random_system
from .oracles import (
    oracle_c_sub,
    oracle_critical_alphas,
    oracle_K_data,
    oracle_mss,
    oracle_pareto_triples,
    oracle_profile_arrays,
)

B = BitString
REPO_ROOT = Path(__file__).resolve().parent.parent


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE C{num:02d} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared randomized battery: 100 systems, widths 2..8, <= 500 programs each
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def battery():
    systems = []
    for seed in range(70):
        systems.append(random_system(seed))
    for seed in range(70, 85):
        systems.append(random_system(seed, n=7, max_sets=20))
    for seed in range(85, 100):
        systems.append(random_system(seed, n=8, max_sets=20))
    for sys in systems:
        programs = (
            len(sys.data_programs)
            + len(sys.set_programs)
            + sum(len(t) for t in sys.cond_shortcuts.values())
        )
        assert sys.universe_n <= 10 and programs <= 500
    return systems


# ---------------------------------------------------------------------------
# C1 — profiles bit-identical to the naive oracle
# ---------------------------------------------------------------------------


def test_c01_oracle_equivalence(battery):
    t0 = time.perf_counter()
    cells = strings = 0
    mismatches = []
    for sys_i, sys in enumerate(battery):
        c_sub = oracle_c_sub(sys)
        if sys.c_sub != c_sub:
            mismatches.append((sys_i, "c_sub"))
        alpha_max = sys.max_set_program_length() + 1
        for v in range(sys.universe_size()):
            x = B.from_value(sys.universe_n, v)
            prof = profile(sys, x, alpha_max=alpha_max)
            strings += 1
            if prof.K_x != oracle_K_data(sys, x):
                mismatches.append((sys_i, v, "K_x"))
            h_rows, lam_rows, beta_rows = oracle_profile_arrays(sys, x, alpha_max)
            for alpha in range(alpha_max + 1):
                cells += 1
                for mine, theirs in (
                    (prof.h_rows[alpha], h_rows[alpha]),
                    (prof.lambda_rows[alpha], lam_rows[alpha]),
                    (prof.beta_rows[alpha], beta_rows[alpha]),
                ):
                    if theirs is None:
                        ok = mine is None
                    else:
                        ok = (
                            mine is not None
                            and mine.set == theirs["set"]
                            and mine.K_S == theirs["K"]
                            and mine.witness_program == theirs["witness"]
                        )
                    if not ok:
                        mismatches.append((sys_i, v, alpha))
            if list(prof.critical_alphas) != oracle_critical_alphas(lam_rows):
                mismatches.append((sys_i, v, "critical"))
            mss = oracle_mss(sys, x, lam_rows, c_sub)
            mine_mss = None if prof.sufficiency is None else prof.sufficiency.alpha
            if mine_mss != mss:
                mismatches.append((sys_i, v, "mss"))
            if [
                (p.K_S, p.delta_key, p.lambda_key) for p in prof.pareto
            ] != oracle_pareto_triples(sys, x):
                mismatches.append((sys_i, v, "pareto"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0 and len(battery) >= 100
    report(
        1,
        ok,
        f"{len(battery)} systems, {strings} strings, {cells} curve cells "
        f"bit-identical to the naive oracle in {elapsed:.1f}s"
        + (f"; first mismatches {mismatches[:3]}" if mismatches else ""),
    )


# ---------------------------------------------------------------------------
# C2 — definitional inequalities, exact, over all x and alpha
# ---------------------------------------------------------------------------


def test_c02_definitional_inequalities(battery, fixa):
    families = build_report_family_systems()
    systems = list(battery) + [fixa, families["cylinders-6"], families["patches-8"]]
    checks = 0
    violations = []
    for sys_i, sys in enumerate(systems):
        c = sys.c_sub
        alpha_max = sys.max_set_program_length() + 1
        for v in range(sys.universe_size()):
            x = B.from_value(sys.universe_n, v)
            prof = profile(sys, x, alpha_max=alpha_max)
            kx = prof.K_x
            # K(x) <= two-part cost + c_sub for every representable S holding x
            for e in sys.entries_containing(x):
                checks += 1
                if kx > e.K_S + e.set.ceil_log_card + c:
                    violations.append((sys_i, v, "K-vs-Lambda"))
            prev_h = prev_l = prev_b = None
            for alpha in range(alpha_max + 1):
                h, l, b = prof.h_key(alpha), prof.lambda_key(alpha), prof.beta_key(alpha)
                checks += 1
                if prev_h is not None and (h is None or h > prev_h):
                    violations.append((sys_i, v, alpha, "h-monotone"))
                if prev_l is not None and (l is None or l > prev_l):
                    violations.append((sys_i, v, alpha, "lambda-monotone"))
                if prev_b is not None and (b is None or b > prev_b):
                    violations.append((sys_i, v, alpha, "beta-monotone"))
                prev_h, prev_l, prev_b = h or prev_h, l or prev_l, b or prev_b
                if h is not None and l > h * (1 << alpha):
                    violations.append((sys_i, v, alpha, "lambda-vs-h"))
                if b is not None:
                    lhs = b * (1 << kx)
                    rhs = Fraction(l) * Fraction(1 << c) if c >= 0 else Fraction(l, 1 << -c)
                    if lhs > rhs:
                        violations.append((sys_i, v, alpha, "beta-vs-lambda"))
    ok = not violations
    report(
        2,
        ok,
        f"{checks} exact inequality checks over {len(systems)} systems"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C3 — deficiency tail bound
# ---------------------------------------------------------------------------


def test_c03_deficiency_tail(battery, fixa):
    systems = list(battery[:40]) + [fixa]
    checks = 0
    violations = []
    for sys_i, sys in enumerate(systems):
        seen = set()
        for e in sys.set_entries():
            if e.set in seen:
                continue
            seen.add(e.set)
            ceil = e.set.ceil_log_card
            for d in range(0, ceil + 5):
                checks += 1
                count = deficiency_tail_count(sys, e.set, d)
                if Fraction(count) > Fraction(1 << ceil, 1 << d):
                    violations.append((sys_i, str(e.witness_program), d))
    ok = not violations
    report(
        3,
        ok,
        f"{checks} tail bounds over {len(systems)} systems"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C4 — prediction / snooping exactness
# ---------------------------------------------------------------------------

WIDE_12 = """
data 0   @family:literal(n=12)
set  0   @family:cube(n=12)
set  10  000000000001,000000000010,000000000100,000000001000,000000010000,000000100000,000001000000,000010000000,000100000000,001000000000,010000000000,100000000000
set  110 000000000000
"""


def random_strategy(rng: random.Random, n: int) -> PredictionStrategy:
    table = {}
    for length in range(n):
        for v in range(1 << length):
            den = rng.randint(1, 9)
            table[B.from_value(length, v)] = Fraction(rng.randint(0, den), den)
    return PredictionStrategy(n, table)


def test_c04_snooping_exactness(battery):
    sums = losses = caps = rows = 0
    violations = []

    # (a) realized products always sum to exactly 1
    rng = random.Random(77)
    strategies = [random_strategy(rng, rng.randint(1, 8)) for _ in range(40)]
    for sys in battery[:10]:
        for e in sys.set_entries():
            strategies.append(set_to_strategy(e.set))
    for strat in strategies:
        sums += 1
        if strat.kraft_total() != 1:
            violations.append(("kraft", strat.n))

    # (b) membership loss is exactly log2 |A| under the set strategy,
    # (c) level sets of a strategy stay within the dyadic budget
    for sys in battery[:10]:
        for e in sys.set_entries():
            strat = set_to_strategy(e.set)
            for x in e.set:
                losses += 1
                if evaluate_loss(strat, x).product != Fraction(1, e.set.cardinality):
                    violations.append(("loss", str(x)))
    for strat in strategies[:40]:
        for m in range(0, strat.n + 2):
            caps += 1
            if strategy_to_set(strat, m).cardinality > (1 << m):
                violations.append(("cap", strat.n, m))

    # (d) snooping curves equal size curves on paired codebooks, up to the
    # 4,110 set programs of the 12-bit family system
    wide = build_system(WIDE_12)
    hamming = build_report_family_systems()["hamming-12"]
    paired = [(sys, None) for sys in battery[:25]] + [
        (wide, ["000000000000", "000000000001", "101010101010"]),
        (hamming, ["000000000000", "111111111111", "101010101010"]),
    ]
    for sys, xs in paired:
        codebook = codebook_from_sets(sys)
        strings = (
            [B(s) for s in xs]
            if xs is not None
            else list(sys.universe_strings())
        )
        for x in strings:
            prof = profile(sys, x)
            curve = snooping_curve(codebook, x, alpha_max=prof.alpha_max)
            for alpha in range(prof.alpha_max + 1):
                rows += 1
                h = prof.h_key(alpha)
                row = curve.rows[alpha]
                if h is None:
                    ok = row.product is None or row.product == 0
                else:
                    ok = row.product == Fraction(1, h)
                if not ok:
                    violations.append(("curve", str(x), alpha))
    ok = not violations
    report(
        4,
        ok,
        f"{sums} product sums, {losses} member losses, {caps} level-set caps, "
        f"{rows} snooping-vs-size rows, all exact"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C5 — synthesis counting claims over adversarial streams
# ---------------------------------------------------------------------------


def random_target(rng):
    k = rng.randint(0, 4)
    target = [k]
    for _ in range(k):
        target.append(target[-1] + rng.randint(0, 1))
    target.reverse()
    return tuple(target)


def greedy_adversary(rng, target, universe):
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


def test_c05_synthesis_counting():
    runs = 0
    violations = []
    for seed in range(1000):
        rng = random.Random(seed)
        target = random_target(rng)
        n = target[0]
        width = max(min(n + rng.randint(0, 1), 8), n, 1)
        extra = rng.randint(0, 3) if width > n else 0
        universe = FiniteSet(width, range(min((1 << n) + extra, 1 << width)))
        run = synthesize(target, universe, greedy_adversary(rng, target, universe), n=n)
        runs += 1
        # per-level replacement counts within 2**(i+1)
        if not run.replacement_bounds_ok:
            violations.append((seed, "bounds"))
        if any(
            count > (1 << (i + 1)) for i, count in enumerate(run.replacement_counts)
        ):
            violations.append((seed, "counts"))
        # the counting certificate: the certificate witness survives every
        # event cheap enough to have constrained it
        cert = analog_curve(run.events, run.certificate_witness, run.k)
        if any(c is not None and c < target[a] for a, c in enumerate(cert)):
            violations.append((seed, "certificate"))
    ok = runs >= 1000 and not violations
    report(
        5,
        ok,
        f"{runs} adversarial streams, replacement counts within 2^(i+1), "
        "certificate never violated"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C6 — covering bounds
# ---------------------------------------------------------------------------


def test_c06_cover_bounds():
    violations = []
    # parametric doubled families: 2**(a+1) distinct sets through x fire
    # exactly one chop that covers x alone
    for a in (1, 2, 3, 4):
        records = [
            CoverRecord(FiniteSet(6, [0, filler]), 3, a)
            for filler in range(1, 2 ** (a + 1) + 1)
        ]
        rep = cover_family(records, 0, delta=0)
        if not (
            rep.threshold == 2**a
            and rep.covered
            and rep.blocks == (FiniteSet(6, [0]),)
            and rep.block_budget_ok
        ):
            violations.append(("doubled", a))
        half = cover_family(records[: 2**a], 0, delta=0)
        if half.covered or half.multiplicity_of_x != 2**a:
            violations.append(("half", a))

    # randomized records: whenever multiplicity reaches 2t the target is
    # covered, and the block count / block sizes stay within the budget
    covered_checked = 0
    for seed in range(400):
        rng = random.Random(seed)
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
        if not any(x in r.set for r in records):
            continue
        rep = cover_family(records, x, delta=rng.choice([None, 0, 1, 2, 3]))
        if not rep.block_budget_ok:
            violations.append((seed, "budget"))
        if any(s.cardinality > rep.block_capacity for s in rep.blocks):
            violations.append((seed, "capacity"))
        if rep.multiplicity_of_x >= 2 * rep.threshold:
            covered_checked += 1
            if not rep.covered:
                violations.append((seed, "2t"))
    ok = not violations and covered_checked > 50
    report(
        6,
        ok,
        f"parametric families a in 1..4 plus {covered_checked} randomized "
        "2t-coverage firings, block budgets exact"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C7 — half blocks and counting reconstruction
# ---------------------------------------------------------------------------


def random_enumeration(rng: random.Random) -> EnumeratedD:
    n = rng.randint(2, 5)
    count = rng.randint(1, 1 << n)
    values = rng.sample(range(1 << n), count)
    pairs = [(B.from_value(n, v), rng.randint(0, 6)) for v in values]
    rng.shuffle(pairs)
    return EnumeratedD(pairs)


def test_c07_half_blocks_and_reconstruction(battery):
    blocks = refusals = recon = 0
    violations = []
    enumerations = [induced_data_D(sys) for sys in battery[:60]]
    rng = random.Random(123)
    enumerations += [random_enumeration(rng) for _ in range(200)]
    for d_i, d in enumerate(enumerations):
        count_bits = format(d.N_l, f"0{d.width}b")
        for i in range(d.width):
            if count_bits[i] == "1":
                block = build_Sli(d, i)
                blocks += 1
                if block.cardinality != 1 << (d.width - i - 1):
                    violations.append((d_i, i, "size"))
            else:
                refusals += 1
                with pytest.raises(RefusalError):
                    build_Sli(d, i)
        top = max(level for _, level in d.order)
        for i in range(top + 2):
            recon += 1
            want = frozenset(o for o, level in d.order if level <= i)
            if set(reconstruct_from_prefix(d, i).objects) != want:
                violations.append((d_i, i, "reconstruction"))
    ok = not violations and blocks > 200
    report(
        7,
        ok,
        f"{blocks} full half-blocks sized exactly, {refusals} refusals on "
        f"empty bits, {recon} counting reconstructions exact"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C8 — curve reconstruction from a truncated enumeration
# ---------------------------------------------------------------------------


def test_c08_muchnik_reconstruction(battery):
    systems = list(battery)
    for seed in range(100, 150):
        systems.append(random_system(seed, cheap_singletons=(seed % 2 == 0)))
    cells = defined = 0
    violations = []
    for sys_i, sys in enumerate(systems):
        for v in range(sys.universe_size()):
            x = B.from_value(sys.universe_n, v)
            # the budget where a model first reaches K(x) with zero slack
            prof = profile(sys, x, mss_slack=0)
            if prof.sufficiency is None:
                continue
            defined += 1
            alpha0 = prof.sufficiency.alpha
            k = max(prof.K_x, alpha0)
            curve = muchnik_lambda(induced_Dk(sys, k), x, k, alpha0)
            entries = sys.entries_containing(x)
            for alpha in range(alpha0 + 1):
                cells += 1
                want = min(
                    (e.K_S + e.set.ceil_log_card for e in entries if e.K_S <= alpha),
                    default=None,
                )
                if curve.values[alpha] != want:
                    violations.append((sys_i, v, alpha))
    ok = not violations and cells >= 4000
    report(
        8,
        ok,
        f"{defined} strings with an exact sufficient budget, {cells} curve "
        "cells reproduced from truncated enumerations"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C9 — probability and function model bounds
# ---------------------------------------------------------------------------


def random_pmf(rng: random.Random):
    n = rng.randint(1, 8)
    support = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 24)))
    weights = [rng.randint(1, 20) for _ in support]
    total = sum(weights)
    pmf = {
        B.from_value(n, v): Fraction(w, total) for v, w in zip(support, weights)
    }
    return ProbModel(n, pmf), rng.choice(list(pmf))


def test_c09_model_class_bounds():
    pmfs = 0
    violations = []
    rng = random.Random(99)
    for _ in range(1000):
        model, x = random_pmf(rng)
        restriction = restrict_to_set(model, x)
        pmfs += 1
        p = model.probability(x)
        card = restriction.cardinality
        if not restriction.holds:
            violations.append(("holds", model.n, str(x)))
        if not Fraction(card) * p < 2:
            violations.append(("2/p", model.n, str(x)))
        if not card < (1 << (restriction.m + 1)):
            violations.append(("2^m+1", model.n, str(x)))
        lvl = probability_level(p)
        if not (Fraction(1, 1 << (lvl + 1)) < p <= Fraction(1, 1 << lvl)):
            violations.append(("level", model.n, str(x)))

    # frozen translation round trips
    halves = expand_set(FiniteSet(2, ["00", "01"]), "pmf")
    if halves != ProbModel(2, {"00": Fraction(1, 2), "01": Fraction(1, 2)}):
        violations.append(("expand-pmf",))
    fn = expand_set(FiniteSet(2, ["00", "01", "10"]), "fn")
    if fn.arg_len != 2 or fn.value(B("11")) != B("00"):
        violations.append(("expand-fn-wrap",))
    for card in range(1, 8):
        s = FiniteSet(3, range(card))
        r = restrict_to_set(expand_set(s, "fn"), B.from_value(3, card - 1))
        if r.set != s or r.data_length != s.ceil_log_card or not r.holds:
            violations.append(("fn-round-trip", card))
    ok = pmfs >= 1000 and not violations
    report(
        9,
        ok,
        f"{pmfs} random rational pmfs within both cardinality bounds, "
        "translation round trips exact"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C10 — anytime search against the exact curves
# ---------------------------------------------------------------------------


def test_c10_anytime_search(battery):
    searches = 0
    violations = []
    seeds = range(10)
    for sys_i, sys in enumerate(battery[:12]):
        alpha = sys.max_set_program_length()
        step = max(1, sys.universe_size() // 8)
        xs = [B.from_value(sys.universe_n, v) for v in range(0, sys.universe_size(), step)]
        streams = [enumeration_stream(sys, seed) for seed in seeds]
        for x in xs:
            prof = profile(sys, x, alpha_max=alpha)
            want = {
                "mdl": prof.lambda_key(alpha),
                "ml": prof.h_key(alpha),
                "direct": prof.beta_key(alpha),
            }
            for mode in ("mdl", "ml", "direct"):
                finals = set()
                for stream in streams:
                    trace = anytime_search(sys, x, alpha, stream, mode=mode)
                    searches += 1
                    final = (
                        trace.declarations[-1].objective_key
                        if trace.declarations
                        else None
                    )
                    finals.add(final)
                    if final != want[mode]:
                        violations.append((sys_i, str(x), mode, "final"))
                    if mode in ("mdl", "ml"):
                        keys = [dec.objective_key for dec in trace.declarations]
                        if any(b >= a for a, b in zip(keys, keys[1:])):
                            violations.append((sys_i, str(x), mode, "redeclared"))
                        if mode == "mdl" and not mdl_guarantee_holds(sys, trace):
                            violations.append((sys_i, str(x), "guarantee"))
                if len(finals) != 1:
                    violations.append((sys_i, str(x), mode, "seed-dependent"))
    ok = not violations and searches >= 10 * 3 * 12
    report(
        10,
        ok,
        f"{searches} searches across 10 seeds and 3 modes: finals exact and "
        "seed-independent, declarations strictly improving, online "
        "guarantee at every prefix"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# C11 — measured-gap reports, archived
# ---------------------------------------------------------------------------


def test_c11_gap_reports_archived(tmp_path):
    archive = REPO_ROOT / "reports"
    out = tmp_path / "reports"
    t0 = time.perf_counter()
    result = generate_gap_reports(out)
    elapsed = time.perf_counter() - t0
    missing = [name for name in result["files"] if not (out / name).exists()]
    written = sorted(p.name for p in out.iterdir())
    archived = sorted(p.name for p in archive.iterdir())
    differing = [
        name
        for name in written
        if name not in archived
        or (out / name).read_bytes() != (archive / name).read_bytes()
    ]
    parsed = {}
    for name in result["files"]:
        parsed[name] = json.loads((out / name).read_text())
    index = parsed["index.json"]
    per_system = [n for n in result["files"] if n.startswith("gaps_")]
    shape_ok = (
        sorted(index["files"])
        == sorted(n for n in result["files"] if n != "index.json")
        and len(per_system) == 3
        and all(
            set(parsed[n])
            >= {
                "reverse_fit_gap",
                "universal_family_gap",
                "additivity_defect",
                "improvement_slack",
            }
            for n in per_system
        )
        and parsed["nonstoch_12.json"]["ok"] is True
    )
    ok = (
        not missing
        and shape_ok
        and written == archived
        and not differing
        and elapsed < 300.0
    )
    report(
        11,
        ok,
        f"{len(result['files'])} report files regenerated in {elapsed:.1f}s, "
        "byte-identical to the archive under reports/"
        + (f"; differing {differing}" if differing else "")
        + ("" if written == archived else f"; files {written} != {archived}"),
    )


# ---------------------------------------------------------------------------
# C12 — the planted non-typical string
# ---------------------------------------------------------------------------


def test_c12_nonstoch_construction():
    plans = [
        make_nonstoch_system(12, 5, 6, seed=0),
        make_nonstoch_system(8, 4, 5, seed=3),
        make_nonstoch_system(6, 3, 4, seed=7),
        make_nonstoch_system(10, 6, 10, seed=1),
    ]
    violations = []
    for plan in plans:
        rep = verify_nonstoch(plan)
        if not rep.ok:
            violations.append((plan.n, plan.alpha0, "verify"))
        prof = profile(plan.system, plan.x)
        for alpha in range(1, plan.alpha0):
            if prof.beta_key(alpha) != Fraction(1 << plan.beta_level):
                violations.append((plan.n, alpha, "plateau"))
        if prof.beta_key(plan.alpha0) != Fraction(1):
            violations.append((plan.n, plan.alpha0, "drop"))
    ok = not violations
    report(
        12,
        ok,
        f"{len(plans)} planted constructions verified exactly: beta holds "
        "the planted level below alpha0 and drops to 0 there"
        + (f"; first violations {violations[:3]}" if violations else ""),
    )
