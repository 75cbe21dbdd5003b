"""Independent brute-force recomputations used to validate the library.

Everything here is written the dumbest defensible way — full scans, repeated
from scratch, no sharing with the library's cached/incremental code paths —
so that agreement between the two is meaningful evidence.  Expected values
frozen into the test files were produced by these oracles (or by hand where
small enough) before the corresponding library code was written.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import product

from structlab.artifacts import number
from structlab.codec import BitString, encode_sd, string_of_integer
from structlab.descsys import DescriptionSystem, FiniteSet
from structlab.errors import DescriptorError
from structlab.experiments import AdditivityRecord, AdditivityReport, GapSummary
from structlab.predict import PredictionStrategy
from structlab.rational import log2_display

INF = math.inf


def oracle_K_data(sys: DescriptionSystem, x) -> int:
    v = FiniteSet._coerce(sys.universe_n, x)
    best = None
    for p, out in sys.data_programs.items():
        if out.value == v and (best is None or len(p) < best):
            best = len(p)
    assert best is not None, "universe coverage is a system invariant"
    return best


def oracle_K_set(sys: DescriptionSystem, s: FiniteSet):
    best = INF
    for p, out in sys.set_programs.items():
        if out == s:
            best = min(best, len(p))
    return best


def oracle_K_cond(sys: DescriptionSystem, x, s: FiniteSet):
    v = FiniteSet._coerce(sys.universe_n, x)
    best = INF
    if v in s:
        best = (s.cardinality - 1).bit_length()  # ceil log2 |S|
    for q, out in sys.cond_shortcuts.get(s, {}).items():
        if out.value == v:
            best = min(best, len(q))
    return best


def oracle_distinct_sets(sys: DescriptionSystem):
    """Distinct printed sets with (K, lexicographically-least witness)."""
    table = {}
    for p in sorted(sys.set_programs, key=BitString.sort_key):
        s = sys.set_programs[p]
        if s not in table:
            table[s] = (len(p), p)
    return table


def oracle_K_data_table(sys: DescriptionSystem) -> dict[int, int]:
    """K(x) for every universe value, from one scan of the data programs."""
    best: dict[int, int] = {}
    for p, out in sys.data_programs.items():
        if out.value not in best or len(p) < best[out.value]:
            best[out.value] = len(p)
    return best


def oracle_c_sub(sys: DescriptionSystem) -> int:
    k_data = oracle_K_data_table(sys)
    best = None
    for s, (k, _) in oracle_distinct_sets(sys).items():
        for v in s.values:
            gap = k_data[v] - k - oracle_K_cond(sys, v, s)
            if best is None or gap > best:
                best = gap
    return 0 if best is None else int(best)


def oracle_additivity_report(sys: DescriptionSystem) -> AdditivityReport:
    """The chain-rule defect census string by string.

    For each x in value order, scan every distinct set in the library's
    rank order (K(S), witness); a later pair replaces an extreme only when
    strictly beyond it, so the first pair in (x, rank) order wins.
    """
    k_data = oracle_K_data_table(sys)
    ranked = sorted(
        oracle_distinct_sets(sys).items(),
        key=lambda kv: (kv[1][0], kv[1][1].sort_key()),
    )
    members = [(s, frozenset(s.values), k, w) for s, (k, w) in ranked]
    histogram: dict[int, int] = {}
    count = 0
    max_rec = min_rec = None
    for v in range(sys.universe_size()):
        for s, held, k_s, witness in members:
            if v not in held:
                continue
            k_cond = int(oracle_K_cond(sys, v, s))
            defect = k_data[v] - k_s - k_cond
            count += 1
            histogram[defect] = histogram.get(defect, 0) + 1
            record = AdditivityRecord(
                BitString.from_value(sys.universe_n, v), witness,
                k_data[v], k_s, k_cond, defect,
            )
            if max_rec is None or defect > max_rec.defect:
                max_rec = record
            if min_rec is None or defect < min_rec.defect:
                min_rec = record
    return AdditivityReport(
        pair_count=count,
        c_sub=0 if max_rec is None else max_rec.defect,
        max_defect=None if max_rec is None else max_rec.defect,
        min_defect=None if min_rec is None else min_rec.defect,
        max_record=max_rec,
        min_record=min_rec,
        histogram=histogram,
    )


def oracle_gap_summary(label: str, samples: list) -> GapSummary:
    """Summarize a whole list of ``(value, witness)`` samples at once.

    The extremes are what ``min`` and ``max`` keep, the first least and the
    first greatest sample.  The sum runs left to right from 0, one rounded
    addition per sample, as ``sum`` of floats did before Python 3.12.
    """
    if not samples:
        return GapSummary(label, 0, None, None, None, None, None)
    lo = min(samples, key=lambda s: s[0])
    hi = max(samples, key=lambda s: s[0])
    total = 0
    for value, _ in samples:
        total = total + value
    return GapSummary(label, len(samples), lo[0], hi[0], total / len(samples), lo[1], hi[1])


def oracle_sample_strings(sys: DescriptionSystem, size, seed: int) -> list:
    """The reverse-fit and half-block sample, drawn from a list of every string."""
    universe = list(sys.universe_strings())
    if size is None or size >= len(universe):
        return universe
    picked = random.Random(seed).sample(universe, size)
    return sorted(picked, key=BitString.sort_key)


def oracle_stratified_sample(sys: DescriptionSystem, size, seed: int) -> list:
    """The improvement sample, round-robin over popcount classes of a list
    of every string."""
    universe = list(sys.universe_strings())
    if size is None or size >= len(universe):
        return universe
    rng = random.Random(seed)
    classes: dict = {}
    for b in universe:
        classes.setdefault(bin(b.value).count("1"), []).append(b)
    pools = [rng.sample(v, len(v)) for _, v in sorted(classes.items())]
    picked: list = []
    while len(picked) < size and any(pools):
        for pool in pools:
            if pool and len(picked) < size:
                picked.append(pool.pop())
    return sorted(picked, key=BitString.sort_key)


def oracle_induced_pairs(sys: DescriptionSystem) -> list:
    """Every string with K(x), sorted by (K(x), its least shortest program),
    each string built anew from its value."""
    best: dict[int, BitString] = {}
    for p, out in sys.data_programs.items():
        held = best.get(out.value)
        if held is None or (len(p), p.value) < (len(held), held.value):
            best[out.value] = p
    rows = sorted((len(p), p.value, v) for v, p in best.items())
    return [(BitString.from_value(sys.universe_n, v), k) for k, _, v in rows]


def oracle_check_prefix_free(programs, namespace: str) -> None:
    """Sort the programs as text; any prefix pair is then adjacent."""
    ordered = sorted(programs, key=lambda p: str(p))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise DescriptorError(f"duplicate program {str(a)!r} in {namespace} namespace")
        if b.startswith(a):
            raise DescriptorError(
                f"{namespace} namespace not prefix-free: "
                f"{str(a)!r} is a prefix of {str(b)!r}"
            )


def oracle_kraft(programs) -> Fraction:
    return sum((Fraction(1, 1 << len(p)) for p in programs), start=Fraction(0))


def oracle_weight_slice(n: int, k: int) -> list[int]:
    return [v for v in range(1 << n) if bin(v).count("1") == k]


def oracle_patch_members(n: int, m: int, vector) -> list[int]:
    """Strings whose i-th m-bit patch (most significant first) has weight vector[i]."""
    l, mask = n // m, (1 << m) - 1
    return [
        v
        for v in range(1 << n)
        if all(
            bin((v >> (m * (l - 1 - i))) & mask).count("1") == vector[i] for i in range(l)
        )
    ]


def oracle_family_entries(kind: str, tag: BitString, name: str, args: dict) -> list:
    """``descsys.expand_family`` with every program concatenated from its
    fields and every member list found by a universe scan.

    Returns ``(program, payload)`` pairs like the library, with set payloads
    as plain member lists in increasing order.
    """
    n = args["n"]
    universe = range(1 << n)

    def sd(k: int) -> BitString:
        return encode_sd(string_of_integer(k))

    if name == "cube":
        return [(tag, list(universe))]
    if name == "singletons":
        return [(tag + BitString.from_value(n, v), [v]) for v in universe]
    if name == "cylinders":
        prefixes = [BitString.from_value(l, v) for l in range(n + 1) for v in range(1 << l)]
        return [
            (tag + encode_sd(p), [v for v in universe if BitString.from_value(n, v).startswith(p)])
            for p in prefixes
        ]
    if name == "hamming":
        return [(tag + sd(k), oracle_weight_slice(n, k)) for k in range(n + 1)]
    if name == "patches":
        m = args["m"]
        entries = []
        for vector in product(range(m + 1), repeat=n // m):
            program = tag
            for k in vector:
                program = program + sd(k)
            entries.append((program, oracle_patch_members(n, m, vector)))
        return entries
    if name == "literal":
        return [(tag + BitString.from_value(n, v), BitString.from_value(n, v)) for v in universe]
    assert name == "bernoulli", name
    entries = []
    for k in range(n + 1):
        members = oracle_weight_slice(n, k)
        width = (len(members) - 1).bit_length()
        for rank, v in enumerate(members):
            program = tag + sd(k) + BitString.from_value(width, rank)
            entries.append((program, BitString.from_value(n, v)))
    return entries


def oracle_profile_arrays(sys: DescriptionSystem, x, alpha_max: int):
    """Structure-function profile the maximally naive way.

    For each alpha, rescan every distinct set from scratch and minimize
    each objective with the documented tie-breaks (objective, then K(S),
    then witness program).  Returns three lists of per-alpha picks, each
    entry either None or a dict with exact keys and the witness program.
    """
    v = FiniteSet._coerce(sys.universe_n, x)
    h_rows, lam_rows, beta_rows = [], [], []
    for alpha in range(alpha_max + 1):
        best_h = best_l = best_b = None
        for s, (k, witness) in oracle_distinct_sets(sys).items():
            if k > alpha or v not in s:
                continue
            kc = oracle_K_cond(sys, v, s)
            card = s.cardinality
            h_key = (card, k, witness.sort_key())
            l_key = ((1 << k) * card, k, witness.sort_key())
            b_key = (Fraction(card, 1 << int(kc)), k, witness.sort_key())
            row = {
                "set": s,
                "K": k,
                "witness": witness,
                "card": card,
                "lambda_key": (1 << k) * card,
                "delta_key": Fraction(card, 1 << int(kc)),
            }
            if best_h is None or h_key < best_h[0]:
                best_h = (h_key, row)
            if best_l is None or l_key < best_l[0]:
                best_l = (l_key, row)
            if best_b is None or b_key < best_b[0]:
                best_b = (b_key, row)
        h_rows.append(None if best_h is None else best_h[1])
        lam_rows.append(None if best_l is None else best_l[1])
        beta_rows.append(None if best_b is None else best_b[1])
    return h_rows, lam_rows, beta_rows


def oracle_critical_alphas(lam_rows) -> list[int]:
    """Alphas where the two-part optimum strictly improves (inf counts as worse)."""
    crit = []
    prev_key = None  # None = infinity
    for alpha, row in enumerate(lam_rows):
        if row is not None and (prev_key is None or row["lambda_key"] < prev_key):
            crit.append(alpha)
        if row is not None:
            prev_key = row["lambda_key"]
    return crit


def oracle_mss(sys: DescriptionSystem, x, lam_rows, slack: int):
    """Least alpha whose two-part optimum is within `slack` of K(x)."""
    kx = oracle_K_data(sys, x)
    bound_exp = kx + slack
    for alpha, row in enumerate(lam_rows):
        if row is None:
            continue
        if bound_exp >= 0 and row["lambda_key"] <= (1 << bound_exp):
            return alpha
    return None


def oracle_triple_witnesses(sys: DescriptionSystem, x) -> dict:
    """Each (K(S), delta-key, lambda-key) triple of a set containing x, with
    the witness programs of every such set that has it, least first."""
    v = FiniteSet._coerce(sys.universe_n, x)
    table: dict = {}
    for s, (k, witness) in oracle_distinct_sets(sys).items():
        if v not in s:
            continue
        kc = oracle_K_cond(sys, v, s)
        triple = (k, Fraction(s.cardinality, 1 << int(kc)), (1 << k) * s.cardinality)
        table.setdefault(triple, []).append(witness)
    return {t: sorted(ws, key=BitString.sort_key) for t, ws in table.items()}


def oracle_pareto_triples(sys: DescriptionSystem, x):
    """Pareto-minimal (K(S), delta-key, lambda-key) triples over sets containing x."""
    triples = list(oracle_triple_witnesses(sys, x))
    minimal = []
    for t in triples:
        dominated = any(
            u != t and u[0] <= t[0] and u[1] <= t[1] and u[2] <= t[2]
            for u in triples
        )
        if not dominated:
            minimal.append(t)
    return sorted(minimal)


def oracle_signature_rows(sys: DescriptionSystem, x, alpha_max: int) -> tuple:
    """The rows of ``StructureProfile.signature()``, from the naive arrays."""

    def pick(row, key):
        return (None, None) if row is None else (row[key], row["witness"])

    return tuple(
        (*pick(h, "card"), *pick(lam, "lambda_key"), *pick(beta, "delta_key"))
        for h, lam, beta in zip(*oracle_profile_arrays(sys, x, alpha_max))
    )


def oracle_improve(sys: DescriptionSystem, x, a: FiniteSet, arrays) -> tuple:
    """``improve_model``'s replacement of anchor ``a`` and its slacks per budget.

    The replacement is ``(set, K, witness)`` minimizing (two-part key, size,
    K, witness) over every distinct set containing x.  ``arrays`` is
    ``oracle_profile_arrays(sys, x, alpha_max)``; the slacks at each budget
    are ``(total, complexity, cardinality)`` read off its rows, None where no
    model fits.
    """
    v = FiniteSet._coerce(sys.universe_n, x)
    sets = oracle_distinct_sets(sys)

    def rank(s):
        k, witness = sets[s]
        return ((1 << k) * s.cardinality, s.cardinality, k, witness.sort_key())

    best = min((s for s in sets if v in s), key=rank)
    k_best, k_a = sets[best][0], sets[a][0]
    log_a = log2_display(a.cardinality)
    deficiency = log_a - oracle_K_cond(sys, v, a)
    slacks = []
    for alpha, (h, lam, beta) in enumerate(zip(*arrays)):
        if lam is None:
            slacks.append(None)
            continue
        fit_gap = deficiency - log2_display(beta["delta_key"])
        lam_alpha = log2_display(lam["lambda_key"])
        slacks.append((
            k_best + log2_display(best.cardinality) - lam_alpha - fit_gap,
            k_best - k_a - (lam_alpha - (k_a + log_a)) - fit_gap,
            k_best - alpha - (log2_display(h["card"]) - log_a) - fit_gap,
        ))
    return (best, k_best, sets[best][1]), slacks


def oracle_synthesized_curve(run, x) -> list:
    """Two-part cost of ``x`` by a synthesis run's final blocks, per level.

    Entry alpha is the least ``i + ceil(log2 |block_i|)`` over the levels
    ``i <= alpha`` whose final block holds x, None when none does; every
    level rescans the blocks from the first.
    """
    curve = []
    for alpha in range(len(run.final_blocks)):
        costs = [
            i + (s.cardinality - 1).bit_length()
            for i, s in enumerate(run.final_blocks[: alpha + 1])
            if x in s
        ]
        curve.append(min(costs, default=None))
    return curve


def oracle_mdl_guarantee(sys: DescriptionSystem, trace) -> bool:
    """``|L| * 2**(K(x) - K(x|L)) <= 2**(|p| + ceil(log2|L|) + c_sub)`` at every
    declaration, over Fractions."""
    kx = oracle_K_data(sys, trace.x)
    for d in trace.declarations:
        s = d.record.set
        lhs = Fraction(s.cardinality) * Fraction(2) ** (kx - oracle_K_cond(sys, trace.x, s))
        if lhs > Fraction(2) ** (d.record.K_S + s.ceil_log_card + sys.c_sub):
            return False
    return True


def oracle_stream_order(sys: DescriptionSystem, seed: int) -> list:
    """``(kind, program, output)`` of a seeded stream, built from scratch.

    The data programs and then the set programs, each shortest first and
    then in text order, as ``(kind, program)`` pairs shuffled by
    ``random.Random(seed)``; each output is read from the system's tables.
    """
    def ordered(programs) -> list:
        return sorted(programs, key=lambda p: (len(p), str(p)))

    pairs = [("data", p) for p in ordered(sys.data_programs)]
    pairs += [("set", p) for p in ordered(sys.set_programs)]
    random.Random(seed).shuffle(pairs)
    tables = {"data": sys.data_programs, "set": sys.set_programs}
    return [(kind, p, tables[kind][p]) for kind, p in pairs]


def oracle_search_trace(sys: DescriptionSystem, x, alpha: int, stream, mode: str) -> list:
    """``(time, program, K(x|S), objective key)`` at each change of the best model.

    After every event, all candidates seen so far (set events with
    ``|p| <= alpha`` whose set holds x) are ranked from scratch.  mdl ranks by
    ``2**|p| * |S|`` and ml by ``|S|``, both with the true K(x|S) and the
    earliest candidate first on ties.  direct ranks by ``|S| / 2**K``, where K
    is the index code ``ceil(log2|S|)`` until a data event has printed x and
    the true K(x|S) from then on, the shorter and then smaller program first
    on ties.  A declaration is made whenever the best (program, K) changes.
    """
    v = FiniteSet._coerce(sys.universe_n, x)
    candidates = []
    x_printed = False
    best = None
    declarations = []
    for t, (kind, program, output) in enumerate(stream.events):
        if kind == "data":
            x_printed = x_printed or output.value == v
        elif len(program) <= alpha and v in output.values:
            candidates.append((t, program, output))
        ranked = []
        for time, p, s in candidates:
            if mode == "direct" and not x_printed:
                k = (s.cardinality - 1).bit_length()
            else:
                k = oracle_K_cond(sys, v, s)
            if mode == "mdl":
                key, tie = 2 ** len(p) * s.cardinality, time
            elif mode == "ml":
                key, tie = s.cardinality, time
            else:
                key, tie = Fraction(s.cardinality, 2**k), (len(p), str(p))
            ranked.append((key, tie, p, k))
        if ranked:
            key, _, p, k = min(ranked)
            if best != (p, k):
                best = (p, k)
                declarations.append((t, p, k, key))
    return declarations


def oracle_loss_product(strategy_table, x: BitString) -> Fraction:
    """Prediction product: multiply the realized probability of each bit."""
    product = Fraction(1)
    prefix = BitString("")
    for bit in x:
        p = strategy_table[prefix]
        product *= p if bit == 1 else 1 - p
        prefix = prefix + BitString("1" if bit else "0")
    return product


def oracle_set_to_strategy(a: FiniteSet) -> PredictionStrategy:
    """Proportion-following strategy of a non-empty set, through a dict table.

    Counts every (length, prefix) a member extends, then divides; prefixes
    no member extends get 1/2.
    """
    n = a.n
    counts: dict[tuple[int, int], int] = {}
    for v in a.values:
        for length in range(n + 1):
            key = (length, v >> (n - length))
            counts[key] = counts.get(key, 0) + 1
    table: dict[BitString, Fraction] = {}
    for length in range(n):
        for v in range(1 << length):
            whole = counts.get((length, v), 0)
            ones = counts.get((length + 1, (v << 1) | 1), 0)
            table[BitString.from_value(length, v)] = (
                Fraction(ones, whole) if whole else Fraction(1, 2)
            )
    return PredictionStrategy(n, table)


def oracle_section(order, l: int) -> tuple:
    """Pairs of an enumeration with level <= l, in order, by a full filter."""
    return tuple((o, i) for o, i in order if i <= l)


def oracle_index(order, x):
    """(first index of x, common prefix of its numeral with the count), by scan."""
    index = None
    for pos, (o, _) in enumerate(order):
        if o == x:
            index = pos
            break
    if index is None:
        return None, None
    count = format(len(order), "b")
    numeral = format(index, f"0{len(count)}b")
    keep = 0
    while keep < len(count) and numeral[keep] == count[keep]:
        keep += 1
    return index, count[:keep]


def oracle_half_block(order, i: int):
    """(lo, hi, members) of the level-i half-block, or None when bit i is 0.

    Members are the objects whose first appearance falls in [lo, hi],
    found by one scan over the whole enumeration.
    """
    count = format(len(order), "b")
    width = len(count)
    if count[i] != "1":
        return None
    lo = (len(order) >> (width - i)) << (width - i)
    hi = lo + (1 << (width - i - 1)) - 1
    members, seen = [], set()
    for pos, (o, _) in enumerate(order):
        if o in seen:
            continue
        seen.add(o)
        if lo <= pos <= hi:
            members.append(o)
    return lo, hi, tuple(members)


def oracle_universal_family_rows(sys: DescriptionSystem, order, x) -> list[dict]:
    """``universal_family_report`` rows by one filtered section per level.

    ``order`` is the induced enumeration.  At every level the section is
    filtered out of it, ``x`` is indexed there and its half-block carved by
    full scans; each budget's best analogs are a plain minimum, and gaps are
    taken against :func:`oracle_profile_arrays`.
    """
    v = FiniteSet._coerce(sys.universe_n, x)
    xb = BitString.from_value(sys.universe_n, v)
    alpha_max = max((k for k, _ in oracle_distinct_sets(sys).values()), default=0)
    candidates = []  # (i, width, l)
    for l in range(max(j for _, j in order) + 1):
        sec = oracle_section(order, l)
        index, m = oracle_index(sec, xb)
        if index is None:
            continue
        block = oracle_half_block(sec, len(m))
        assert block is not None and xb in block[2]
        candidates.append((len(m), len(sec).bit_length(), l))
    k_x = oracle_K_data(sys, v)
    h_rows, lam_rows, beta_rows = oracle_profile_arrays(sys, v, alpha_max)
    rows = []
    for alpha in range(alpha_max + 1):
        fit = [(i, width, l) for i, width, l in candidates if i <= alpha]
        lam, lam_l = min(((w - 1, l) for _, w, l in fit), default=(None, None))
        h, h_l = min(((w - i - 1, l) for i, w, l in fit), default=(None, None))
        lam_row, h_row, beta_row = lam_rows[alpha], h_rows[alpha], beta_rows[alpha]
        rows.append(
            {
                "alpha": alpha,
                "lambda_analog": lam,
                "lambda_l": lam_l,
                "h_analog": h,
                "h_l": h_l,
                "lambda_gap": None
                if lam is None or lam_row is None
                else lam - log2_display(lam_row["lambda_key"]),
                "h_gap": None
                if h is None or h_row is None
                else h - log2_display(h_row["card"]),
                "beta_gap": None
                if lam is None or beta_row is None
                else (lam - k_x) - log2_display(beta_row["delta_key"]),
            }
        )
    return rows


def oracle_sli_dominance_records(sys: DescriptionSystem, order, x) -> dict:
    """``sli_dominance_report`` record fields, keyed by (program, variant).

    For each distinct set holding ``x`` and each level variant, the
    level-``l`` section is filtered out of the induced enumeration ``order``,
    ``x`` is indexed in it and the block at its prefix length is carved, all
    by full scans.
    """
    v = FiniteSet._coerce(sys.universe_n, x)
    xb = BitString.from_value(sys.universe_n, v)
    c_sub = oracle_c_sub(sys)
    records = {}
    for s, (k, witness) in oracle_distinct_sets(sys).items():
        if v not in s:
            continue
        cost = k + (s.cardinality - 1).bit_length()
        for variant, l in (("exact", cost), ("padded", cost + c_sub)):
            sec = oracle_section(order, l)
            index, m = oracle_index(sec, xb)
            block = None if index is None else oracle_half_block(sec, len(m))
            width = len(sec).bit_length()
            records[witness, variant] = {
                "K_S": k,
                "cardinality": s.cardinality,
                "l": l,
                "in_section": block is not None,
                "i": None if m is None else len(m),
                "block_cardinality": None if block is None else len(block[2]),
                "block_lambda": None if block is None else width - 1,
                "slack": None if block is None else width - 1 - l,
                "contains": None if block is None else xb in block[2],
            }
    return records


def oracle_jsonable(value):
    """Walk ``value`` into plain JSON types by the artifact rules, eagerly."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return number(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, BitString):
        return str(value)
    if isinstance(value, FiniteSet):
        return [str(b) for b in value.bitstrings()]
    if isinstance(value, dict):
        return {str(k): oracle_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [oracle_jsonable(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return oracle_jsonable(value.to_json_dict())
    if is_dataclass(value):
        return {
            f.name: oracle_jsonable(getattr(value, f.name))
            for f in fields(value)
        }
    raise TypeError(f"no artifact form for {type(value).__name__}")


def oracle_artifact_text(value) -> str:
    """The artifact text the encoder must match: the walk, then ``json.dumps``."""
    return json.dumps(oracle_jsonable(value), indent=2, sort_keys=True)


def oracle_profile_artifact(sys: DescriptionSystem, fmt: str) -> str:
    """Whole-universe ``profile.csv`` or ``profile.json`` text, from the naive arrays.

    Budgets run to the longest set program; every display value is the
    float log2 of its exact key, taken budget by budget.
    """
    alpha_max = max(len(p) for p in sys.set_programs)
    c_sub = oracle_c_sub(sys)
    lines = ["x,alpha,h,lambda,beta"]
    profiles = []
    for v in range(1 << sys.universe_n):
        x = BitString.from_value(sys.universe_n, v)
        h_rows, lam_rows, beta_rows = oracle_profile_arrays(sys, x, alpha_max)

        def show(rows, key):
            return [log2_display(None if row is None else row[key]) for row in rows]

        h, lam, beta = show(h_rows, "card"), show(lam_rows, "lambda_key"), show(beta_rows, "delta_key")
        for a in range(alpha_max + 1):
            lines.append(f"{x},{a},{number(h[a])},{number(lam[a])},{number(beta[a])}")
        profiles.append({
            "x": x,
            "K_x": oracle_K_data(sys, x),
            "alpha_max": alpha_max,
            "c_sub": c_sub,
            "h": h,
            "lambda": lam,
            "beta": beta,
            "critical_alphas": oracle_critical_alphas(lam_rows),
            "mss_alpha": oracle_mss(sys, x, lam_rows, c_sub),
        })
    if fmt == "csv":
        return "\n".join(lines) + "\n"
    return oracle_artifact_text({"profiles": profiles}) + "\n"
