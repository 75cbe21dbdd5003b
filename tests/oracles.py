"""Independent brute-force recomputations used to validate the library.

Everything here is written the dumbest defensible way — full scans, repeated
from scratch, no sharing with the library's cached/incremental code paths —
so that agreement between the two is meaningful evidence.  Expected values
frozen into the test files were produced by these oracles (or by hand where
small enough) before the corresponding library code was written.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from structlab.codec import BitString, encode_sd, string_of_integer
from structlab.descsys import DescriptionSystem, FiniteSet
from structlab.errors import DescriptorError
from structlab.experiments import AdditivityRecord, AdditivityReport
from structlab.predict import PredictionStrategy

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
    rank order (K(S), |S|, witness); a later pair replaces an extreme only
    when strictly beyond it, so the first pair in (x, rank) order wins.
    """
    k_data = oracle_K_data_table(sys)
    ranked = sorted(
        oracle_distinct_sets(sys).items(),
        key=lambda kv: (kv[1][0], kv[0].cardinality, kv[1][1].sort_key()),
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
    """``descsys.expand_family`` with every member list found by a universe scan.

    Returns ``(kind, program, payload)`` triples like the library, with set
    payloads as plain member lists in increasing order.
    """
    n = args["n"]
    universe = range(1 << n)

    def sd(k: int) -> BitString:
        return encode_sd(string_of_integer(k))

    if name == "cube":
        return [("set", tag, list(universe))]
    if name == "singletons":
        return [("set", tag + BitString.from_value(n, v), [v]) for v in universe]
    if name == "cylinders":
        prefixes = [BitString.from_value(l, v) for l in range(n + 1) for v in range(1 << l)]
        return [
            ("set", tag + encode_sd(p), [v for v in universe if BitString.from_value(n, v).startswith(p)])
            for p in prefixes
        ]
    if name == "hamming":
        return [("set", tag + sd(k), oracle_weight_slice(n, k)) for k in range(n + 1)]
    if name == "patches":
        m = args["m"]
        entries = []
        for vector in product(range(m + 1), repeat=n // m):
            program = tag
            for k in vector:
                program = program + sd(k)
            entries.append(("set", program, oracle_patch_members(n, m, vector)))
        return entries
    if name == "literal":
        return [("data", tag + BitString.from_value(n, v), BitString.from_value(n, v)) for v in universe]
    assert name == "bernoulli", name
    entries = []
    for k in range(n + 1):
        members = oracle_weight_slice(n, k)
        width = (len(members) - 1).bit_length()
        for rank, v in enumerate(members):
            program = tag + sd(k) + BitString.from_value(width, rank)
            entries.append(("data", program, BitString.from_value(n, v)))
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


def oracle_pareto_triples(sys: DescriptionSystem, x):
    """Pareto-minimal (K(S), delta-key, lambda-key) triples over sets containing x."""
    v = FiniteSet._coerce(sys.universe_n, x)
    triples = []
    for s, (k, witness) in oracle_distinct_sets(sys).items():
        if v not in s:
            continue
        kc = oracle_K_cond(sys, v, s)
        triples.append((k, Fraction(s.cardinality, 1 << int(kc)), (1 << k) * s.cardinality))
    minimal = []
    for t in set(triples):
        dominated = any(
            u != t and u[0] <= t[0] and u[1] <= t[1] and u[2] <= t[2]
            for u in set(triples)
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
