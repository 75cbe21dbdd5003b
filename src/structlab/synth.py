"""Constructive machinery: curve synthesis, on-line covers, model improvement.

Three independent constructions, each a simulation whose counting claims
are exact and machine-checkable:

* :func:`synthesize` realizes a prescribed two-part curve.  Given a
  non-increasing integer target curve on [0, k] and an adversarial event
  stream (level-j events each removing a bounded block of the universe),
  it maintains one candidate block per level and proves, by simulation,
  that some string's two-part profile hugs the target from both sides:
  the survivor (never removed) sits in every final block, giving the
  upper bound, and the certificate element (avoiding every undersized
  event) gives the pointwise lower bound.  Replacements per level are
  counted against the exact bound ``2**(i+1)``.

* :func:`cover_family` covers every string that many same-shape records
  claim, using a multiplicity threshold: elements of the accumulated
  union that at least ``t`` distinct record sets cover are chopped into
  fixed-size blocks as soon as one of them reaches ``2t``.  The block
  count obeys an exact budget in terms of the records seen and the
  elements that ever reached the threshold.

* :func:`improve_model` replaces a given model of x by the best
  representable one no worse in two-part total, and reports the realized
  slacks of the three bounds tying the replacement to the exact profile
  (measured, never asserted: the additive constants hidden in those
  bounds are not computable inside a system).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .codec import BitString, read_int, text_lines
from .descsys import DescriptionSystem, FiniteSet, ModelRecord
from .errors import FixtureError, StructLabError
from .rational import ceil_log2, log2_display, pow2
from .structfn import staircase

__all__ = [
    "SynthEvent",
    "SynthesisRun",
    "parse_synth_stream",
    "check_target",
    "synthesize",
    "analog_curve",
    "CoverRecord",
    "CoverReport",
    "cover_family",
    "MAX_THRESHOLD_BITS",
    "ImproveReport",
    "improve_model",
]


# ---------------------------------------------------------------------------
# curve synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthEvent:
    """A level-j adversary step removing ``block`` from the available pool."""

    time: int
    level: int
    block: FiniteSet


@dataclass(frozen=True)
class SynthesisRun:
    """Everything a synthesis simulation produced.

    ``witness_x`` is the first universe element never removed by any event
    (None exactly when the stream exhausted the whole universe, in which
    case ``exhausted`` is set and some level saw an empty refill).
    ``certificate_witness`` avoids only the *undersized* events — those
    using strictly less than their level's cardinality allowance — and
    always exists: undersized events cannot jointly cover ``2**n``
    elements under the stream's Kraft budget.
    """

    target: tuple[int, ...]
    n: int
    universe: FiniteSet
    events: tuple[SynthEvent, ...]
    final_blocks: tuple[FiniteSet, ...]
    replacement_counts: tuple[int, ...]
    witness_x: "BitString | None"
    certificate_witness: BitString
    exhausted: bool
    kraft_total: Fraction

    @property
    def k(self) -> int:
        return len(self.target) - 1

    def replacement_bound(self, level: int) -> int:
        return 1 << (level + 1)

    @property
    def replacement_bounds_ok(self) -> bool:
        return all(
            c <= self.replacement_bound(i)
            for i, c in enumerate(self.replacement_counts)
        )

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "n": self.n,
            "universe_size": self.universe.cardinality,
            "events": len(self.events),
            "kraft_total": str(self.kraft_total),
            "final_block_sizes": [s.cardinality for s in self.final_blocks],
            "replacement_counts": self.replacement_counts,
            "replacement_bounds": [
                self.replacement_bound(i) for i in range(self.k + 1)
            ],
            "replacement_bounds_ok": self.replacement_bounds_ok,
            "witness": self.witness_x,
            "certificate_witness": self.certificate_witness,
            "exhausted": self.exhausted,
        }


def parse_synth_stream(
    text: str, width: "int | None" = None, max_level: "int | None" = None
) -> tuple[SynthEvent, ...]:
    """Parse adversary events, one ``step LEVEL MEMBERS`` line each.

    MEMBERS is a comma-separated list of equal-width bit strings; the width
    must match ``width`` when given and be consistent across lines.  With
    ``max_level`` (a target curve's last index) a level outside
    ``[0, max_level]`` is refused with its line.
    """
    events: list[SynthEvent] = []
    for where, (_, level, members) in text_lines(text, "step LEVEL MEMBERS", keyword="step"):
        level = read_int(level, "level", where)
        if max_level is not None and not 0 <= level <= max_level:
            raise FixtureError(f"{where}: event level {level} outside [0, {max_level}]")
        block = FiniteSet.read(members, where, width)
        width = block.n
        events.append(SynthEvent(len(events), level, block))
    return tuple(events)


def _coerce_events(events: Iterable, width: int) -> tuple[SynthEvent, ...]:
    out: list[SynthEvent] = []
    for item in events:
        if isinstance(item, SynthEvent):
            ev = SynthEvent(len(out), item.level, item.block)
        else:
            level, block = item
            if not isinstance(block, FiniteSet):
                block = FiniteSet(width, block)
            ev = SynthEvent(len(out), int(level), block)
        out.append(ev)
    return tuple(out)


def check_target(target: Sequence[int]) -> tuple[int, ...]:
    """The target curve as a tuple, refused unless it is non-empty,
    non-increasing and ends at its domain (``target[k] == k``)."""
    target = tuple(int(v) for v in target)
    if not target:
        raise StructLabError("the target curve is empty")
    k = len(target) - 1
    if any(b > a for a, b in zip(target, target[1:])):
        raise StructLabError("the target curve must be non-increasing")
    if target[k] != k:
        raise StructLabError(f"the target curve must end at its domain: "
                             f"target[{k}] = {target[k]} != {k}")
    return target


def synthesize(
    target: Sequence[int],
    universe: FiniteSet,
    events: Iterable,
    n: "int | None" = None,
) -> SynthesisRun:
    """Simulate the block-replacement construction for a target curve.

    ``target`` is a non-increasing integer curve on [0, k] with
    ``target[k] == k`` and ``target[0] <= n``; the universe needs at least
    ``2**n`` elements (n defaults to ``target[0]``).  Events are
    ``SynthEvent``s or (level, members) pairs; each level-j event may
    remove at most ``2**(target[j]-j)`` elements, and the stream as a
    whole must respect the budget ``sum(2**-j) <= 1``.

    Per level i the simulation keeps a block of the ``2**(target[i]-i)``
    first available universe elements, replacing it (from what is then
    available) whenever events have removed all its members; replacements
    are counted, the last one may be partial, and a refill finding nothing
    available marks the run exhausted.
    """
    target = check_target(target)
    k = len(target) - 1
    if n is None:
        n = target[0]
    if target[0] > n:
        raise StructLabError(f"target[0] = {target[0]} exceeds n = {n}")
    if universe.cardinality < (1 << n):
        raise StructLabError(
            f"universe has {universe.cardinality} < 2**{n} elements"
        )

    events = _coerce_events(events, universe.n)
    kraft = Fraction(0)
    for ev in events:
        if not 0 <= ev.level <= k:
            raise StructLabError(f"event level {ev.level} outside [0, {k}]")
        if ev.block.n != universe.n:
            raise StructLabError("event member width does not match the universe")
        if not ev.block.subset_of(universe):
            raise StructLabError("event removes elements outside the universe")
        allowance = 1 << (target[ev.level] - ev.level)
        if ev.block.cardinality > allowance:
            raise StructLabError(
                f"level-{ev.level} event removes {ev.block.cardinality} "
                f"> 2**{target[ev.level] - ev.level} elements"
            )
        kraft += pow2(-ev.level)
    if kraft > 1:
        raise StructLabError(f"event stream exceeds the Kraft budget: {kraft} > 1")

    order = universe.values  # ascending == lexicographic at fixed width
    removed: set[int] = set()

    def refill(capacity: int) -> list[int]:
        block: list[int] = []
        for v in order:
            if v not in removed:
                block.append(v)
                if len(block) == capacity:
                    break
        return block

    capacities = [1 << (target[i] - i) for i in range(k + 1)]
    blocks: list[list[int]] = [refill(c) for c in capacities]
    live: list[set[int]] = [set(b) for b in blocks]  # block members still available
    counts = [0] * (k + 1)
    terminal = [False] * (k + 1)

    for ev in events:
        fresh = [v for v in ev.block.values if v not in removed]
        removed.update(fresh)
        for i in range(k + 1):
            if terminal[i]:
                continue
            live[i].difference_update(fresh)
            if not live[i]:
                counts[i] += 1
                blocks[i] = refill(capacities[i])
                live[i] = set(blocks[i])
                if not blocks[i]:
                    terminal[i] = True

    witness = next((v for v in order if v not in removed), None)

    strictly_covered: set[int] = set()
    for ev in events:
        if ev.block.cardinality < (1 << (target[ev.level] - ev.level)):
            strictly_covered.update(ev.block.values)
    certificate = next(v for v in order if v not in strictly_covered)

    w = universe.n
    return SynthesisRun(
        target=target,
        n=n,
        universe=universe,
        events=events,
        final_blocks=tuple(FiniteSet(w, b) for b in blocks),
        replacement_counts=tuple(counts),
        witness_x=None if witness is None else BitString.from_value(w, witness),
        certificate_witness=BitString.from_value(w, certificate),
        exhausted=any(terminal),
        kraft_total=kraft,
    )


def analog_curve(
    events: Sequence[SynthEvent], x, alpha_max: int
) -> list["int | None"]:
    """Two-part cost of describing ``x`` by event blocks, per budget level.

    Entry alpha is ``min(j + ceil(log2 |B|))`` over events at levels
    ``j <= alpha`` whose block contains x; None means no event reaches x
    within the budget.  For a synthesis witness this sits on or above the
    target curve pointwise: every event containing the witness uses its
    full cardinality allowance.
    """
    return staircase(
        ((ev.level, ev.level + ev.block.ceil_log_card) for ev in events if x in ev.block),
        alpha_max,
    )


# ---------------------------------------------------------------------------
# on-line cover families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverRecord:
    """One claimed model: a set with its asserted complexity stats."""

    set: FiniteSet
    claimed_k: int
    claimed_cond: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.claimed_k, self.set.ceil_log_card, self.claimed_cond)


@dataclass(frozen=True)
class CoverReport:
    """Cover blocks plus the exact counters behind the size guarantee.

    The guarantee: once ``multiplicity_of_x >= 2 * threshold`` the target
    is covered, and the number of blocks never exceeds
    ``ceil(records_seen / threshold) + threshold_elements / block_capacity
    + 1`` (chops fire at most once per ``threshold`` records, full blocks
    consume ``block_capacity`` distinct threshold elements each).
    """

    x: BitString
    anchor: CoverRecord
    delta: int
    threshold: Fraction
    block_capacity: int
    blocks: tuple[FiniteSet, ...]
    chop_count: int
    records_seen: int
    distinct_records: int
    threshold_elements: int
    multiplicity_of_x: int
    covered: bool

    @property
    def block_budget(self) -> Fraction:
        used = Fraction(self.records_seen) / self.threshold
        whole = used.numerator // used.denominator
        if whole * used.denominator != used.numerator:
            whole += 1
        return whole + Fraction(self.threshold_elements, self.block_capacity) + 1

    @property
    def block_budget_ok(self) -> bool:
        return len(self.blocks) <= self.block_budget

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "delta": self.delta,
            "threshold": str(self.threshold),
            "block_capacity": self.block_capacity,
            "blocks": self.blocks,
            "chop_count": self.chop_count,
            "records_seen": self.records_seen,
            "distinct_records": self.distinct_records,
            "threshold_elements": self.threshold_elements,
            "multiplicity_of_x": self.multiplicity_of_x,
            "covered": self.covered,
            "block_budget": str(self.block_budget),
            "block_budget_ok": self.block_budget_ok,
        }


def _coerce_records(records: Iterable) -> list[CoverRecord]:
    out: list[CoverRecord] = []
    for item in records:
        if not isinstance(item, CoverRecord):
            s, k, cond = item
            item = CoverRecord(s, int(k), int(cond))
        if item.claimed_k < 0 or item.claimed_cond < 0:
            raise StructLabError(
                f"cover record {len(out)}: claimed complexities must be nonnegative, "
                f"got K={item.claimed_k}, K_COND={item.claimed_cond}"
            )
        out.append(item)
    if not out:
        raise StructLabError("no cover records supplied")
    return out


#: Largest magnitude of the cover threshold's exponent ``claimed_cond -
#: delta``.  Past it the threshold is met by every member (below) or by none
#: (above) of any record file of practical size, and its exact value would
#: only inflate the report's numbers.
MAX_THRESHOLD_BITS = 64


def cover_family(
    records: Iterable, x, delta: "int | None" = None
) -> CoverReport:
    """Cover everything that enough same-shape records agree on.

    Records are (set, claimed complexity, claimed conditional complexity)
    triples, all sharing one shape (claimed complexity, ceil-log
    cardinality, claimed conditional); the anchor is the first record
    containing ``x``.  Records are processed in order, counting for each
    element how many *distinct* record sets cover it.  Whenever some
    uncovered element reaches multiplicity ``2t`` — with the threshold
    ``t = 2**(claimed_cond - delta)`` — all uncovered elements with
    multiplicity at least ``t`` are chopped, in ascending order, into
    blocks of ``2**ceil(log2 |anchor|)`` (the last may be partial) and
    appended to the output cover.

    ``delta`` defaults to one more than the bits of the anchor's two-part
    total, making the default threshold comfortably below the number of
    records any real family would need.  ``claimed_cond - delta`` must lie
    in ``[-MAX_THRESHOLD_BITS, MAX_THRESHOLD_BITS]``.
    """
    recs = _coerce_records(records)
    shape = recs[0].shape
    for r in recs[1:]:
        if r.shape != shape:
            raise StructLabError(
                f"heterogeneous cover records: {r.shape} != {shape}"
            )
    width = recs[0].set.n
    xv = FiniteSet._coerce(width, x)
    anchor = next((r for r in recs if xv in r.set), None)
    if anchor is None:
        raise StructLabError("no record contains the target string")
    if delta is None:
        m = anchor.claimed_k + anchor.set.ceil_log_card
        delta = ceil_log2(max(m, 1)) + 1
    exponent = anchor.claimed_cond - delta
    if not -MAX_THRESHOLD_BITS <= exponent <= MAX_THRESHOLD_BITS:
        raise StructLabError(
            f"the cover threshold exponent K_COND - delta must be in "
            f"[-{MAX_THRESHOLD_BITS}, {MAX_THRESHOLD_BITS}], got {exponent}"
        )
    t = pow2(exponent)
    capacity = 1 << anchor.set.ceil_log_card

    counts: dict[int, int] = {}
    union: set[int] = set()
    covered: set[int] = set()
    ever_threshold: set[int] = set()
    seen_sets: set[FiniteSet] = set()
    blocks: list[FiniteSet] = []
    chops = 0

    for rec in recs:
        if rec.set in seen_sets:
            continue
        seen_sets.add(rec.set)
        union.update(rec.set.values)
        for v in rec.set.values:
            counts[v] = counts.get(v, 0) + 1
            if counts[v] >= t:
                ever_threshold.add(v)
        pending = [v for v in sorted(union - covered) if counts[v] >= t]
        if any(counts[v] >= 2 * t for v in pending):
            chops += 1
            for start in range(0, len(pending), capacity):
                part = pending[start : start + capacity]
                blocks.append(FiniteSet(width, part))
                covered.update(part)

    return CoverReport(
        x=BitString.from_value(width, xv),
        anchor=anchor,
        delta=delta,
        threshold=t,
        block_capacity=capacity,
        blocks=tuple(blocks),
        chop_count=chops,
        records_seen=len(recs),
        distinct_records=len(seen_sets),
        threshold_elements=len(ever_threshold),
        multiplicity_of_x=counts.get(xv, 0),
        covered=xv in covered,
    )


# ---------------------------------------------------------------------------
# model improvement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImproveReport:
    """The best replacement model and the measured improvement slacks.

    Each slack is the amount by which the corresponding bound would need
    to be relaxed to hold with no additive constant at all:

    * ``slack_total``:        Lambda(S) - lambda_x(alpha) - (delta(x|A) - beta_x(alpha))
    * ``slack_complexity``:   K(S) - K(A) - (lambda_x(alpha) - Lambda(A)) - (delta(x|A) - beta_x(alpha))
    * ``slack_cardinality``:  K(S) - alpha - (h_x(alpha) - log2|A|) - (delta(x|A) - beta_x(alpha))

    Slacks are None when the profile is undefined at ``alpha`` (no model
    fits the budget).  ``improved`` records whether the replacement
    strictly beats the anchor's two-part total.
    """

    x: BitString
    alpha: int
    anchor: ModelRecord
    best: ModelRecord
    improved: bool
    slack_total: "float | None"
    slack_complexity: "float | None"
    slack_cardinality: "float | None"


def improve_model(
    sys: DescriptionSystem, x, a: FiniteSet, alpha: int
) -> ImproveReport:
    """Swap a model of x for the best representable one, measuring slacks.

    The replacement minimizes the exact two-part total; ties prefer the
    smaller set (the more specific model), then the lower complexity, then
    the earliest program.  Because the anchor itself competes, the result
    never has a worse total than the anchor.

    The profile's keys at ``alpha`` are minima over the same row of sets
    containing x, restricted to ``K(S) <= alpha``: the least size, the least
    two-part key and the least deficiency.  So the row is scanned once.
    """
    xv = sys._value(x)
    if not sys.is_representable(a):
        raise StructLabError("the anchor set is not representable")
    if xv not in a:
        raise StructLabError("the anchor set does not contain the target string")
    if alpha < 0:
        raise StructLabError("alpha_max must be nonnegative")

    candidates = sys.entries_containing(xv)
    best = min(
        candidates,
        key=lambda r: (r.lambda_key, r.cardinality, r.K_S, r.witness_program.sort_key()),
    )
    anchor = next(r for r in candidates if r.set == a)
    affordable = [r for r in candidates if r.K_S <= alpha]

    if not affordable:
        slack_total = slack_complexity = slack_cardinality = None
    else:
        h_key = min(r.cardinality for r in affordable)
        lam_key = min(r.lambda_key for r in affordable)
        beta_key = min(affordable, key=lambda r: r.delta_order).delta_key
        fit_gap = anchor.deficiency - log2_display(beta_key)
        lam_alpha = log2_display(lam_key)
        slack_total = best.total_length - lam_alpha - fit_gap
        slack_complexity = (
            best.K_S - anchor.K_S - (lam_alpha - anchor.total_length) - fit_gap
        )
        slack_cardinality = (
            best.K_S - alpha - (log2_display(h_key) - anchor.log_card) - fit_gap
        )

    return ImproveReport(
        x=BitString.from_value(sys.universe_n, xv),
        alpha=alpha,
        anchor=anchor,
        best=best,
        improved=best.lambda_key < anchor.lambda_key,
        slack_total=slack_total,
        slack_complexity=slack_complexity,
        slack_cardinality=slack_cardinality,
    )
