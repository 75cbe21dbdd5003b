"""Anytime model search over a seeded enumeration of a description system.

The searcher watches an enumeration stream (every data and set program of
the system, in seed-dependent order) and maintains a current best model of
the target string ``x`` under one of three objectives, declaring every
change of hypothesis as it happens:

* ``mdl``    minimizes the two-part total of the *event*: the exact key
  ``2**|p| * |S|`` for a set event with program p printing S.  At stream
  end every program has been seen, so the final objective equals the exact
  two-part optimum ``lambda_x(alpha)``.
* ``ml``     minimizes ``|S|`` alone; the final value is the exact
  smallest-model optimum ``h_x(alpha)``.
* ``direct`` minimizes the current *estimate* of the deficiency
  ``log2|S| - K^t(x|S)``.  Knowledge grows over time: when a set first
  appears only its index code ``ceil(log2|S|)`` is available, so the
  estimate starts at ``log2|S| - ceil(log2|S|) <= 0``; the set's
  conditional shortcuts for x unlock once the stream has also revealed a
  data program printing x, after which ``K^t(x|S)`` drops to the true
  ``K(x|S)`` and the estimate *rises* to the true deficiency.  Estimates
  therefore approach delta(x|S) from below, and the searcher declares
  whenever its current best hypothesis changes — a new set taking over,
  or the reigning set's estimate being corrected in place (the one mode
  where the same set can legitimately be declared twice, and where the
  declared objective sequence need not be monotone).  At stream end all
  knowledge is in, so the final estimate equals the exact deficiency
  optimum ``beta_x(alpha)``.

In mdl and ml the per-candidate objective is static, so those modes
declare exactly on strict improvement and never repeat a program.  Only
set events with ``|p| <= alpha`` and ``x in S`` are candidates in any
mode.  When no candidate ever appears the trace is flagged empty.

Every mdl declaration obeys the exact online guarantee

    delta(x | L_t) + K(x)  <=  |p_t| + ceil(log2 |L_t|) + c_sub

checked by :func:`mdl_guarantee_holds` in exact arithmetic: declaring early
never costs more than the declared two-part length plus the system's
subadditivity constant.

mdl and ml run on :func:`search_many`, for one string or many: a set
event's key does not depend on x, so one walk of the stream computes it
once and offers it to each member of the set, in O(|stream| + sum of |S|)
for any number of strings.  :func:`anytime_search` hands those modes to
it and keeps its own loop for direct only, because a direct key depends
on x and changes mid-stream, when the stream first prints x.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .codec import BitString
from .descsys import DescriptionSystem, EnumerationStream, ModelRecord
from .errors import StructLabError
from .rational import log2_display

__all__ = [
    "Declaration",
    "SearchTrace",
    "anytime_search",
    "search_many",
    "mdl_guarantee_holds",
    "trace_jsonl_lines",
    "AuditPair",
    "ImprovementAudit",
    "improvement_audit",
]

@dataclass(frozen=True)
class Declaration:
    """One 'new best hypothesis' moment in a search.

    The objective is kept only as its exact key; a writer that shows the
    objective in bits takes ``log2_display`` of it.
    """

    time: int
    record: ModelRecord          # K_S is the *event* program length
    objective_key: "int | Fraction"


@dataclass(frozen=True)
class SearchTrace:
    """Full history of an anytime search run."""

    mode: str
    x: BitString
    alpha: int
    declarations: tuple[Declaration, ...]
    final: "ModelRecord | None"
    flagged_empty: bool


def _check_request(sys: DescriptionSystem, alpha: int, stream: EnumerationStream) -> None:
    if alpha < 0:
        raise StructLabError("alpha must be nonnegative")
    if not isinstance(stream, EnumerationStream) or stream.system is not sys:
        raise StructLabError("the stream must be an EnumerationStream built for this system")


def anytime_search(
    sys: DescriptionSystem,
    x,
    alpha: int,
    stream: EnumerationStream,
    mode: str = "mdl",
) -> SearchTrace:
    """Fold an enumeration stream into a declaration trace for ``x``.

    The stream must be an :class:`~structlab.descsys.EnumerationStream`
    built for this same system object (e.g. by
    :func:`structlab.descsys.enumeration_stream`); an event's time is its
    position.  The declared sequence depends on the stream order, but the
    final objective value is stream-independent.
    mdl and ml traces come from :func:`search_many`.
    """
    if mode != "direct":
        return search_many(sys, [x], alpha, stream, mode)[0]
    _check_request(sys, alpha, stream)
    xv = sys._value(x)
    xb = BitString.from_value(sys.universe_n, xv)

    def order(rec: ModelRecord) -> tuple:
        # ties go to the shorter, then smaller, program
        return rec.delta_order, rec.witness_program.sort_key()

    # Until the stream prints x each candidate is priced by its index code
    # and kept; at that moment the kept ones are re-priced and re-ranked
    # once, and from then on the best record is a running minimum.
    declarations: list[Declaration] = []
    best: "ModelRecord | None" = None
    x_known = False
    seen: list[ModelRecord] = []
    for t, (kind, p, out) in enumerate(stream.events):
        if kind == "data":
            if x_known or out != xb:
                continue
            x_known = True
            seen = [
                ModelRecord(r.set, r.K_S, r.witness_program, int(sys.K_cond(xv, r.set)))
                for r in seen
            ]
            winner = min(seen, key=order, default=None)
        else:
            if len(p) > alpha or xv not in out:
                continue
            k = int(sys.K_cond(xv, out)) if x_known else out.ceil_log_card
            winner = ModelRecord(out, len(p), p, k)
            if not x_known:
                seen.append(winner)
            if best is not None and order(winner) >= order(best):
                continue
        # A record equal to the reigning one is the same program with the
        # same estimate: nothing new to declare.
        if winner is not None and winner != best:
            best = winner
            declarations.append(Declaration(t, winner, winner.delta_key))

    return SearchTrace("direct", xb, alpha, tuple(declarations), best, best is None)


def search_many(
    sys: DescriptionSystem, xs, alpha: int, stream: EnumerationStream, mode: str = "mdl"
) -> list[SearchTrace]:
    """One mdl or ml trace per entry of ``xs``, from one walk of the stream.

    A set event's key, ``2**|p| * |S|`` in mdl and ``|S|`` in ml, does not
    depend on x: each affordable set event's key is computed once, and each
    member of its set that ``xs`` names keeps a running best key, taking the
    event on strict improvement.  Records are built only for the events
    kept, so the cost is O(|stream| + sum of |S|) however many strings are
    asked for.  direct is refused: its keys change mid-stream, so it runs
    in :func:`anytime_search`.
    """
    if mode == "direct":
        raise StructLabError(
            "search_many runs mdl and ml only; direct runs in anytime_search, "
            "because its keys change mid-stream"
        )
    if mode not in ("mdl", "ml"):
        raise StructLabError(f"unknown search mode {mode!r}")
    _check_request(sys, alpha, stream)
    ml = mode == "ml"
    values = [sys._value(x) for x in xs]
    best = dict.fromkeys(values, math.inf)
    kept: dict[int, list] = {v: [] for v in best}
    for t, (kind, p, s) in enumerate(stream.events):
        if kind == "data" or len(p) > alpha:
            continue
        key = s.cardinality if ml else s.cardinality << len(p)
        for v in s.values:
            if key < best.get(v, -1):
                best[v] = key
                kept[v].append((t, s, p, key))

    n = sys.universe_n
    traces: dict[int, SearchTrace] = {}
    for v, events in kept.items():
        declarations = tuple(
            Declaration(t, ModelRecord(s, len(p), p, int(sys.K_cond(v, s))), key)
            for t, s, p, key in events
        )
        final = declarations[-1].record if declarations else None
        traces[v] = SearchTrace(
            mode, BitString.from_value(n, v), alpha, declarations, final, final is None
        )
    return [traces[v] for v in values]


def mdl_guarantee_holds(sys: DescriptionSystem, trace: SearchTrace) -> bool:
    """Exact check of the online guarantee at every mdl declaration.

    For each declared (p_t, L_t):
    ``delta(x|L_t) + K(x) <= |p_t| + ceil(log2|L_t|) + c_sub`` compared as
    ``delta_order(L_t) <= 2**(n + |p_t| + ceil + c_sub - K(x))`` over exact
    integers, where ``delta_order = 2**n * 2**delta`` is at least 1.
    """
    if trace.mode != "mdl":
        raise StructLabError("the online guarantee is stated for mdl traces")
    base = sys.universe_n + sys.c_sub - sys.K_data(trace.x)
    for d in trace.declarations:
        rec = d.record
        exponent = base + rec.K_S + rec.ceil_log_card
        if exponent < 0 or rec.delta_order > 1 << exponent:
            return False
    return True


def trace_jsonl_lines(trace: SearchTrace) -> list[str]:
    """One JSON object per declaration, deterministic key order."""
    lines = []
    for d in trace.declarations:
        lines.append(
            json.dumps(
                {
                    "time": d.time,
                    "program": str(d.record.witness_program),
                    "cardinality": d.record.cardinality,
                    "objective": log2_display(d.objective_key),
                    "objective_key": str(d.objective_key),
                },
                sort_keys=True,
            )
        )
    return lines


# ---------------------------------------------------------------------------
# Improvement audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditPair:
    """A consecutive mdl declaration pair with a large two-part drop.

    ``slack_needed`` is the smallest s making
    ``delta(x|S2) <= delta(x|S1) - c*log2(n) + s`` true; nonpositive means
    the deficiency dropped by the full required amount on its own.
    """

    time_1: int
    time_2: int
    program_1: BitString
    program_2: BitString
    lambda_drop: float
    delta_1: float
    delta_2: float
    required_drop: float
    slack_needed: float


@dataclass(frozen=True)
class ImprovementAudit:
    """Report over all qualifying consecutive pairs of an mdl trace."""

    x: BitString
    c: float
    threshold_bits: float  # 2 * c * log2(n)
    pairs: tuple[AuditPair, ...]

    @property
    def qualifying_count(self) -> int:
        return len(self.pairs)

    @property
    def max_slack_needed(self) -> "float | None":
        return max((p.slack_needed for p in self.pairs), default=None)

    def to_json_dict(self) -> dict:
        return {
            **vars(self),
            "qualifying_count": self.qualifying_count,
            "max_slack_needed": self.max_slack_needed,
        }


def check_audit_constant(c: float) -> None:
    """Refuse an improvement-audit constant that is not a finite number."""
    if not math.isfinite(c):
        raise StructLabError(f"the improvement-audit constant c must be finite, got {c}")


def improvement_audit(
    sys: DescriptionSystem, trace: SearchTrace, c: float = 1.0
) -> ImprovementAudit:
    """Measure how deficiency moves across big two-part improvements.

    A consecutive declaration pair qualifies when the two-part key drops by
    at least ``2*c*log2(n)`` bits (n = string length); the comparison is
    exact whenever ``2*c`` is an integer.  For each qualifying pair the
    report records both true deficiencies and the slack needed for the
    drop-by-``c*log2(n)`` relation — measured, never asserted, because the
    constant involved is not computable inside the system.  The pair's
    floats are derived from the exact keys: each deficiency is
    ``log2_display(|S|) - K(x|S)`` and the drop is the difference of the
    two keys' ``log2_display``.
    """
    if trace.mode != "mdl":
        raise StructLabError("improvement audits are defined for mdl traces")
    check_audit_constant(c)
    n = sys.universe_n
    log_n = math.log2(n) if n > 1 else 0.0
    threshold = 2.0 * c * log_n
    two_c = 2.0 * c
    exact = float(two_c).is_integer()
    decls = trace.declarations
    n_pow = None
    if exact:
        # mdl keys are positive integers and fall along the trace, so once
        # n**2c exceeds the first key no pair qualifies; bit lengths tell
        # that without building n**2c, whose size grows with c.
        power = int(two_c)
        top = decls[0].objective_key if decls else 0
        if power < 0 or (n.bit_length() - 1) * power < top.bit_length():
            n_pow = n ** power

    pairs: list[AuditPair] = []
    for d1, d2 in zip(decls, decls[1:]):
        if exact:
            qualifies = n_pow is not None and d2.objective_key * n_pow <= d1.objective_key
        else:
            qualifies = log2_display(d2.objective_key) <= (
                log2_display(d1.objective_key) - threshold
            )
        if not qualifies:
            continue
        delta_1 = log2_display(d1.record.cardinality) - d1.record.K_cond
        delta_2 = log2_display(d2.record.cardinality) - d2.record.K_cond
        required = c * log_n
        pairs.append(
            AuditPair(
                time_1=d1.time,
                time_2=d2.time,
                program_1=d1.record.witness_program,
                program_2=d2.record.witness_program,
                lambda_drop=log2_display(d1.objective_key) - log2_display(d2.objective_key),
                delta_1=delta_1,
                delta_2=delta_2,
                required_drop=required,
                slack_needed=delta_2 - delta_1 + required,
            )
        )
    return ImprovementAudit(
        x=trace.x, c=c, threshold_bits=threshold, pairs=tuple(pairs)
    )
