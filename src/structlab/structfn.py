"""Structure-function profiles over a description system, computed exactly.

For a string ``x`` and a complexity budget ``alpha`` the three classical
curves are minima over the class ``{S : x in S, K(S) <= alpha}`` of
representable sets:

* ``h(alpha)``      minimizes ``log2 |S|``          (smallest model),
* ``lambda(alpha)`` minimizes ``K(S) + log2 |S|``   (best two-part total),
* ``beta(alpha)``   minimizes ``delta(x | S) = log2 |S| - K(x | S)``
  (most typical model),

with the empty-class minimum taken to be infinity.  All three are decided
by exact integer order keys — ``|S|`` for h, ``2**K(S) * |S|`` for
lambda, ``|S| << (n - K(x|S))`` (that is ``2**n * 2**delta``) for beta —
and ties break by smaller ``K(S)``, then lexicographically least witness
program.  The exact beta value ``2**delta`` is reported as a Fraction.
Floats show up only in display accessors.

A :class:`StructureProfile` bundles the per-alpha optima with their
witnesses, the critical budgets (where the two-part optimum strictly
improves), the minimal sufficient statistic (least budget whose two-part
total is within a chosen slack of ``K(x)``), and the Pareto frontier of
``(K(S), delta(x|S), Lambda(S))`` triples over all representable models of
``x``.  A string contained in no representable set gets an all-infinite
profile with ``flagged`` set.

The module also houses the conditional-complexity tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, Iterator, Sequence, TypeVar

from .codec import BitString
from .descsys import DescriptionSystem, FiniteSet, ModelRecord
from .errors import StructLabError
from .rational import log2_display

K = TypeVar("K")

__all__ = [
    "StructureProfile",
    "ParetoPoint",
    "SufficiencyRecord",
    "profile",
    "profile_universe",
    "staircase",
    "deficiency",
    "deficiency_key",
    "deficiency_tail_count",
]


# ---------------------------------------------------------------------------
# Deficiency
# ---------------------------------------------------------------------------


def deficiency(sys: DescriptionSystem, x, s: FiniteSet) -> float:
    """delta(x|S) = log2|S| - K(x|S) for members of a representable set.

    Infinite when x is not in S; raises for unrepresentable sets (the
    quantity is only meaningful for sets the system can describe).
    """
    if not sys.is_representable(s):
        raise StructLabError("deficiency requires a representable set")
    if sys._value(x) not in s:
        return math.inf
    return s.log_card - sys.K_cond(x, s)


def deficiency_key(sys: DescriptionSystem, x, s: FiniteSet) -> "Fraction | None":
    """Exact 2**delta(x|S) as a Fraction; None encodes an infinite deficiency."""
    if not sys.is_representable(s):
        raise StructLabError("deficiency requires a representable set")
    v = sys._value(x)
    if v not in s:
        return None
    return ModelRecord(s, sys.K_set(s), sys.set_witness(s), int(sys.K_cond(v, s))).delta_key


def deficiency_tail_count(sys: DescriptionSystem, s: FiniteSet, d: int) -> int:
    """Number of members whose conditional description beats the index code by > d.

    Counts ``{x in S : K(x|S) < ceil(log2|S|) - d}``.  Because each such x
    owns a conditional program shorter than ``ceil(log2|S|) - d`` in a
    prefix-free namespace, the count can never reach
    ``2**(ceil(log2|S|) - d)`` — an exact Kraft argument, tested as such.
    """
    if d < 0:
        raise StructLabError("tail parameter d must be nonnegative")
    threshold = s.ceil_log_card - d
    return sum(1 for v in s.values if sys.K_cond(v, s) < threshold)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoPoint:
    """A Pareto-minimal (K(S), delta, Lambda) triple with its witness model."""

    K_S: int
    lambda_key: int
    record: ModelRecord

    @property
    def delta_key(self) -> Fraction:
        return self.record.delta_key

    @property
    def delta(self) -> float:
        return log2_display(self.delta_key)

    @property
    def total_length(self) -> float:
        return log2_display(self.lambda_key)


@dataclass(frozen=True)
class SufficiencyRecord:
    """The least budget whose two-part optimum meets K(x) + slack."""

    alpha: int
    slack: int
    record: ModelRecord


@dataclass(frozen=True)
class StructureProfile:
    """Exact h / lambda / beta data for one string, on budgets 0..alpha_max."""

    x: BitString
    K_x: int
    alpha_max: int
    c_sub: int
    h_rows: tuple["ModelRecord | None", ...]
    lambda_rows: tuple["ModelRecord | None", ...]
    beta_rows: tuple["ModelRecord | None", ...]
    critical_alphas: tuple[int, ...]
    sufficiency: "SufficiencyRecord | None"
    pareto: tuple[ParetoPoint, ...]
    flagged: bool

    # -- exact keys ------------------------------------------------------

    def h_key(self, alpha: int) -> "int | None":
        row = self.h_rows[alpha]
        return None if row is None else row.cardinality

    def lambda_key(self, alpha: int) -> "int | None":
        row = self.lambda_rows[alpha]
        return None if row is None else row.lambda_key

    def beta_key(self, alpha: int) -> "Fraction | None":
        row = self.beta_rows[alpha]
        return None if row is None else row.delta_key

    # -- display values ----------------------------------------------------

    def h_values(self) -> list[float]:
        return _display(self.h_rows, "cardinality")

    def lambda_values(self) -> list[float]:
        return _display(self.lambda_rows, "lambda_key")

    def beta_values(self) -> list[float]:
        return _display(self.beta_rows, "delta_key")

    # -- comparison --------------------------------------------------------

    def signature(self):
        """Everything observable: exact keys, witnesses, criticals, mss, Pareto."""
        rows = tuple(
            (
                self.h_key(a),
                None if self.h_rows[a] is None else self.h_rows[a].witness_program,
                self.lambda_key(a),
                None if self.lambda_rows[a] is None else self.lambda_rows[a].witness_program,
                self.beta_key(a),
                None if self.beta_rows[a] is None else self.beta_rows[a].witness_program,
            )
            for a in range(self.alpha_max + 1)
        )
        suff = None if self.sufficiency is None else (
            self.sufficiency.alpha,
            self.sufficiency.slack,
            self.sufficiency.record.witness_program,
        )
        pareto = tuple((p.K_S, p.delta_key, p.lambda_key) for p in self.pareto)
        return (self.K_x, rows, self.critical_alphas, suff, pareto, self.flagged)


def _display(rows: Sequence["ModelRecord | None"], key: str) -> list[float]:
    """``log2_display`` of each row's exact ``key``, once per run of one row.

    A curve is a staircase of a few records over many budgets, so each
    step's value is computed once and repeated.
    """
    values: list[float] = []
    last, value = object(), math.inf
    for row in rows:
        if row is not last:
            last = row
            value = log2_display(None if row is None else getattr(row, key))
        values.append(value)
    return values


def staircase(candidates: Iterable[tuple[int, K]], alpha_max: int) -> list["K | None"]:
    """The least key among ``(budget, key)`` candidates with budget <= alpha.

    One entry per alpha in ``0..alpha_max``, None while no candidate fits;
    the entries never increase.  Every per-budget curve is this minimum,
    with its tie-breaks and a way back to the winning record carried in the
    key.  Negative budgets count from 0.  Cost O(candidates + alpha_max).
    """
    best: list["K | None"] = [None] * (alpha_max + 1)
    for budget, key in candidates:
        if budget <= alpha_max:
            budget = max(budget, 0)
            if best[budget] is None or key < best[budget]:
                best[budget] = key
    run = None
    for alpha, key in enumerate(best):
        if key is not None and (run is None or key < run):
            run = key
        best[alpha] = run
    return best


def profile(
    sys: DescriptionSystem,
    x,
    alpha_max: "int | None" = None,
    mss_slack: "int | None" = None,
) -> StructureProfile:
    """Compute the full exact profile of ``x`` on budgets ``0..alpha_max``.

    ``alpha_max`` defaults to the longest set program (the point where all
    three curves have saturated); ``mss_slack`` defaults to the system's
    ``c_sub``.
    """
    xb = BitString.from_value(sys.universe_n, sys._value(x))
    if alpha_max is None:
        alpha_max = sys.max_set_program_length()
    if alpha_max < 0:
        raise StructLabError("alpha_max must be nonnegative")
    slack = sys.c_sub if mss_slack is None else mss_slack
    k_x = sys.K_data(xb)

    containing = sys.entries_containing(xb)
    # Each record's keys, read once: K(S), then the h, lambda and beta
    # objectives, then the witness program's sort key.
    facts = [
        (
            rec.K_S,
            rec.cardinality,
            rec.lambda_key,
            rec.delta_order,
            rec.witness_program.sort_key(),
        )
        for rec in containing
    ]

    def stairs(objective: int) -> list:
        # Ties break by smaller K(S), then by the witness program.
        return staircase(
            ((f[0], (f[objective], f[0], f[4], i)) for i, f in enumerate(facts)),
            alpha_max,
        )

    def rows(keys) -> tuple["ModelRecord | None", ...]:
        return tuple(None if key is None else containing[key[-1]] for key in keys)

    lambda_stairs = stairs(2)
    lambda_rows = rows(lambda_stairs)
    lambdas = [None if key is None else key[0] for key in lambda_stairs]

    critical = tuple(
        alpha
        for alpha, (prev, lam) in enumerate(pairwise((None, *lambdas)))
        if lam is not None and (prev is None or lam < prev)
    )

    sufficiency: "SufficiencyRecord | None" = None
    bound_exp = k_x + slack
    if bound_exp >= 0:
        for alpha, lam in enumerate(lambdas):
            if lam is not None and lam <= (1 << bound_exp):
                sufficiency = SufficiencyRecord(alpha, slack, lambda_rows[alpha])
                break

    return StructureProfile(
        x=xb,
        K_x=k_x,
        alpha_max=alpha_max,
        c_sub=sys.c_sub,
        h_rows=rows(stairs(1)),
        lambda_rows=lambda_rows,
        beta_rows=rows(stairs(3)),
        critical_alphas=critical,
        sufficiency=sufficiency,
        pareto=_pareto_frontier(containing, facts),
        flagged=lambdas[-1] is None,
    )


def profile_universe(
    sys: DescriptionSystem, alpha_max: "int | None" = None
) -> Iterator[tuple[BitString, StructureProfile]]:
    """Yield ``(x, profile(sys, x))`` for every string of the universe, in value order.

    Fills the containing-set table for every string in one set-major pass
    first (:meth:`DescriptionSystem.cache_all_containing`), so what is left
    per string is the fold.  For a single string, :func:`profile` alone is
    cheaper: its scan of the set entries costs far less than the table.
    """
    sys.cache_all_containing()
    for v in sys.universe_values():
        prof = profile(sys, v, alpha_max=alpha_max)
        yield prof.x, prof


def _pareto_frontier(
    containing: Sequence[ModelRecord], facts: Sequence[tuple]
) -> tuple[ParetoPoint, ...]:
    # The records share one n, so delta_order orders them as delta_key does.
    witness: dict[tuple[int, int, int], int] = {}
    for i, (k_s, _, lam, order, program) in enumerate(facts):
        key = (k_s, order, lam)
        prev = witness.get(key)
        if prev is None or program < facts[prev][4]:
            witness[key] = i
    # A dominator sorts before what it dominates, and domination is
    # transitive, so each triple need only face the front kept so far, all
    # of whose K(S) are already <= its own.
    front: list[tuple[int, int, int]] = []
    for key in sorted(witness):
        if not any(f[1] <= key[1] and f[2] <= key[2] for f in front):
            front.append(key)
    return tuple(ParetoPoint(key[0], key[2], containing[witness[key]]) for key in front)
