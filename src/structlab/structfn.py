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

The module also houses the conditional-complexity tail bound and the
windowed curve-closeness test used to compare staircase curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Iterable, Sequence, TypeVar

from .codec import BitString
from .descsys import DescriptionSystem, FiniteSet, ModelRecord
from .errors import StructLabError
from .rational import log2_display

K = TypeVar("K")

__all__ = [
    "StructureProfile",
    "ParetoPoint",
    "SufficiencyRecord",
    "ClosenessSpec",
    "CurveViolation",
    "profile",
    "staircase",
    "deficiency",
    "deficiency_key",
    "deficiency_tail_count",
    "curves_close",
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
        return [log2_display(self.h_key(a)) for a in range(self.alpha_max + 1)]

    def lambda_values(self) -> list[float]:
        return [log2_display(self.lambda_key(a)) for a in range(self.alpha_max + 1)]

    def beta_values(self) -> list[float]:
        return [log2_display(self.beta_key(a)) for a in range(self.alpha_max + 1)]

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

    def rows(objective) -> tuple["ModelRecord | None", ...]:
        # Ties break by smaller K(S), then by the witness program.
        keys = (
            (rec.K_S, (objective(rec), rec.K_S, rec.witness_program.sort_key(), i))
            for i, rec in enumerate(containing)
        )
        return tuple(
            None if key is None else containing[key[-1]]
            for key in staircase(keys, alpha_max)
        )

    h_rows = rows(lambda rec: rec.cardinality)
    lambda_rows = rows(lambda rec: rec.lambda_key)
    beta_rows = rows(lambda rec: rec.delta_order)

    critical = tuple(
        alpha
        for alpha, (prev, row) in enumerate(pairwise((None, *lambda_rows)))
        if row is not None and (prev is None or row.lambda_key < prev.lambda_key)
    )

    sufficiency: "SufficiencyRecord | None" = None
    bound_exp = k_x + slack
    if bound_exp >= 0:
        for alpha, row in enumerate(lambda_rows):
            if row is not None and row.lambda_key <= (1 << bound_exp):
                sufficiency = SufficiencyRecord(alpha, slack, row)
                break

    return StructureProfile(
        x=xb,
        K_x=k_x,
        alpha_max=alpha_max,
        c_sub=sys.c_sub,
        h_rows=h_rows,
        lambda_rows=lambda_rows,
        beta_rows=beta_rows,
        critical_alphas=critical,
        sufficiency=sufficiency,
        pareto=_pareto_frontier(containing),
        flagged=all(r is None for r in lambda_rows),
    )


def _pareto_frontier(containing: Sequence[ModelRecord]) -> tuple[ParetoPoint, ...]:
    # The records share one n, so delta_order orders them as delta_key does.
    triples: dict[tuple[int, int, int], ModelRecord] = {}
    for rec in containing:
        key = (rec.K_S, rec.delta_order, rec.lambda_key)
        prev = triples.get(key)
        if prev is None or rec.witness_program.sort_key() < prev.witness_program.sort_key():
            triples[key] = rec
    keys = sorted(triples)
    return tuple(
        ParetoPoint(key[0], key[2], triples[key])
        for key in keys
        if not any(
            other != key
            and other[0] <= key[0]
            and other[1] <= key[1]
            and other[2] <= key[2]
            for other in keys
        )
    )


# ---------------------------------------------------------------------------
# Curve closeness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveViolation:
    """First place where one curve escapes the other's tolerance window."""

    i: int
    side: str  # "below" | "above"
    value: float
    bound: float


@dataclass(frozen=True)
class ClosenessSpec:
    """Windowed tolerance for comparing integer staircase curves.

    ``f`` is close to ``g`` when, at every argument i in [start, k],
    f(i) lies between the min and max of g over the window
    ``[max(start, i - eps(i)), min(k, i + eps(i))]``, slackened by
    delta(i) on each side.  Infinities compare as expected (an infinite
    g-window bound absorbs everything above/below it).
    """

    k: int
    epsilon: "Callable[[int], int] | Sequence[int] | int" = 0
    delta: "Callable[[int], float] | Sequence[float] | float" = 0.0
    start: int = 0

    def eps_at(self, i: int) -> int:
        if callable(self.epsilon):
            return int(self.epsilon(i))
        if isinstance(self.epsilon, (list, tuple)):
            return int(self.epsilon[i])
        return int(self.epsilon)

    def delta_at(self, i: int) -> float:
        if callable(self.delta):
            return float(self.delta(i))
        if isinstance(self.delta, (list, tuple)):
            return float(self.delta[i])
        return float(self.delta)


def curves_close(
    f: Sequence[float],
    g: Sequence[float],
    spec: ClosenessSpec,
) -> tuple[bool, "CurveViolation | None"]:
    """Check the windowed closeness of two curves given on [0, k].

    Returns ``(True, None)`` or ``(False, first violation)``.  Curves are
    indexed by integer argument; entries may be ``math.inf``.  The window
    always contains i itself, so identical curves are always close.
    """
    k = spec.k
    if len(f) < k + 1 or len(g) < k + 1:
        raise StructLabError("curves must cover the full range [0, k]")
    for i in range(spec.start, k + 1):
        eps = spec.eps_at(i)
        lo = max(spec.start, i - eps)
        hi = min(k, i + eps)
        window = [g[j] for j in range(lo, hi + 1)]
        slack = spec.delta_at(i)
        lower = min(window) - slack
        upper = max(window) + slack
        # infinities: min(inf-window) - slack stays inf; f(i)=inf needs an
        # infinite upper bound, which max() provides when any entry is inf
        if f[i] < lower:
            return False, CurveViolation(i, "below", f[i], lower)
        if f[i] > upper:
            return False, CurveViolation(i, "above", f[i], upper)
    return True, None
