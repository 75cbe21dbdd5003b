"""Log-loss prediction strategies and their exact set counterparts.

A prediction strategy over horizon ``n`` assigns to every binary prefix of
length below ``n`` a rational belief that the next bit is 1.  Reading a
string through the strategy multiplies up the realized per-step
probabilities; the total log loss is the negative log of that product.  All
bookkeeping here is exact: products are ``fractions.Fraction`` values, the
float loss is presentation only, and the fundamental conservation law --
the realized products over all ``2**n`` strings sum to exactly 1 -- holds
by construction for every total strategy.

Strategies and finite sets translate into each other without slack:

* ``set_to_strategy`` follows the proportions of a set, so every member
  costs exactly ``log2 |A|``;
* ``strategy_to_set`` collects the strings whose product clears a dyadic
  (or explicitly rational) threshold; the conservation law caps the
  result's cardinality at the inverse threshold.

A strategy reads its beliefs in (length, value) order of the prefixes, so
prefix ``b`` sits at slot ``b.to_integer()``.  An explicit strategy keeps
them in one tuple, checked once.  ``set_to_strategy`` keeps the set's member
store instead and counts each belief from it on demand with bisections: the
strategy is built in O(1), one belief costs O(log |A|), and a loss reads the
n beliefs along its string, so a set codebook's snooping curve costs
O(sets * n * log |S|) with no 2**n term.

A :class:`StrategyCodebook` names strategies by prefix-free programs, which
prices strategies the way description systems price sets; its
``snooping_curve`` is the prediction analog of the set profile's size
curve, and coincides with it exactly on codebooks built from a system's set
namespace via ``codebook_from_sets``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .codec import BitString, read_bits, read_rational, show_bits, text_lines
from .descsys import Codebook, DescriptionSystem, FiniteSet
from .errors import FixtureError, StructLabError
from .rational import log2_display, pow2, unit_fraction
from .structfn import codebook_curve

__all__ = [
    "PredictionStrategy",
    "LossRecord",
    "StrategyCodebook",
    "SnoopRow",
    "SnoopingCurve",
    "evaluate_loss",
    "set_to_strategy",
    "strategy_to_set",
    "snooping_curve",
    "codebook_from_sets",
    "parse_strategy",
    "format_strategy",
    "parse_codebook",
    "format_codebook",
]

MAX_HORIZON = 16


def _slot_count(n: int) -> int:
    """Number of prefixes below length ``n``, once ``n`` is a valid horizon."""
    if not 1 <= n <= MAX_HORIZON:
        raise StructLabError(
            f"prediction horizon must be in [1, {MAX_HORIZON}], got {n}"
        )
    return (1 << n) - 1


def _slot(length: int, value: int) -> int:
    """Belief-tuple slot of a prefix: its ``BitString.to_integer()``."""
    return (1 << length) - 1 + value


def _check_beliefs(n: int, beliefs: tuple) -> None:
    """Refuse a belief tuple of the wrong length or with a value not in [0, 1].

    Each distinct object is tested once, so a tuple that shares one
    ``Fraction`` among many prefixes costs one test per shared value.
    """
    expected = _slot_count(n)
    if len(beliefs) != expected:
        raise StructLabError(
            f"strategy must cover all {expected} prefixes below length {n}, "
            f"got {len(beliefs)}"
        )
    for p in dict(zip(map(id, beliefs), beliefs)).values():
        if not isinstance(p, Fraction) or not 0 <= p <= 1:
            raise StructLabError(f"belief values must be Fractions in [0, 1], got {p!r}")


class _SetBeliefs:
    """The beliefs of a set's proportion-following strategy, read off its members.

    Indexed like a belief tuple: slot ``(1 << length) - 1 + value`` holds
    |A_{y1}| / |A_y| for the prefix y of that length and value, or 1/2 when
    no member extends y.  The counts come from bisections in the sorted
    member store, so one belief costs O(log |A|) and none is stored.
    """

    __slots__ = ("_n", "_members")

    def __init__(self, a: FiniteSet):
        self._n = a.n
        self._members = a.values

    def ratio(self, length: int, value: int) -> tuple[int, int]:
        """The belief at a prefix as (ones, whole) member counts, unreduced."""
        members, shift = self._members, self._n - length
        lo = bisect_left(members, value << shift)
        hi = bisect_left(members, (value + 1) << shift, lo)
        if lo == hi:
            return 1, 2
        return hi - bisect_left(members, ((value << 1) | 1) << (shift - 1), lo, hi), hi - lo

    def __getitem__(self, slot: int) -> Fraction:
        length = (slot + 1).bit_length() - 1
        return Fraction(*self.ratio(length, slot + 1 - (1 << length)))

    def __iter__(self):
        return map(self.__getitem__, range((1 << self._n) - 1))


class PredictionStrategy:
    """A total map from prefixes of length < n to rational beliefs in [0,1].

    Beliefs are read in (length, value) order of the prefixes: prefix ``b``
    sits at slot ``b.to_integer()``.  They are one checked tuple, or for a
    strategy built by ``set_to_strategy``, the set's members.
    """

    __slots__ = ("_n", "_beliefs")

    def __init__(self, n: int, table):
        slots: list = [None] * _slot_count(n)
        given = 0
        for prefix, p in dict(table).items():
            b = BitString(prefix)
            if len(b) >= n:
                raise StructLabError(
                    f"prefix {b!r} is not shorter than the horizon {n}"
                )
            slot = b.to_integer()
            if slots[slot] is not None:
                raise StructLabError(f"repeated prefix {b!r}")
            slots[slot] = unit_fraction(p, "belief")
            given += 1
        if given != len(slots):
            raise StructLabError(
                f"strategy must cover all {len(slots)} prefixes below length {n}, "
                f"got {given}"
            )
        beliefs = tuple(slots)
        _check_beliefs(n, beliefs)
        self._n = n
        self._beliefs = beliefs

    @classmethod
    def _from_beliefs(cls, n: int, beliefs: "tuple | _SetBeliefs") -> "PredictionStrategy":
        """A strategy over beliefs already in slot order.

        A tuple is checked like ``__init__``'s; a set's beliefs are proportions
        by construction.
        """
        if type(beliefs) is not _SetBeliefs:
            _check_beliefs(n, beliefs)
        self = cls.__new__(cls)
        self._n = n
        self._beliefs = beliefs
        return self

    @classmethod
    def uniform(cls, n: int) -> "PredictionStrategy":
        """The fair-coin strategy: belief 1/2 everywhere."""
        return cls._from_beliefs(n, (Fraction(1, 2),) * _slot_count(n))

    @property
    def n(self) -> int:
        return self._n

    def p(self, prefix: "str | BitString") -> Fraction:
        b = BitString(prefix)
        if len(b) >= self._n:
            raise StructLabError(f"prefix {b!r} is outside the horizon")
        return self._beliefs[b.to_integer()]

    def items(self) -> tuple[tuple[BitString, Fraction], ...]:
        """(prefix, belief) pairs sorted by (length, value)."""
        return tuple(
            (BitString.from_value(length, v), self._beliefs[_slot(length, v)])
            for length in range(self._n)
            for v in range(1 << length)
        )

    def kraft_total(self) -> Fraction:
        """Sum of realized products over all horizon-length strings.

        Exactly 1 for every total strategy; computed by brute force as an
        audit (exponential in the horizon).
        """
        total = Fraction(0)
        for v in range(1 << self._n):
            total += evaluate_loss(self, BitString.from_value(self._n, v)).product
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictionStrategy):
            return NotImplemented
        return self._n == other._n and tuple(self._beliefs) == tuple(other._beliefs)

    def __hash__(self) -> int:
        return hash((self._n, tuple(self._beliefs)))

    def __repr__(self) -> str:
        return f"PredictionStrategy(n={self._n})"


@dataclass(frozen=True)
class LossRecord:
    """The exact realized product of one string, with its display loss."""

    x: BitString
    product: Fraction

    @property
    def loss(self) -> float:
        """-log2 of the product; infinite when some step predicted 0."""
        if self.product == 0:
            return math.inf
        return -log2_display(self.product)


def evaluate_loss(strategy: PredictionStrategy, x: "str | BitString") -> LossRecord:
    """Multiply up the per-step realized probabilities of ``x``.

    Each step contributes the belief put on the bit that actually came:
    ``p`` when the next bit is 1, ``1 - p`` when it is 0.
    """
    xb = BitString(x)
    if len(xb) != strategy.n:
        raise StructLabError(
            f"string length {len(xb)} does not match the horizon {strategy.n}"
        )
    n, v, beliefs = strategy.n, xb.value, strategy._beliefs
    num = den = 1
    for i in range(n):
        if type(beliefs) is _SetBeliefs:
            ones, whole = beliefs.ratio(i, v >> (n - i))
        else:
            p = beliefs[_slot(i, v >> (n - i))]
            ones, whole = p.numerator, p.denominator
        num *= ones if (v >> (n - 1 - i)) & 1 else whole - ones
        if not num:  # the product stays 0 whatever follows
            break
        den *= whole
    return LossRecord(x=xb, product=Fraction(num, den))


def set_to_strategy(a: FiniteSet) -> PredictionStrategy:
    """Predict by the proportions of a set: belief = |A_{y1}| / |A_y|.

    Prefixes that no member extends get belief 1/2; they never contribute
    to a member's loss, and any fixed value keeps the strategy total.
    Every member's realized product is exactly ``1/|A|``.

    The strategy keeps the set's member store and counts each belief from
    it when read, so building it costs O(1).
    """
    if a.cardinality == 0:
        raise StructLabError("cannot build a strategy from an empty set")
    _slot_count(a.n)
    return PredictionStrategy._from_beliefs(a.n, _SetBeliefs(a))


def strategy_to_set(
    strategy: PredictionStrategy,
    m: "int | None" = None,
    *,
    product_bound: "Fraction | None" = None,
) -> FiniteSet:
    """Collect the strings whose realized product clears a threshold.

    Pass an integer ``m`` for the dyadic threshold ``2**-m``, or an explicit
    rational ``product_bound`` (for non-dyadic cutoffs such as ``1/|A|``).
    The result has at most ``1/threshold`` members, exactly, because the
    realized products over all strings sum to 1.
    """
    if (m is None) == (product_bound is None):
        raise StructLabError("pass exactly one of m and product_bound")
    if m is not None:
        if m < 0:
            raise StructLabError(f"loss threshold must be nonnegative, got {m}")
        bound = pow2(-m)
    else:
        bound = Fraction(product_bound)
        if not 0 < bound <= 1:
            raise StructLabError(f"product bound must lie in (0, 1], got {bound}")
    n = strategy.n
    hits: list[int] = []

    def walk(prefix_value: int, length: int, product: Fraction) -> None:
        if product < bound:  # products only shrink as bits append
            return
        if length == n:
            hits.append(prefix_value)
            return
        p = strategy._beliefs[_slot(length, prefix_value)]
        walk((prefix_value << 1) | 1, length + 1, product * p)
        walk(prefix_value << 1, length + 1, product * (1 - p))

    walk(0, 0, Fraction(1))
    return FiniteSet(n, hits)


# ---------------------------------------------------------------------------
# codebooks and the snooping curve
# ---------------------------------------------------------------------------


class StrategyCodebook(Codebook):
    """Prefix-free programs naming strategies over one shared horizon."""

    __slots__ = ()
    model_type = PredictionStrategy
    model_noun = "a strategy"
    length_noun = "horizon"
    namespace = "strategy"


@dataclass(frozen=True)
class SnoopRow:
    """Best achievable realized product at one complexity budget."""

    alpha: int
    product: "Fraction | None"
    witness: "BitString | None"

    @property
    def loss(self) -> float:
        if self.product is None:
            return math.inf
        if self.product == 0:
            return math.inf
        return -log2_display(self.product)


@dataclass(frozen=True)
class SnoopingCurve:
    x: BitString
    alpha_max: int
    rows: tuple


def snooping_curve(
    codebook: StrategyCodebook, x: "str | BitString", alpha_max: "int | None" = None
) -> SnoopingCurve:
    """Minimal total loss of ``x`` per strategy-complexity budget.

    At each budget the winner is the named strategy with the largest
    realized product on ``x`` (ties to the smallest program); losses are
    therefore non-increasing in the budget.
    """
    xb, alpha_max, best = codebook_curve(
        codebook, x, alpha_max, lambda strat, xb: evaluate_loss(strat, xb).product
    )
    rows = tuple(
        SnoopRow(alpha=alpha, product=product, witness=witness)
        for alpha, (product, witness) in enumerate(b or (None, None) for b in best)
    )
    return SnoopingCurve(x=xb, alpha_max=alpha_max, rows=rows)


def codebook_from_sets(sys: DescriptionSystem) -> StrategyCodebook:
    """Reprice a system's set namespace as prediction strategies.

    Each set program names the proportion-following strategy of its set, at
    the same program length; members of a set then cost exactly its log
    size, so this codebook's snooping curve reproduces the set-size curve
    of the profile.  The system has already audited the namespace, so it
    is taken as it is.
    """
    return StrategyCodebook._trusted(
        sys.universe_n, [(prog, set_to_strategy(s)) for prog, s in sys.set_programs.items()]
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def parse_strategy(text: str, n: "int | None" = None) -> PredictionStrategy:
    """Parse a strategy fixture: one ``prefix<TAB>belief`` line per prefix.

    Prefixes are bare bit strings (``.`` for the empty prefix); beliefs are
    rationals like ``1/3``, ``0``, or ``1``.  The horizon defaults to one
    more than the longest prefix.
    """
    table: dict[BitString, Fraction] = {}
    for where, (token, p_token) in text_lines(text, "prefix belief"):
        prefix = read_bits(token, "prefix", where)
        p = read_rational(p_token, "belief", where)
        if prefix in table:
            raise FixtureError(f"{where}: repeated prefix {token!r}")
        table[prefix] = p
    if not table:
        raise FixtureError("strategy fixture names no prefixes")
    if n is None:
        n = max(len(b) for b in table) + 1
    return PredictionStrategy(n, table)


def format_strategy(strategy: PredictionStrategy) -> str:
    lines = [f"{show_bits(b)}\t{p}" for b, p in strategy.items()]
    return "\n".join(lines) + "\n"


def parse_codebook(text: str) -> StrategyCodebook:
    """Parse a codebook fixture: ``program<TAB>prefix<TAB>belief`` lines."""
    grouped: dict[BitString, dict[BitString, Fraction]] = {}
    for where, (prog_token, prefix_token, p_token) in text_lines(
        text, "program prefix belief"
    ):
        sub = grouped.setdefault(read_bits(prog_token, "program", where), {})
        prefix = read_bits(prefix_token, "prefix", where)
        if prefix in sub:
            raise FixtureError(
                f"{where}: repeated prefix {prefix_token!r} for program {prog_token!r}"
            )
        sub[prefix] = read_rational(p_token, "belief", where)
    if not grouped:
        raise FixtureError("codebook fixture names no programs")
    horizon = max((len(b) for sub in grouped.values() for b in sub), default=0) + 1
    return StrategyCodebook(
        {prog: PredictionStrategy(horizon, sub) for prog, sub in grouped.items()}
    )


def format_codebook(codebook: StrategyCodebook) -> str:
    lines = [
        f"{show_bits(prog)}\t{show_bits(prefix)}\t{p}"
        for prog, strat in codebook.programs.items()
        for prefix, p in strat.items()
    ]
    return "\n".join(lines) + "\n"
