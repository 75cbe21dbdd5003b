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

A :class:`StrategyCodebook` names strategies by prefix-free programs, which
prices strategies the way description systems price sets; its
``snooping_curve`` is the prediction analog of the set profile's size
curve, and coincides with it exactly on codebooks built from a system's set
namespace via ``codebook_from_sets``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .artifacts import number
from .codec import EMPTY, BitString
from .descsys import Codebook, DescriptionSystem, FiniteSet
from .errors import FixtureError, StructLabError
from .rational import log2_display, pow2
from .structfn import staircase

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


def _coerce_p(p) -> Fraction:
    q = Fraction(p)
    if not 0 <= q <= 1:
        raise StructLabError(f"belief values must lie in [0, 1], got {q}")
    return q


class PredictionStrategy:
    """A total map from prefixes of length < n to rational beliefs in [0,1]."""

    __slots__ = ("_n", "_table", "_key")

    def __init__(self, n: int, table):
        if not 1 <= n <= MAX_HORIZON:
            raise StructLabError(
                f"prediction horizon must be in [1, {MAX_HORIZON}], got {n}"
            )
        norm: dict[BitString, Fraction] = {}
        for prefix, p in dict(table).items():
            b = BitString(prefix) if isinstance(prefix, str) else prefix
            if not isinstance(b, BitString):
                raise StructLabError(f"malformed prefix {prefix!r}")
            if len(b) >= n:
                raise StructLabError(
                    f"prefix {b!r} is not shorter than the horizon {n}"
                )
            if b in norm:
                raise StructLabError(f"repeated prefix {b!r}")
            norm[b] = _coerce_p(p)
        expected = (1 << n) - 1
        if len(norm) != expected:
            raise StructLabError(
                f"strategy must cover all {expected} prefixes below length {n}, "
                f"got {len(norm)}"
            )
        self._n = n
        self._table = norm
        self._key = (n, tuple(sorted((b.sort_key(), p) for b, p in norm.items())))

    @classmethod
    def uniform(cls, n: int) -> "PredictionStrategy":
        """The fair-coin strategy: belief 1/2 everywhere."""
        half = Fraction(1, 2)
        table = {}
        for length in range(n):
            for v in range(1 << length):
                table[BitString.from_value(length, v)] = half
        return cls(n, table)

    @property
    def n(self) -> int:
        return self._n

    def p(self, prefix: "str | BitString") -> Fraction:
        b = BitString(prefix) if isinstance(prefix, str) else prefix
        try:
            return self._table[b]
        except KeyError:
            raise StructLabError(f"prefix {b!r} is outside the horizon") from None

    def items(self) -> tuple[tuple[BitString, Fraction], ...]:
        """(prefix, belief) pairs sorted by (length, value)."""
        return tuple(
            (b, self._table[b])
            for b in sorted(self._table, key=BitString.sort_key)
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
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
    xb = BitString(x) if isinstance(x, str) else x
    if len(xb) != strategy.n:
        raise StructLabError(
            f"string length {len(xb)} does not match the horizon {strategy.n}"
        )
    product = Fraction(1)
    for i in range(len(xb)):
        p = strategy.p(xb.substring(0, i))
        product *= p if xb[i] == 1 else 1 - p
    return LossRecord(x=xb, product=product)


def set_to_strategy(a: FiniteSet) -> PredictionStrategy:
    """Predict by the proportions of a set: belief = |A_{y1}| / |A_y|.

    Prefixes that no member extends get belief 1/2; they never contribute
    to a member's loss, and any fixed value keeps the strategy total.
    Every member's realized product is exactly ``1/|A|``.
    """
    if a.cardinality == 0:
        raise StructLabError("cannot build a strategy from an empty set")
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
        p = strategy.p(BitString.from_value(length, prefix_value))
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

    def loss_values(self) -> list[float]:
        return [row.loss for row in self.rows]

    def to_csv(self) -> str:
        lines = ["alpha,loss,witness_program"]
        for row in self.rows:
            witness = "" if row.witness is None else str(row.witness)
            lines.append(f"{row.alpha},{number(row.loss)},{witness}")
        return "\n".join(lines) + "\n"


def snooping_curve(
    codebook: StrategyCodebook, x: "str | BitString", alpha_max: "int | None" = None
) -> SnoopingCurve:
    """Minimal total loss of ``x`` per strategy-complexity budget.

    At each budget the winner is the named strategy with the largest
    realized product on ``x`` (ties to the smallest program); losses are
    therefore non-increasing in the budget.
    """
    xb = BitString(x) if isinstance(x, str) else x
    if len(xb) != codebook.n:
        raise StructLabError(
            f"string length {len(xb)} does not match the horizon {codebook.n}"
        )
    if alpha_max is None:
        alpha_max = codebook.max_program_length()
    if alpha_max < 0:
        raise StructLabError("alpha_max must be nonnegative")
    programs = list(codebook.programs.items())
    # Largest realized product first, ties to the smallest program.
    best = staircase(
        (
            (len(prog), (-evaluate_loss(strat, xb).product, i))
            for i, (prog, strat) in enumerate(programs)
        ),
        alpha_max,
    )
    rows = [
        SnoopRow(alpha=alpha, product=None, witness=None)
        if key is None
        else SnoopRow(alpha=alpha, product=-key[0], witness=programs[key[1]][0])
        for alpha, key in enumerate(best)
    ]
    return SnoopingCurve(x=xb, alpha_max=alpha_max, rows=tuple(rows))


def codebook_from_sets(sys: DescriptionSystem) -> StrategyCodebook:
    """Reprice a system's set namespace as prediction strategies.

    Each set program names the proportion-following strategy of its set, at
    the same program length; members of a set then cost exactly its log
    size, so this codebook's snooping curve reproduces the set-size curve
    of the profile.
    """
    return StrategyCodebook(
        {prog: set_to_strategy(s) for prog, s in sys.set_programs.items()}
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _format_prefix(b: BitString) -> str:
    return str(b) if len(b) else "."


def parse_strategy(text: str, n: "int | None" = None) -> PredictionStrategy:
    """Parse a strategy fixture: one ``prefix<TAB>belief`` line per prefix.

    Prefixes are bare bit strings (``.`` for the empty prefix); beliefs are
    rationals like ``1/3``, ``0``, or ``1``.  The horizon defaults to one
    more than the longest prefix.
    """
    table: dict[BitString, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FixtureError(f"line {lineno}: expected 'prefix belief', got {line!r}")
        token = parts[0]
        if token == ".":
            prefix = EMPTY
        elif all(c in "01" for c in token):
            prefix = BitString(token)
        else:
            raise FixtureError(f"line {lineno}: malformed prefix {token!r}")
        try:
            p = Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise FixtureError(f"line {lineno}: malformed belief {parts[1]!r}") from None
        if prefix in table:
            raise FixtureError(f"line {lineno}: repeated prefix {token!r}")
        table[prefix] = p
    if not table:
        raise FixtureError("strategy fixture names no prefixes")
    if n is None:
        n = max(len(b) for b in table) + 1
    return PredictionStrategy(n, table)


def format_strategy(strategy: PredictionStrategy) -> str:
    lines = [f"{_format_prefix(b)}\t{p}" for b, p in strategy.items()]
    return "\n".join(lines) + "\n"


def parse_codebook(text: str) -> StrategyCodebook:
    """Parse a codebook fixture: ``program<TAB>prefix<TAB>belief`` lines."""
    grouped: dict[BitString, dict[BitString, Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FixtureError(
                f"line {lineno}: expected 'program prefix belief', got {line!r}"
            )
        prog_token, prefix_token, p_token = parts
        if prog_token != "." and not all(c in "01" for c in prog_token):
            raise FixtureError(f"line {lineno}: malformed program {prog_token!r}")
        if prefix_token != "." and not all(c in "01" for c in prefix_token):
            raise FixtureError(f"line {lineno}: malformed prefix {prefix_token!r}")
        prog = EMPTY if prog_token == "." else BitString(prog_token)
        sub = grouped.get(prog)
        if sub is None:
            sub = grouped[prog] = {}
        prefix = EMPTY if prefix_token == "." else BitString(prefix_token)
        if prefix in sub:
            raise FixtureError(
                f"line {lineno}: repeated prefix {prefix_token!r} for program {prog_token!r}"
            )
        try:
            sub[prefix] = Fraction(p_token)
        except (ValueError, ZeroDivisionError):
            raise FixtureError(f"line {lineno}: malformed belief {p_token!r}") from None
    if not grouped:
        raise FixtureError("codebook fixture names no programs")
    horizon = max((len(b) for sub in grouped.values() for b in sub), default=0) + 1
    return StrategyCodebook(
        {prog: PredictionStrategy(horizon, sub) for prog, sub in grouped.items()}
    )


def format_codebook(codebook: StrategyCodebook) -> str:
    lines = []
    for prog, strat in codebook.programs.items():
        prog_text = str(prog) if len(prog) else "."
        for prefix, p in strat.items():
            lines.append(f"{prog_text}\t{_format_prefix(prefix)}\t{p}")
    return "\n".join(lines) + "\n"
