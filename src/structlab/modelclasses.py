"""Probability-mass and total-function model classes over bit strings.

Finite sets are not the only way to describe data: a rational probability
mass function or a total lookup table can play the same role.  This module
makes the translations concrete and exact in both directions:

* ``expand_set`` turns a finite set into the uniform pmf on its members
  (every member costs exactly ``log2 |S|`` bits of surprise) or into an
  index table whose arguments are the ``ceil(log2 |S|)``-bit strings;
* ``restrict_to_set`` collapses a pmf or a table back into a finite set
  whose size is controlled by the probability (or argument length) of the
  data inside it, together with an exactly-checked size certificate.

All probabilities are ``fractions.Fraction`` values and every comparison
in the certificates is exact; floats appear only in display helpers.  A
:class:`PmfCodebook` names probability models by prefix-free programs the
way a description system names sets, and its ``likelihood_curve`` -- the
most probable affordable explanation per complexity budget -- reproduces
the set-size curve exactly on codebooks built via ``expand_set`` from a
system's set namespace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .codec import EMPTY, BitString
from .descsys import Codebook, DescriptionSystem, FiniteSet, check_prefix_free
from .errors import FixtureError, StructLabError
from .rational import log2_display, pow2, read_fraction, show_fraction, unit_fraction
from .structfn import staircase

__all__ = [
    "ProbModel",
    "TotalFnModel",
    "PmfRestriction",
    "FnRestriction",
    "PmfCodebook",
    "LikelihoodRow",
    "LikelihoodCurve",
    "expand_set",
    "restrict_to_set",
    "probability_level",
    "pmf_deficiency_key",
    "pmf_deficiency",
    "fn_deficiency",
    "likelihood_curve",
    "pmf_codebook_from_sets",
    "parse_pmf",
    "format_pmf",
    "parse_fn",
    "format_fn",
]

MAX_SUPPORT_LENGTH = 16
MAX_ARG_LENGTH = 16


def _coerce_bits(x) -> BitString:
    b = BitString(x) if isinstance(x, str) else x
    if not isinstance(b, BitString):
        raise StructLabError(f"expected a bit string, got {x!r}")
    return b


class ProbModel:
    """A finitely-supported rational pmf on strings of one fixed length.

    Probabilities are exact ``Fraction`` values in ``[0, 1]`` summing to
    exactly 1.  Strings absent from the table have probability 0; explicit
    zero rows are accepted and dropped, so two models with the same
    positive part compare equal.
    """

    __slots__ = ("_n", "_pmf", "_key")

    def __init__(self, n: int, pmf):
        if not 1 <= n <= MAX_SUPPORT_LENGTH:
            raise StructLabError(
                f"support length must be in [1, {MAX_SUPPORT_LENGTH}], got {n}"
            )
        norm: dict[BitString, Fraction] = {}
        for x, p in dict(pmf).items():
            b = _coerce_bits(x)
            if len(b) != n:
                raise StructLabError(
                    f"support string {b!r} does not have length {n}"
                )
            if b in norm:
                raise StructLabError(f"repeated support string {b!r}")
            q = unit_fraction(p, "probability")
            if q:
                norm[b] = q
        total = sum(norm.values(), Fraction(0))
        if total != 1:
            raise StructLabError(
                f"probabilities must sum to 1 exactly, got {show_fraction(total)}"
            )
        self._n = n
        self._pmf = dict(sorted(norm.items(), key=lambda kv: kv[0].value))
        self._key = (n, tuple((b.value, q) for b, q in self._pmf.items()))

    @property
    def n(self) -> int:
        return self._n

    def probability(self, x: "str | BitString") -> Fraction:
        """P(x); zero for any string outside the support."""
        return self._pmf.get(_coerce_bits(x), Fraction(0))

    def support(self) -> tuple[BitString, ...]:
        """The positive-probability strings, in value order."""
        return tuple(self._pmf)

    def items(self) -> tuple[tuple[BitString, Fraction], ...]:
        """(string, probability) pairs over the support, in value order."""
        return tuple(self._pmf.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbModel):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ProbModel(n={self._n}, support={len(self._pmf)})"


class TotalFnModel:
    """A lookup function, total on every argument length it covers.

    The table maps bit strings of length at most ``arg_len`` to bit-string
    outputs; whenever a length appears among the arguments, all ``2**l``
    strings of that length must be present, and the longest covered length
    is ``arg_len`` itself.  The cost of producing ``x`` through the model
    is ``data_length(x)``: the shortest argument length whose table row
    prints ``x``.
    """

    __slots__ = ("_arg_len", "_table", "_lengths", "_key")

    def __init__(self, arg_len: int, table):
        if not 0 <= arg_len <= MAX_ARG_LENGTH:
            raise StructLabError(
                f"argument length must be in [0, {MAX_ARG_LENGTH}], got {arg_len}"
            )
        norm: dict[BitString, BitString] = {}
        for d, v in dict(table).items():
            a = _coerce_bits(d)
            if len(a) > arg_len:
                raise StructLabError(
                    f"table argument {a!r} is longer than the declared "
                    f"argument length {arg_len}"
                )
            if a in norm:
                raise StructLabError(f"repeated table argument {a!r}")
            norm[a] = _coerce_bits(v)
        if not norm:
            raise StructLabError("a function model must cover at least one argument length")
        by_length: dict[int, int] = {}
        for a in norm:
            by_length[len(a)] = by_length.get(len(a), 0) + 1
        for length, count in sorted(by_length.items()):
            if count != 1 << length:
                raise StructLabError(
                    f"the table covers {count} of {1 << length} arguments "
                    f"of length {length}"
                )
        if max(by_length) != arg_len:
            raise StructLabError(
                f"the declared argument length {arg_len} is not covered by the table"
            )
        self._arg_len = arg_len
        self._table = dict(sorted(norm.items(), key=lambda kv: kv[0].sort_key()))
        self._lengths = tuple(sorted(by_length))
        self._key = (
            arg_len,
            tuple((a.sort_key(), v.sort_key()) for a, v in self._table.items()),
        )

    @property
    def arg_len(self) -> int:
        return self._arg_len

    def covered_lengths(self) -> tuple[int, ...]:
        """The argument lengths the table is total on, ascending."""
        return self._lengths

    def value(self, d: "str | BitString") -> BitString:
        a = _coerce_bits(d)
        try:
            return self._table[a]
        except KeyError:
            raise StructLabError(f"argument {a!r} is not in the table") from None

    def items(self) -> tuple[tuple[BitString, BitString], ...]:
        """(argument, output) pairs sorted by (length, value)."""
        return tuple(self._table.items())

    def image(self, length: int) -> tuple[BitString, ...]:
        """The distinct outputs over all arguments of one covered length."""
        if length not in self._lengths:
            raise StructLabError(f"length {length} is not covered by the table")
        outputs = {v for a, v in self._table.items() if len(a) == length}
        return tuple(sorted(outputs, key=BitString.sort_key))

    def data_length(self, x: "str | BitString") -> "int | None":
        """Shortest covered argument length printing ``x``; None if none does."""
        xb = _coerce_bits(x)
        for length in self._lengths:
            if any(v == xb for a, v in self._table.items() if len(a) == length):
                return length
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TotalFnModel):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"TotalFnModel(arg_len={self._arg_len}, entries={len(self._table)})"


def expand_set(s: FiniteSet, target: str) -> "ProbModel | TotalFnModel":
    """Reprice a finite set as a pmf or as a lookup function.

    ``target='pmf'`` builds the uniform pmf on the members, so every
    member has probability exactly ``1/|S|``.  ``target='fn'`` builds the
    index table on arguments of length ``ceil(log2 |S|)``: argument ``d``
    maps to the member at position ``integer(d) mod |S|`` of the sorted
    member list, so every member is printed at that single length.
    """
    if s.cardinality == 0:
        raise StructLabError("cannot expand an empty set")
    if target == "pmf":
        q = Fraction(1, s.cardinality)
        return ProbModel(s.n, {b: q for b in s.bitstrings()})
    if target == "fn":
        members = s.bitstrings()
        length = s.ceil_log_card
        table = {}
        for v in range(1 << length):
            d = BitString.from_value(length, v)
            table[d] = members[d.to_integer() % s.cardinality]
        return TotalFnModel(length, table)
    raise StructLabError(f"expansion target must be 'pmf' or 'fn', got {target!r}")


def probability_level(q) -> int:
    """The unique integer m with ``2**-(m+1) < q <= 2**-m``, exactly."""
    q = Fraction(q)
    if not 0 < q <= 1:
        raise StructLabError(
            f"probability level requires a value in (0, 1], got {show_fraction(q)}"
        )
    num, den = q.numerator, q.denominator
    k = den.bit_length() - num.bit_length()
    return k if (num << k) <= den else k - 1


@dataclass(frozen=True)
class PmfRestriction:
    """A finite set distilled from a pmf around one string, with its bounds.

    ``set`` collects every string strictly more probable than the dyadic
    threshold ``2**-(m+1)`` just below ``probability``; the certificate
    bounds hold exactly for every rational pmf: the set contains ``x``,
    has fewer than ``2**(m+1)`` members, and ``2**(m+1) <= 2/P(x)``.
    """

    x: BitString
    probability: Fraction
    m: int
    threshold: Fraction
    set: FiniteSet

    @property
    def cardinality(self) -> int:
        return self.set.cardinality

    @property
    def cardinality_bound(self) -> int:
        return 1 << (self.m + 1)

    @property
    def probability_bound(self) -> Fraction:
        return 2 / self.probability

    @property
    def holds(self) -> bool:
        return (
            self.x in self.set
            and self.cardinality < self.cardinality_bound
            and self.cardinality_bound <= self.probability_bound
        )

    def to_json_dict(self) -> dict:
        return {
            "x": str(self.x),
            "probability": str(self.probability),
            "m": self.m,
            "threshold": str(self.threshold),
            "cardinality": self.cardinality,
            "cardinality_bound": self.cardinality_bound,
            "probability_bound": str(self.probability_bound),
            "holds": self.holds,
            "members": [str(b) for b in self.set.bitstrings()],
        }


@dataclass(frozen=True)
class FnRestriction:
    """The image of a lookup function at the length that first prints ``x``.

    The certificate is the size bound ``ceil(log2 |S|) <= data_length``:
    at most ``2**data_length`` arguments exist at that length, so the
    image cannot be larger.
    """

    x: BitString
    data_length: int
    set: FiniteSet

    @property
    def cardinality(self) -> int:
        return self.set.cardinality

    @property
    def ceil_log_card(self) -> int:
        return self.set.ceil_log_card

    @property
    def holds(self) -> bool:
        return self.x in self.set and self.ceil_log_card <= self.data_length

    def to_json_dict(self) -> dict:
        return {
            "x": str(self.x),
            "data_length": self.data_length,
            "cardinality": self.cardinality,
            "ceil_log_card": self.ceil_log_card,
            "holds": self.holds,
            "members": [str(b) for b in self.set.bitstrings()],
        }


def _restrict_pmf(model: ProbModel, x: "str | BitString") -> PmfRestriction:
    xb = _coerce_bits(x)
    if len(xb) != model.n:
        raise StructLabError(
            f"string length {len(xb)} does not match the support length {model.n}"
        )
    p = model.probability(xb)
    if p == 0:
        raise StructLabError(f"cannot restrict: the model gives {xb!r} probability 0")
    m = probability_level(p)
    threshold = pow2(-m - 1)
    members = [b.value for b, q in model.items() if q > threshold]
    return PmfRestriction(
        x=xb,
        probability=p,
        m=m,
        threshold=threshold,
        set=FiniteSet(model.n, members),
    )


def _restrict_fn(model: TotalFnModel, x: "str | BitString") -> FnRestriction:
    xb = _coerce_bits(x)
    length = model.data_length(xb)
    if length is None:
        raise StructLabError(
            f"cannot restrict: {xb!r} is not in the image of the table"
        )
    outputs = model.image(length)
    widths = {len(v) for v in outputs}
    if len(widths) != 1:
        raise StructLabError(
            f"the image at argument length {length} mixes output lengths; "
            f"no single-universe set exists"
        )
    return FnRestriction(
        x=xb,
        data_length=length,
        set=FiniteSet(widths.pop(), [v.value for v in outputs]),
    )


def restrict_to_set(model, x: "str | BitString"):
    """Collapse a pmf or lookup model into a finite set around ``x``.

    For a pmf, the set keeps the strings more probable than the dyadic
    threshold just below ``P(x)``; for a lookup function, it is the image
    at the shortest argument length that prints ``x``.  Both come with
    exact size certificates; see :class:`PmfRestriction` and
    :class:`FnRestriction`.
    """
    if isinstance(model, ProbModel):
        return _restrict_pmf(model, x)
    if isinstance(model, TotalFnModel):
        return _restrict_fn(model, x)
    raise StructLabError(
        f"cannot restrict a {type(model).__name__}; expected ProbModel or TotalFnModel"
    )


# ---------------------------------------------------------------------------
# conditional deficiencies
# ---------------------------------------------------------------------------


def _shortcut_length(shortcuts, xb: BitString) -> "int | None":
    if not shortcuts:
        return None
    norm = {}
    for obj, prog in dict(shortcuts).items():
        norm[_coerce_bits(obj)] = _coerce_bits(prog)
    check_prefix_free(norm.values(), "conditional")
    prog = norm.get(xb)
    return None if prog is None else len(prog)


def pmf_deficiency_key(
    model: ProbModel, x: "str | BitString", shortcuts=None
) -> "Fraction | None":
    """Exact comparison key for ``-log2 P(x) - K(x|P)``; None means infinite.

    The deficiency itself is ``log2`` of this key.  The default
    conditional cost is the ``ceil(-log2 P(x))``-bit dyadic code for ``x``
    under ``P``; an optional prefix-free shortcut table may undercut it,
    raising the deficiency, exactly as conditional shortcuts do for sets.
    """
    xb = _coerce_bits(x)
    p = model.probability(xb)
    short = _shortcut_length(shortcuts, xb)
    if p == 0:
        return None
    m = probability_level(p)
    default = m if p == pow2(-m) else m + 1
    k = default if short is None else min(default, short)
    return pow2(-k) / p


def pmf_deficiency(model: ProbModel, x: "str | BitString", shortcuts=None) -> float:
    """``-log2 P(x) - K(x|P)`` as a float; infinite when P(x) = 0."""
    return log2_display(pmf_deficiency_key(model, x, shortcuts))


def fn_deficiency(model: TotalFnModel, x: "str | BitString", shortcuts=None) -> "int | float":
    """``data_length(x) - K(x|p)``; infinite when the table never prints x.

    The default conditional cost is the argument that prints ``x``, so the
    deficiency is 0 unless a shortcut names ``x`` more cheaply.
    """
    xb = _coerce_bits(x)
    length = model.data_length(xb)
    short = _shortcut_length(shortcuts, xb)
    if length is None:
        return math.inf
    k = length if short is None else min(length, short)
    return length - k


# ---------------------------------------------------------------------------
# likelihood curves over pmf codebooks
# ---------------------------------------------------------------------------


class PmfCodebook(Codebook):
    """A prefix-free namespace of probability models over one support length."""

    __slots__ = ()
    model_type = ProbModel
    model_noun = "a probability model"
    length_noun = "support length"
    namespace = "pmf"


@dataclass(frozen=True)
class LikelihoodRow:
    """Largest affordable probability of the data at one complexity budget.

    ``probability`` is None when no program fits the budget at all, and 0
    when programs fit but every affordable model gives the data probability
    0; the ``value`` (the negative log) is infinite either way, and a
    witness exists only when the probability is positive.
    """

    alpha: int
    probability: "Fraction | None"
    witness: "BitString | None"

    @property
    def value(self) -> float:
        if self.probability is None or self.probability == 0:
            return math.inf
        return -log2_display(self.probability)


@dataclass(frozen=True)
class LikelihoodCurve:
    x: BitString
    alpha_max: int
    rows: tuple

    def values(self) -> list[float]:
        return [row.value for row in self.rows]


def likelihood_curve(
    codebook: PmfCodebook, x: "str | BitString", alpha_max: "int | None" = None
) -> LikelihoodCurve:
    """Least ``-log2 P(x)`` over models of each program-length budget.

    At each budget the winner is the named model giving ``x`` the largest
    probability (ties to the smallest program), so the curve is the
    maximum-likelihood analog of the set profile's size curve and is
    non-increasing in the budget.
    """
    xb = _coerce_bits(x)
    if len(xb) != codebook.n:
        raise StructLabError(
            f"string length {len(xb)} does not match the support length {codebook.n}"
        )
    if alpha_max is None:
        alpha_max = codebook.max_program_length()
    if alpha_max < 0:
        raise StructLabError("alpha_max must be nonnegative")
    programs = list(codebook.programs.items())
    # Largest probability first, ties to the smallest program.
    best = staircase(
        ((len(prog), (-model.probability(xb), i)) for i, (prog, model) in enumerate(programs)),
        alpha_max,
    )
    rows = []
    for alpha, key in enumerate(best):
        p = None if key is None else -key[0]
        witness = programs[key[1]][0] if p else None
        rows.append(LikelihoodRow(alpha=alpha, probability=p, witness=witness))
    return LikelihoodCurve(x=xb, alpha_max=alpha_max, rows=tuple(rows))


def pmf_codebook_from_sets(sys: DescriptionSystem) -> PmfCodebook:
    """Reprice a system's set namespace as uniform probability models.

    Each set program names the uniform pmf on its set at the same program
    length, so members cost exactly the log set size and the codebook's
    likelihood curve reproduces the set-size curve of the profile.
    """
    return PmfCodebook(
        {prog: expand_set(s, "pmf") for prog, s in sys.set_programs.items()}
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _format_token(b: BitString) -> str:
    return str(b) if len(b) else "."


def parse_pmf(text: str, n: "int | None" = None) -> ProbModel:
    """Parse a pmf fixture: one ``string<TAB>probability`` line per string.

    Probabilities are rationals like ``1/3``, ``0``, or ``1``.  The
    support length defaults to the length of the first string named.
    """
    entries: dict[BitString, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FixtureError(
                f"line {lineno}: expected 'string probability', got {line!r}"
            )
        token = parts[0]
        if not token or not all(c in "01" for c in token):
            raise FixtureError(f"line {lineno}: malformed string {token!r}")
        b = BitString(token)
        try:
            q = read_fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise FixtureError(
                f"line {lineno}: malformed probability {parts[1]!r}"
            ) from None
        if b in entries:
            raise FixtureError(f"line {lineno}: repeated string {token!r}")
        entries[b] = q
    if not entries:
        raise FixtureError("a probability fixture names no strings")
    if n is None:
        n = len(next(iter(entries)))
    return ProbModel(n, entries)


def format_pmf(model: ProbModel) -> str:
    lines = [f"{b}\t{q}" for b, q in model.items()]
    return "\n".join(lines) + "\n"


def parse_fn(text: str, arg_len: "int | None" = None) -> TotalFnModel:
    """Parse a function fixture: one ``argument<TAB>value`` line per argument.

    Both fields are bare bit strings, with ``.`` standing for the empty
    string.  The declared argument length defaults to the longest argument
    named.
    """
    entries: dict[BitString, BitString] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FixtureError(
                f"line {lineno}: expected 'argument value', got {line!r}"
            )
        arg_token, value_token = parts
        if arg_token != "." and not all(c in "01" for c in arg_token):
            raise FixtureError(f"line {lineno}: malformed argument {arg_token!r}")
        if value_token != "." and not all(c in "01" for c in value_token):
            raise FixtureError(f"line {lineno}: malformed value {value_token!r}")
        arg = EMPTY if arg_token == "." else BitString(arg_token)
        if arg in entries:
            raise FixtureError(f"line {lineno}: repeated argument {arg_token!r}")
        entries[arg] = EMPTY if value_token == "." else BitString(value_token)
    if not entries:
        raise FixtureError("a function fixture names no entries")
    if arg_len is None:
        arg_len = max(len(a) for a in entries)
    return TotalFnModel(arg_len, entries)


def format_fn(model: TotalFnModel) -> str:
    lines = [f"{_format_token(a)}\t{_format_token(v)}" for a, v in model.items()]
    return "\n".join(lines) + "\n"
