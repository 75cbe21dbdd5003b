"""Universal statistics from enumeration indexes.

A description system induces an enumeration of its universe: list every
string together with its minimal program length, shortest programs first.
Surprisingly much of a string's model structure is recoverable from nothing
but *positions* in such a list:

* ``build_index`` locates a string's first appearance and compares that
  index, bit by bit, against the total count of enumerated pairs;
* ``build_Sli`` carves the enumeration into dyadic half-blocks -- the set of
  objects whose index starts with the first ``i`` bits of the count followed
  by a ``0``.  Whenever bit ``i`` of the count is 1, that half-block is full:
  it has exactly ``2**(width-i-1)`` members, where ``width`` is the bit
  length of the count.  These blocks form a universal family of models: for
  every representable set containing ``x`` there is a block that explains
  ``x`` at least as well (``sli_dominance_report`` measures by how much);
* ``reconstruct_from_prefix`` inverts the counting: from the common-prefix
  data alone it recovers the exact set of objects of complexity at most
  ``i``;
* ``muchnik_lambda`` rebuilds the whole two-part-cost curve of a string from
  a truncated enumeration, stopping the moment the string itself shows up.

Every half-block quantity is integer arithmetic on two numbers, an object's
first index and a pair count (:func:`_shared_prefix`, :func:`_block_range`),
so the reports read a level's section of an enumeration as its pair count.

Enumerations are value objects (:class:`EnumeratedD`), either induced from a
:class:`~structlab.descsys.DescriptionSystem` or read from fixture text with
one ``object<TAB>level`` line per pair.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .codec import BitString, read_bits, read_int, show_bits, text_lines
from .descsys import DescriptionSystem, FiniteSet
from .errors import FixtureError, RefusalError, StructLabError
from .structfn import profile, staircase

__all__ = [
    "EnumeratedD",
    "IndexRecord",
    "SliBlock",
    "MuchnikCurve",
    "ReconstructionReport",
    "SliDominanceRecord",
    "SliDominanceReport",
    "UniversalFamilyRow",
    "UniversalFamilyReport",
    "build_index",
    "build_Sli",
    "induced_data_D",
    "induced_Dk",
    "muchnik_lambda",
    "reconstruct_from_prefix",
    "sli_dominance_report",
    "universal_family_report",
    "parse_enumerated",
    "format_enumerated",
]


def _coerce_object(obj) -> "BitString | FiniteSet":
    if isinstance(obj, (BitString, FiniteSet)):
        return obj
    if isinstance(obj, str):
        return BitString(obj)
    raise StructLabError(
        f"enumeration objects must be strings or finite sets, got {type(obj).__name__}"
    )


class EnumeratedD:
    """An ordered enumeration of distinct (object, level) pairs, level <= l.

    Objects are bit strings or finite sets; the level of a pair is an upper
    bound on the object's complexity (induced enumerations use the exact
    minimal program length).  ``N_l`` is the total number of pairs and
    ``width`` the bit length of that count -- indexes are always read as
    ``width``-bit numerals with leading zeros.

    Construction records each object's first-appearance index and the
    running count of distinct objects over each prefix of the pairs.  A
    section is a filter: a new enumeration of the pairs at or below a level.
    """

    def __init__(self, pairs, l: "int | None" = None):
        order: list[tuple] = []
        seen: set = set()
        first: dict = {}
        distinct = array("q", [0])  # distinct[p]: number of distinct objects in order[:p]
        for obj, level in pairs:
            o = _coerce_object(obj)
            i = int(level)
            if i < 0:
                raise StructLabError(f"pair level must be nonnegative, got {i}")
            if (o, i) in seen:
                raise StructLabError(f"repeated enumeration pair ({o!r}, {i})")
            seen.add((o, i))
            first.setdefault(o, len(order))
            order.append((o, i))
            distinct.append(len(first))
        self._order = tuple(order)
        self._first = first
        self._distinct = distinct
        top = max((i for _, i in order), default=0)
        if l is None:
            l = top
        l = int(l)
        if l < top:
            raise StructLabError(
                f"enumeration bound {l} is below a pair level {top}"
            )
        self._l = l

    @classmethod
    def _trusted(cls, order: tuple) -> "EnumeratedD":
        """An enumeration of distinct objects in nondecreasing level order,
        without the pair checks such an order passes by construction."""
        self = cls.__new__(cls)
        self._order = order
        self._first = {o: pos for pos, (o, _) in enumerate(order)}
        self._distinct = array("q", range(len(order) + 1))
        self._l = order[-1][1] if order else 0
        return self

    @property
    def l(self) -> int:
        return self._l

    @property
    def order(self) -> tuple:
        return self._order

    @property
    def N_l(self) -> int:
        return len(self._order)

    @property
    def width(self) -> int:
        return self.N_l.bit_length()

    def is_injective(self) -> bool:
        """True when every object appears in exactly one pair."""
        return self._distinct[self.N_l] == self.N_l

    def objects(self) -> tuple:
        """Distinct objects in order of first appearance."""
        return tuple(self._first)

    def _first_index(self, obj) -> "int | None":
        """Index of the first pair carrying ``obj``, or None if it never appears."""
        return self._first.get(obj)

    def section(self, l: int) -> "EnumeratedD":
        """The sub-enumeration of pairs with level <= l, reindexed."""
        if l < 0:
            raise StructLabError(f"section level must be nonnegative, got {l}")
        return EnumeratedD(((o, i) for o, i in self._order if i <= l), l=l)

    def __len__(self) -> int:
        return len(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnumeratedD):
            return NotImplemented
        return self._l == other._l and self._order == other._order

    def __hash__(self) -> int:
        return hash((self._l, self._order))

    def __repr__(self) -> str:
        return f"EnumeratedD(l={self._l}, pairs={self.N_l})"


def _shared_prefix(index: int, count: int) -> int:
    """Length of the common prefix of the numerals of ``index < count``."""
    return count.bit_length() - (index ^ count).bit_length()


def _count_bits(count: int, i: int) -> BitString:
    """The first ``i`` bits of the numeral of ``count``."""
    return BitString.from_value(i, count >> (count.bit_length() - i))


def _block_range(count: int, i: int) -> tuple[int, int]:
    """Indexes ``[lo, end)`` of the level-``i`` half-block under ``count`` pairs.

    ``lo`` is the first ``i`` bits of the count followed by zeros; ``end``
    puts a 1 after those ``i`` bits.
    """
    shift = count.bit_length() - i
    lo = count >> shift << shift
    return lo, lo + (1 << (shift - 1))


@dataclass(frozen=True)
class IndexRecord:
    """Where an object first appears, compared against the total count.

    ``I`` is the index of the first pair carrying the object (None when the
    object never appears); ``m`` is the maximal common prefix of the
    ``width``-bit numeral of ``I`` and the numeral of ``N_l``.  Since
    ``I < N_l``, the bit after the prefix is 0 in ``I`` and 1 in ``N_l``.
    """

    x: object
    I: "int | None"
    m: "BitString | None"

    @property
    def m_len(self) -> "int | None":
        return None if self.m is None else len(self.m)


def build_index(d: EnumeratedD, x) -> IndexRecord:
    """Locate ``x``'s first pair and its common prefix with the count."""
    xo = _coerce_object(x)
    index = d._first_index(xo)
    if index is None:
        return IndexRecord(xo, None, None)
    return IndexRecord(xo, index, _count_bits(d.N_l, _shared_prefix(index, d.N_l)))


@dataclass(frozen=True)
class SliBlock:
    """A dyadic half-block of an enumeration.

    The block at level ``i`` collects the objects whose first-appearance
    index reads ``prefix + '0' + anything`` as a ``width``-bit numeral,
    where ``prefix`` is the first ``i`` bits of the pair count.  ``lo`` and
    ``hi`` bound the matching index range, so size and membership are read
    from the enumeration's tables; ``members`` is listed only on request.
    """

    i: int
    prefix: BitString
    width: int
    lo: int
    hi: int
    source: EnumeratedD

    @property
    def cardinality(self) -> int:
        distinct = self.source._distinct
        return distinct[self.hi + 1] - distinct[self.lo]

    @property
    def members(self) -> tuple:
        first, lo = self.source._first, self.lo
        pairs = self.source.order[lo : self.hi + 1]
        return tuple(o for pos, (o, _) in enumerate(pairs, start=lo) if first[o] == pos)

    def __contains__(self, x: object) -> bool:
        """Membership of an object; a str is read as a BitString."""
        try:
            x = _coerce_object(x)
        except StructLabError:  # never an enumeration object
            return False
        return self.lo <= self.source._first.get(x, -1) <= self.hi


def build_Sli(d: EnumeratedD, i: int) -> SliBlock:
    """Carve the level-``i`` half-block out of an enumeration.

    Requires ``0 <= i < width``.  When bit ``i`` of the pair count is 0 the
    half-block is not full and the construction refuses; when it is 1, every
    index in the block's range is in use, so on an enumeration that lists
    each object once the block has exactly ``2**(width-i-1)`` members.
    """
    width = d.width
    if not 0 <= i < width:
        raise StructLabError(
            f"half-block level must be in [0, {width}), got {i}"
        )
    if not d.N_l >> (width - i - 1) & 1:
        raise RefusalError(
            f"bit {i} of the pair count {d.N_l} is 0; the half-block is not full"
        )
    lo, end = _block_range(d.N_l, i)
    return SliBlock(i=i, prefix=_count_bits(d.N_l, i), width=width, lo=lo, hi=end - 1, source=d)


# ---------------------------------------------------------------------------
# induced enumerations
# ---------------------------------------------------------------------------


#: One induced enumeration per live system; an entry goes with its system.
_INDUCED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def induced_data_D(sys: DescriptionSystem) -> EnumeratedD:
    """Enumerate the universe as (string, K(string)) pairs, shortest first.

    Pairs are sorted by (program length, program); each string appears
    exactly once, so pairs with level <= l form a prefix of the enumeration
    and the full count of a section equals the number of strings of
    complexity at most l.  They are the first appearances of the outputs
    in the data part of :attr:`DescriptionSystem.program_table`, which is
    in program order already, so the objects are the table's own strings.
    The enumeration is built once per system and shared by later calls for
    as long as the system is alive.
    """
    d = _INDUCED.get(sys)
    if d is None:
        seen = bytearray(sys.universe_size())
        pairs = []
        for kind, p, out in sys.program_table:
            if kind != "data":
                break
            if not seen[out.value]:
                seen[out.value] = 1
                pairs.append((out, len(p)))
        d = _INDUCED[sys] = EnumeratedD._trusted(tuple(pairs))
    return d


def induced_Dk(sys: DescriptionSystem, k: int) -> EnumeratedD:
    """Enumerate (object, level) pairs in rounds of increasing level.

    Round ``i`` lists a pair (object, i) for every object of complexity at
    most ``i`` -- model sets first, then data strings, each group in
    (program length, program) order.  Listing sets before strings within a
    round means every model no costlier than a string precedes that string's
    own pair, which is what makes truncated reconstruction exact.
    """
    if k < 0:
        raise StructLabError(f"complexity budget must be nonnegative, got {k}")
    # the set entries and the induced enumeration are in (K, witness) order
    data_rows = induced_data_D(sys).order
    pairs = []
    for i in range(k + 1):
        for e in sys.set_entries():
            if e.K_S <= i:
                pairs.append((e.set, i))
        for b, cost in data_rows:
            if cost <= i:
                pairs.append((b, i))
    return EnumeratedD(pairs, l=k)


# ---------------------------------------------------------------------------
# curve reconstruction from a truncated enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuchnikCurve:
    """A two-part-cost curve rebuilt from a truncated enumeration.

    ``values[alpha]`` is the best ``level + ceil(log2 |S|)`` over listed set
    pairs containing ``x`` with level <= alpha (None for an empty minimum)
    when ``alpha <= alpha0``, and the complexity budget ``k`` above that.
    ``cutoff`` is the index of the stopping pair.
    """

    x: BitString
    k: int
    alpha0: int
    cutoff: int
    values: tuple

    def value(self, alpha: int) -> "int | None":
        return self.values[alpha]


def muchnik_lambda(d_k: EnumeratedD, x, k: int, alpha0: int) -> MuchnikCurve:
    """Rebuild the two-part-cost curve of ``x`` on budgets [0, k].

    Enumerate ``d_k`` until the first *data* pair carrying ``x`` appears and
    keep the list of everything seen.  For alpha <= alpha0 take the best
    two-part cost over listed set pairs; past alpha0 clamp to ``k``.  The
    result is non-increasing whenever ``k`` does not exceed the true
    two-part cost at ``alpha0``, and it matches the exact curve on budgets
    up to min(alpha0, K(x)) when ``d_k`` is induced from the system.
    """
    x = BitString(x)
    if not 0 <= k <= d_k.l:
        raise StructLabError(
            f"the complexity budget must be in [0, {d_k.l}], the enumeration bound, got {k}"
        )
    if not 0 <= alpha0 <= k:
        raise StructLabError(
            f"the plateau start must be in [0, {k}], got {alpha0}"
        )
    top = max((level for _, level in d_k.order), default=0)
    if top > k:
        raise StructLabError(f"enumeration pair level {top} exceeds the budget {k}")
    cutoff = d_k._first_index(x)
    if cutoff is None:
        raise StructLabError(f"the target string {x!r} never appears in the enumeration")
    trusted = staircase(
        (
            (level, level + s.ceil_log_card)
            for s, level in d_k.order[: cutoff + 1]
            if isinstance(s, FiniteSet) and x in s
        ),
        alpha0,
    )
    values = tuple(trusted) + (k,) * (k - alpha0)
    return MuchnikCurve(x=x, k=k, alpha0=alpha0, cutoff=cutoff, values=values)


# ---------------------------------------------------------------------------
# counting reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionReport:
    """Objects of complexity at most ``i``, recovered by counting.

    ``anchor`` is the last-enumerated object at level <= i, ``m`` its common
    prefix with the pair count, and ``cutoff_count`` the number of pairs the
    procedure reads: the numeral ``m + '1' + zeros``.  Every level-<=i pair
    sits strictly before that cutoff, so filtering the read pairs by level
    recovers exactly the objects of complexity at most ``i``.
    """

    i: int
    anchor: object
    m: "BitString | None"
    cutoff_count: int
    objects: tuple


def reconstruct_from_prefix(d: EnumeratedD, i: int) -> ReconstructionReport:
    """Recover {object : complexity <= i} from prefix-and-count data alone."""
    if not d.is_injective():
        raise StructLabError(
            "counting reconstruction requires an enumeration that lists each object once"
        )
    if i < 0:
        raise StructLabError(f"complexity level must be nonnegative, got {i}")
    candidates = [pos for pos, (_, j) in enumerate(d.order) if j <= i]
    if not candidates:
        return ReconstructionReport(i=i, anchor=None, m=None, cutoff_count=0, objects=())
    anchor = max(candidates)
    m_len = _shared_prefix(anchor, d.N_l)
    cutoff = _block_range(d.N_l, m_len)[1]  # m_len bits of the count, then 1, then 0s
    objects = tuple(o for o, j in d.order[:cutoff] if j <= i)
    m = _count_bits(d.N_l, m_len)
    return ReconstructionReport(
        i=i, anchor=d.order[anchor][0], m=m, cutoff_count=cutoff, objects=objects
    )


# ---------------------------------------------------------------------------
# dominance of the half-block family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliDominanceRecord:
    """One representable model versus its half-block replacement.

    ``l`` is the enumeration level the block is carved at: the model's
    integer two-part cost, either exactly (``variant='exact'``) or padded by
    the system's subadditivity constant (``variant='padded'``; this level is
    always high enough to reach ``x``).  The block's own two-part analog is
    ``width - 1`` regardless of ``i``, so ``slack = width - 1 - l`` measures
    how much the block overshoots the model it replaces; it is never
    positive, because at most ``2**(l+1) - 2`` programs fit below length
    ``l``.
    """

    program: BitString
    K_S: int
    cardinality: int
    variant: str
    l: int
    in_section: bool
    i: "int | None"
    block_cardinality: "int | None"
    block_lambda: "int | None"
    slack: "int | None"
    contains: "bool | None"


@dataclass(frozen=True)
class SliDominanceReport:
    x: BitString
    c_sub: int
    records: tuple


def sli_dominance_report(sys: DescriptionSystem, x) -> SliDominanceReport:
    """Measure how the half-block family dominates every model of ``x``.

    For each representable set containing ``x`` and each level variant, find
    ``x``'s common-prefix length ``i`` in the level-``l`` section of the
    induced enumeration and carve the half-block there.  Membership of ``x``
    and the block's exact cardinality hold by construction; the measured
    slack says how the block's two-part analog compares to the model's.
    The induced enumeration is sorted by level, so that section is its
    first ``count`` pairs and the block is read off the whole enumeration.
    """
    xb = BitString.from_value(sys.universe_n, sys._value(x))
    d = induced_data_D(sys)
    index = d._first_index(xb)
    records = []
    for entry in sys.entries_containing(xb):
        cost = entry.K_S + entry.set.ceil_log_card
        for variant, l in (("exact", cost), ("padded", cost + sys.c_sub)):
            count = bisect_right(d.order, l, key=itemgetter(1))
            i = size = lam = contains = None
            if index < count:  # the level-l section lists x
                i, lam = _shared_prefix(index, count), count.bit_length() - 1
                lo, end = _block_range(count, i)
                size, contains = d._distinct[end] - d._distinct[lo], lo <= index < end
            records.append(
                SliDominanceRecord(
                    program=entry.witness_program,
                    K_S=entry.K_S,
                    cardinality=entry.cardinality,
                    variant=variant,
                    l=l,
                    in_section=i is not None,
                    i=i,
                    block_cardinality=size,
                    block_lambda=lam,
                    slack=None if lam is None else lam - l,
                    contains=contains,
                )
            )
    return SliDominanceReport(x=xb, c_sub=sys.c_sub, records=tuple(records))


# ---------------------------------------------------------------------------
# the half-block family as a universal profile witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniversalFamilyRow:
    """Best half-block analogs at one budget, against the exact profile.

    Analog costs are combinatorial stand-ins: a block carved at level ``l``
    with prefix length ``i`` has naming analog ``i``, log-size exactly
    ``width - i - 1`` and two-part analog ``width - 1``.  Gaps are signed
    (analog minus exact) and None when either side is undefined.
    """

    alpha: int
    lambda_analog: "int | None"
    lambda_l: "int | None"
    h_analog: "int | None"
    h_l: "int | None"
    lambda_gap: "float | None"
    h_gap: "float | None"
    beta_gap: "float | None"


@dataclass(frozen=True)
class UniversalFamilyReport:
    x: BitString
    K_x: int
    alpha_max: int
    rows: tuple


def universal_family_report(sys: DescriptionSystem, x) -> UniversalFamilyReport:
    """Compare the best half-blocks of ``x`` against its exact profile.

    For every level ``l`` of the induced enumeration there is one half-block
    containing ``x`` (at its common-prefix length); scanning ``l`` yields a
    family of candidate models.  At each budget ``alpha`` the rows report
    the cheapest two-part and log-size analogs over blocks with prefix
    length at most ``alpha`` (up to the longest set program), with signed
    gaps against the exact curves.
    """
    xb = BitString.from_value(sys.universe_n, sys._value(x))
    d = induced_data_D(sys)
    k_x = sys.K_data(xb)
    index = d._first_index(xb)

    candidates = []  # (i, width, l) for each level where x is enumerated
    for l in range(d.l + 1):
        count = bisect_right(d.order, l, key=itemgetter(1))
        if index < count:
            candidates.append((_shared_prefix(index, count), count.bit_length(), l))

    prof = profile(sys, xb)
    alpha_max = prof.alpha_max
    lambda_best = staircase(((i, (width - 1, l)) for i, width, l in candidates), alpha_max)
    h_best = staircase(((i, (width - i - 1, l)) for i, width, l in candidates), alpha_max)
    # one log2_display per staircase step of each exact curve
    lambdas, hs, betas = prof.lambda_values(), prof.h_values(), prof.beta_values()
    rows = []
    for alpha in range(alpha_max + 1):
        lambda_analog, lambda_l = lambda_best[alpha] or (None, None)
        h_analog, h_l = h_best[alpha] or (None, None)
        lambda_gap = (
            None
            if lambda_analog is None or prof.lambda_rows[alpha] is None
            else lambda_analog - lambdas[alpha]
        )
        h_gap = (
            None
            if h_analog is None or prof.h_rows[alpha] is None
            else h_analog - hs[alpha]
        )
        beta_gap = (
            None
            if lambda_analog is None or prof.beta_rows[alpha] is None
            else (lambda_analog - k_x) - betas[alpha]
        )
        rows.append(
            UniversalFamilyRow(
                alpha=alpha,
                lambda_analog=lambda_analog,
                lambda_l=lambda_l,
                h_analog=h_analog,
                h_l=h_l,
                lambda_gap=lambda_gap,
                h_gap=h_gap,
                beta_gap=beta_gap,
            )
        )
    return UniversalFamilyReport(x=xb, K_x=k_x, alpha_max=alpha_max, rows=tuple(rows))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _format_object(obj) -> str:
    if isinstance(obj, BitString):
        return show_bits(obj)
    if isinstance(obj, FiniteSet):
        return "{" + obj.show() + "}"
    raise StructLabError(f"cannot format enumeration object {obj!r}")


def _read_object(token: str, where: str) -> "BitString | FiniteSet":
    if not token.startswith("{"):
        return read_bits(token, "enumeration object", where)
    if not token.endswith("}"):
        raise FixtureError(f"{where}: unterminated set literal {token!r}")
    return FiniteSet.read(token[1:-1], where)


def parse_enumerated(text: str, l: "int | None" = None) -> EnumeratedD:
    """Parse an enumeration fixture: one ``object<TAB>level`` line per pair.

    Objects are bare bit strings (``.`` for the empty string) or braced set
    literals like ``{00,01}``.  A negative level or a repeated pair is
    refused on its own line.
    """
    pairs: dict[tuple, None] = {}
    for where, (obj, level) in text_lines(text, "object level"):
        pair = (_read_object(obj, where), read_int(level, "level", where))
        if pair[1] < 0:
            raise FixtureError(f"{where}: pair level must be nonnegative, got {pair[1]}")
        if pair in pairs:
            raise FixtureError(f"{where}: repeated enumeration pair {obj} {level}")
        pairs[pair] = None
    return EnumeratedD(pairs, l=l)


def format_enumerated(d: EnumeratedD) -> str:
    """Render an enumeration in the fixture format, one pair per line."""
    lines = [f"{_format_object(o)}\t{i}" for o, i in d.order]
    return "\n".join(lines) + ("\n" if lines else "")
