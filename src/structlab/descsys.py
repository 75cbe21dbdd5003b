"""Finite description systems over a universe of fixed-length bit strings.

A :class:`DescriptionSystem` is a fully enumerable stand-in for a universal
machine.  It consists of three kinds of prefix-free program namespaces over
the universe ``{0,1}^n``:

* **data programs** print individual universe strings; every universe
  string must be printed by at least one program, so the shortest-program
  complexity ``K(x)`` is total;
* **set programs** print nonempty subsets of the universe; ``K(S)`` is the
  length of the shortest program printing exactly ``S`` (infinite when no
  program does);
* **conditional shortcut programs**, grouped per set, print strings given
  that set.  ``K(x | S)`` is the minimum of the index-code length
  ``ceil(log2 |S|)`` (available whenever ``x`` is a member) and the
  shortest shortcut for ``(S, x)``.

Each namespace must satisfy the Kraft inequality exactly; the sums are kept
as ``fractions.Fraction`` and exposed for audits.  The system also carries
its *subadditivity constant*::

    c_sub = max over representable S and x in S of  K(x) - K(S) - K(x|S)

an exact integer (possibly negative) that plays the role usually played by
an O(1) term: two-part descriptions recover data complexity up to ``c_sub``
inside this system, by construction.

Note one deliberate coarsening: conditional shortcuts are keyed by the
*printed set*, not by the program that printed it, so ``K(x | S)`` never
distinguishes two programs for the same set.  Systems whose conditional
behaviour should depend on the description rather than the set must encode
that in separate sets.

Systems can be built directly from dictionaries, parsed from a descriptor
file (see :func:`build_system` for the grammar), or expanded from model
family grammars (cubes, singletons, prefix cylinders, Hamming slices, patch
products, literal and two-part weight-ranked data codes).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .codec import (
    BitString,
    encode_sd,
    read_bits,
    read_text,
    show_bits,
    string_of_integer,
    text_lines,
)
from .errors import DescriptorError, FixtureError, StructLabError
from .rational import ceil_log2, log2_display

__all__ = [
    "FiniteSet",
    "ModelRecord",
    "DescriptionSystem",
    "EnumerationEvent",
    "EnumerationStream",
    "build_system",
    "load_system",
    "enumerate_models",
    "enumeration_stream",
    "apply_permutation",
    "check_prefix_free",
    "kraft_sum",
    "Codebook",
    "MAX_UNIVERSE_BITS",
]

MAX_UNIVERSE_BITS = 16


# ---------------------------------------------------------------------------
# Finite sets
# ---------------------------------------------------------------------------


class FiniteSet:
    """An immutable subset of the universe ``{0,1}^n``, kept sorted.

    Elements are stored as integers in ``[0, 2^n)``; the integer order of
    values coincides with lexicographic order of the corresponding n-bit
    strings.  The empty set is representable as a value (it shows up as a
    flagged terminal state in synthesis) but description systems refuse to
    *print* it.
    """

    __slots__ = ("_n", "_values", "_members", "_hash")

    def __init__(self, n: int, values: Iterable["int | str | BitString"]):
        if not 1 <= n <= MAX_UNIVERSE_BITS:
            raise DescriptorError(f"universe width must be in [1, {MAX_UNIVERSE_BITS}], got {n}")
        members = frozenset([v if type(v) is int else self._coerce(n, v) for v in values])
        vals = sorted(members)
        if vals and not 0 <= vals[0] <= vals[-1] < 1 << n:
            bad = vals[0] if vals[0] < 0 else vals[-1]
            raise DescriptorError(f"element value {bad} outside universe of width {n}")
        self._n = n
        self._values = tuple(vals)
        self._members = members
        # Sets key the shortcut and set-index tables; the cube has 2^n
        # members, so hashing the tuple on every lookup would cost O(2^n).
        self._hash = hash((n, self._values))

    @classmethod
    def _trusted(cls, n: int, values: Iterable[int]) -> "FiniteSet":
        """A set from values already ascending, distinct and inside ``[0, 2^n)``."""
        self = cls.__new__(cls)
        self._n = n
        self._values = tuple(values)
        self._members = frozenset(self._values)
        self._hash = hash((n, self._values))
        return self

    @classmethod
    def read(
        cls, field: str, where: str, width: "int | None" = None, error: type = FixtureError
    ) -> "FiniteSet":
        """A comma-separated member list such as ``00,01`` (empty items skipped).

        The members share one width, ``width`` when it is given; refusals
        raise ``error`` and start with ``where``.
        """
        members = [read_bits(t, "member", where, error) for t in field.split(",") if t]
        if not members:
            raise error(f"{where}: member list has no members")
        widths = {len(b) for b in members}
        if len(widths) != 1:
            raise error(f"{where}: mixed member widths in {field!r}")
        (w,) = widths
        if not 1 <= w <= MAX_UNIVERSE_BITS:
            raise error(f"{where}: member width {w} is outside [1, {MAX_UNIVERSE_BITS}]")
        if width is not None and w != width:
            raise error(f"{where}: member width {w} != expected {width}")
        return cls(w, [b.value for b in members])

    @staticmethod
    def _coerce(n: int, v: "int | str | BitString") -> int:
        if type(v) is int:
            if not 0 <= v < (1 << n):
                raise DescriptorError(f"element value {v} outside universe of width {n}")
            return v
        if isinstance(v, (str, BitString)):
            b = BitString(v)
            if len(b) != n:
                raise DescriptorError(f"element {v!r} is not {n} bits long")
            return b.value
        raise DescriptorError(
            f"element {v!r} is a {type(v).__name__}, not an int, str or BitString"
        )

    @property
    def n(self) -> int:
        return self._n

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    @property
    def cardinality(self) -> int:
        return len(self._values)

    @property
    def ceil_log_card(self) -> int:
        """ceil(log2 |S|); the index-code length for members."""
        if not self._values:
            raise DescriptorError("ceil_log_card of the empty set")
        return ceil_log2(len(self._values))

    @property
    def log_card(self) -> float:
        return log2_display(len(self._values)) if self._values else -math.inf

    def bitstrings(self) -> tuple[BitString, ...]:
        return tuple(BitString.from_value(self._n, v) for v in self._values)

    def __contains__(self, x: object) -> bool:
        if type(x) is int:
            return x in self._members
        if isinstance(x, (str, BitString)):
            try:
                return self._coerce(self._n, x) in self._members
            except DescriptorError:
                return False
        return False

    def __iter__(self) -> Iterator[BitString]:
        return iter(self.bitstrings())

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteSet)
            and self._n == other._n
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = ",".join(str(b) for b in self.bitstrings()[:6])
        more = "" if len(self) <= 6 else f",...({len(self)} total)"
        return f"FiniteSet(n={self._n}, {{{shown}{more}}})"

    def subset_of(self, other: "FiniteSet") -> bool:
        return self._n == other._n and self._members <= other._members


# ---------------------------------------------------------------------------
# Model records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelRecord:
    """A set model together with its exact description-length data.

    ``K_cond`` is ``K(x | S)`` for the query string the record was built
    for, a member of S (``None`` when the record is query-free).  Exact
    order keys:

    * ``lambda_key  = 2**K_S * |S|``            (two-part total, as 2**Lambda)
    * ``delta_order = |S| << (n - K_cond)``     (as 2**n * 2**delta)

    Both are integers: a member's ``K(x|S) <= ceil(log2 |S|) <= n``.  So
    integer comparisons decide every tie that floats would fudge.  The
    exact value ``delta_key = 2**delta`` is a Fraction, built once, when
    first read.
    """

    set: FiniteSet
    K_S: int
    witness_program: BitString
    K_cond: "int | None" = None

    @property
    def cardinality(self) -> int:
        return self.set.cardinality

    @property
    def log_card(self) -> float:
        return self.set.log_card

    @property
    def ceil_log_card(self) -> int:
        return self.set.ceil_log_card

    @property
    def lambda_key(self) -> int:
        return (1 << self.K_S) * self.set.cardinality

    @property
    def total_length(self) -> float:
        """Lambda(S) = K(S) + log2 |S| (display value)."""
        return self.K_S + self.set.log_card

    @property
    def delta_order(self) -> "int | None":
        if self.K_cond is None:
            return None
        return self.set.cardinality << (self.set.n - self.K_cond)

    @cached_property
    def delta_key(self) -> "Fraction | None":
        order = self.delta_order
        return None if order is None else Fraction(order, 1 << self.set.n)

    @property
    def deficiency(self) -> float:
        """delta(x|S) = log2|S| - K(x|S) (display value)."""
        if self.K_cond is None:
            return math.nan
        return self.set.log_card - self.K_cond

    def sort_key(self) -> tuple[int, int, tuple[int, int]]:
        return (self.K_S, self.set.cardinality, self.witness_program.sort_key())


# ---------------------------------------------------------------------------
# Namespace helpers
# ---------------------------------------------------------------------------


def check_prefix_free(programs: Iterable[BitString], namespace: str) -> None:
    """Raise DescriptorError when one program is a proper prefix of another."""
    programs = list(programs)
    top = max(map(len, programs), default=0)
    # Lexicographic order of the bit texts: pad each value to the longest
    # length, and a prefix sorts before its extensions by its shorter length.
    ordered = sorted(programs, key=lambda p: (p.value << (top - len(p)), len(p)))
    for a, b in zip(ordered, ordered[1:]):
        if not b.startswith(a):
            continue
        if a == b:
            raise DescriptorError(f"duplicate program {str(a)!r} in {namespace} namespace")
        raise DescriptorError(
            f"{namespace} namespace not prefix-free: "
            f"{str(a)!r} is a prefix of {str(b)!r}"
        )


def kraft_sum(programs: Iterable[BitString]) -> Fraction:
    """Exact sum of 2**-|p| over the given programs."""
    lengths = [len(p) for p in programs]
    top = max(lengths, default=0)
    return Fraction(sum(1 << (top - l) for l in lengths), 1 << top)


class Codebook:
    """Prefix-free programs naming models that share one length ``n``.

    The program side is audited exactly like a description-system
    namespace: programs are prefix-free and their Kraft sum is at most 1,
    so the length of the shortest program naming a model is an honest
    complexity.  Subclasses set the model type and the words their error
    messages use, such as ``"a probability model"``, ``"support length"``
    and the namespace ``"pmf"``.
    """

    __slots__ = ("_n", "_programs")

    model_type: type
    model_noun: str
    length_noun: str
    namespace: str

    def __init__(self, programs):
        norm = {}
        for prog, model in dict(programs).items():
            b = BitString(prog) if isinstance(prog, str) else prog
            if not isinstance(b, BitString):
                raise StructLabError(f"malformed program {prog!r}")
            if not isinstance(model, self.model_type):
                raise StructLabError(f"program {b!r} does not map to {self.model_noun}")
            norm[b] = model
        if not norm:
            raise StructLabError("a codebook needs at least one program")
        lengths = {model.n for model in norm.values()}
        if len(lengths) != 1:
            raise StructLabError(
                f"codebook models must share one {self.length_noun}, got {sorted(lengths)}"
            )
        check_prefix_free(norm, self.namespace)
        total = kraft_sum(norm)
        if total > 1:
            raise StructLabError(
                f"{self.namespace} programs overfill the Kraft budget: {total}"
            )
        self._n = lengths.pop()
        self._programs = dict(sorted(norm.items(), key=lambda kv: kv[0].sort_key()))

    @property
    def n(self) -> int:
        return self._n

    @property
    def programs(self) -> dict:
        """Program -> model, in (length, value) order of the programs."""
        return dict(self._programs)

    def max_program_length(self) -> int:
        return max(len(p) for p in self._programs)

    def complexity(self, model) -> "int | float":
        """Length of the shortest program naming an equal model."""
        lengths = [len(p) for p, m in self._programs.items() if m == model]
        return min(lengths) if lengths else math.inf

    def __len__(self) -> int:
        return len(self._programs)


# ---------------------------------------------------------------------------
# The description system
# ---------------------------------------------------------------------------


class DescriptionSystem:
    """Three exact prefix-free namespaces over a common universe."""

    def __init__(
        self,
        universe_n: int,
        data_programs: Mapping[BitString, BitString],
        set_programs: Mapping[BitString, FiniteSet],
        cond_shortcuts: "Mapping[FiniteSet, Mapping[BitString, BitString]] | None" = None,
    ):
        if not 1 <= universe_n <= MAX_UNIVERSE_BITS:
            raise DescriptorError(
                f"universe width must be in [1, {MAX_UNIVERSE_BITS}], got {universe_n}"
            )
        self.universe_n = universe_n
        self.data_programs: dict[BitString, BitString] = dict(data_programs)
        self.set_programs: dict[BitString, FiniteSet] = dict(set_programs)
        self.cond_shortcuts: dict[FiniteSet, dict[BitString, BitString]] = {
            s: dict(m) for s, m in (cond_shortcuts or {}).items()
        }
        self._validate()
        self._build_caches()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        n = self.universe_n
        size = 1 << n

        if not self.data_programs:
            raise DescriptorError("a system needs at least one data program")
        for p, out in self.data_programs.items():
            if len(out) != n:
                raise DescriptorError(
                    f"data program {str(p)!r} prints {str(out)!r}, not an {n}-bit string"
                )
        check_prefix_free(self.data_programs, "data")
        if kraft_sum(self.data_programs) > 1:
            raise DescriptorError("data namespace violates the Kraft inequality")

        covered = {out.value for out in self.data_programs.values()}
        if len(covered) != size:
            missing = next(v for v in range(size) if v not in covered)
            raise DescriptorError(
                "data namespace leaves universe elements undescribed, e.g. "
                + str(BitString.from_value(n, missing))
            )

        for p, s in self.set_programs.items():
            if s.n != n:
                raise DescriptorError(f"set program {str(p)!r} prints a set of wrong width")
            if s.cardinality == 0:
                raise DescriptorError(f"set program {str(p)!r} prints the empty set")
        check_prefix_free(self.set_programs, "set")
        if kraft_sum(self.set_programs) > 1:
            raise DescriptorError("set namespace violates the Kraft inequality")

        representable = set(self.set_programs.values())
        for s, table in self.cond_shortcuts.items():
            if s not in representable:
                raise DescriptorError(
                    "conditional shortcuts refer to a set no program prints"
                )
            for q, out in table.items():
                if len(out) != n:
                    raise DescriptorError(
                        f"conditional shortcut {str(q)!r} prints a non-universe string"
                    )
            check_prefix_free(table, "conditional")
            if kraft_sum(table) > 1:
                raise DescriptorError(
                    "a conditional namespace violates the Kraft inequality"
                )

    # -- caches ----------------------------------------------------------

    def _build_caches(self) -> None:
        n = self.universe_n
        size = 1 << n

        k_data: list[int] = [0] * size
        witness_data: list[BitString] = [None] * size  # type: ignore[list-item]
        for p in sorted(self.data_programs, key=BitString.sort_key):
            v = self.data_programs[p].value
            if witness_data[v] is None:
                k_data[v] = len(p)
                witness_data[v] = p
        self._k_data = k_data
        self._witness_data = witness_data

        set_index: dict[FiniteSet, tuple[int, BitString]] = {}
        for p in sorted(self.set_programs, key=BitString.sort_key):
            s = self.set_programs[p]
            if s not in set_index:
                set_index[s] = (len(p), p)
        self._set_index = set_index
        self._set_entries: tuple[ModelRecord, ...] = tuple(
            sorted(
                (ModelRecord(s, k, w) for s, (k, w) in set_index.items()),
                key=ModelRecord.sort_key,
            )
        )

        shortcut_min: dict[FiniteSet, dict[int, int]] = {}
        for s, table in self.cond_shortcuts.items():
            best: dict[int, int] = {}
            for q in sorted(table, key=BitString.sort_key):
                v = table[q].value
                if v not in best:
                    best[v] = len(q)
            shortcut_min[s] = best
        self._shortcut_min = shortcut_min

        self._containing_cache: dict[int, tuple[ModelRecord, ...]] = {}
        self._c_sub: "int | None" = None

    # -- complexities ------------------------------------------------------

    def universe_size(self) -> int:
        return 1 << self.universe_n

    def universe_values(self) -> range:
        return range(1 << self.universe_n)

    def universe_strings(self) -> Iterator[BitString]:
        n = self.universe_n
        for v in self.universe_values():
            yield BitString.from_value(n, v)

    def _value(self, x: "int | str | BitString") -> int:
        return FiniteSet._coerce(self.universe_n, x)

    def K_data(self, x: "int | str | BitString") -> int:
        """K(x): length of the shortest data program printing x (total)."""
        return self._k_data[self._value(x)]

    def data_witness(self, x: "int | str | BitString") -> BitString:
        return self._witness_data[self._value(x)]

    def K_set(self, s: FiniteSet) -> "int | float":
        """K(S): shortest program printing exactly S; inf when none does."""
        entry = self._set_index.get(s)
        return entry[0] if entry is not None else math.inf

    def set_witness(self, s: FiniteSet) -> "BitString | None":
        entry = self._set_index.get(s)
        return entry[1] if entry is not None else None

    def is_representable(self, s: FiniteSet) -> bool:
        return s in self._set_index

    def K_cond(self, x: "int | str | BitString", s: FiniteSet) -> "int | float":
        """K(x|S): min of the index code (members only) and any shortcut."""
        v = self._value(x)
        best: "int | float" = math.inf
        if v in s:
            best = s.ceil_log_card
        table = self._shortcut_min.get(s)
        if table is not None:
            q = table.get(v)
            if q is not None and q < best:
                best = q
        return best

    # -- canonical set entries ---------------------------------------------

    def set_entries(self) -> tuple[ModelRecord, ...]:
        """All distinct representable sets with minimal witnesses, sorted."""
        return self._set_entries

    def entries_containing(self, x: "int | str | BitString") -> tuple[ModelRecord, ...]:
        """Distinct representable sets containing x, each with K(x|S) filled in."""
        v = self._value(x)
        cached = self._containing_cache.get(v)
        if cached is None:
            cached = tuple(
                ModelRecord(e.set, e.K_S, e.witness_program, int(self.K_cond(v, e.set)))
                for e in self._set_entries
                if v in e.set
            )
            self._containing_cache[v] = cached
        return cached

    def max_set_program_length(self) -> int:
        # The entries are sorted by K(S) first.
        return self._set_entries[-1].K_S if self._set_entries else 0

    # -- audits --------------------------------------------------------

    def kraft_sums(self) -> dict[str, "Fraction | dict[str, Fraction]"]:
        cond = {
            str(self.set_witness(s) or "?"): kraft_sum(table)
            for s, table in sorted(
                self.cond_shortcuts.items(),
                key=lambda kv: (self.K_set(kv[0]), kv[0].values),
            )
        }
        return {
            "data": kraft_sum(self.data_programs),
            "set": kraft_sum(self.set_programs),
            "cond": cond,
        }

    def _member_conds(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(rank, v, K(x|S))`` for every representable pair.

        Set-major: one pass over ``set_entries()`` (``rank`` indexes it) and
        each set's members in value order, O(sum of |S|).  Each set's
        shortcut table is read once per entry, keeping only the shortcuts
        that beat the index code.
        """
        for rank, entry in enumerate(self._set_entries):
            s = entry.set
            index_code = s.ceil_log_card
            cheaper = {
                v: q
                for v, q in self._shortcut_min.get(s, {}).items()
                if q < index_code
            }
            for v in s.values:
                yield rank, v, cheaper.get(v, index_code)

    def _chain_rule_defects(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(rank, v, K(x) - K(S) - K(x|S))`` for every representable pair,
        in the order of :meth:`_member_conds`."""
        k_data, entries = self._k_data, self._set_entries
        for rank, v, k_cond in self._member_conds():
            yield rank, v, k_data[v] - entries[rank].K_S - k_cond

    def cache_all_containing(self) -> None:
        """Fill the :meth:`entries_containing` cache for every string at once.

        One set-major pass over the (set, member) pairs, O(2^n + sum of |S|),
        where answering each string on its own scans every set entry.  The
        records, their order and their K(x|S) are those the scan gives; a
        string in no set gets ``()``.  Members sharing one K(x|S) share one
        record.  A second call does nothing.
        """
        size = 1 << self.universe_n
        if len(self._containing_cache) == size:
            return
        found: list[list[ModelRecord]] = [[] for _ in range(size)]
        shared: dict[tuple[int, int], ModelRecord] = {}
        for rank, v, k_cond in self._member_conds():
            rec = shared.get((rank, k_cond))
            if rec is None:
                e = self._set_entries[rank]
                rec = ModelRecord(e.set, e.K_S, e.witness_program, k_cond)
                shared[rank, k_cond] = rec
            found[v].append(rec)
        self._containing_cache = dict(enumerate(map(tuple, found)))

    @property
    def c_sub(self) -> int:
        """max over representable S and x in S of K(x) - K(S) - K(x|S).

        The exact constant by which two-part descriptions in this system may
        undershoot plain data complexity; 0 for a system with no sets.
        """
        if self._c_sub is None:
            self._c_sub = max(
                (defect for _, _, defect in self._chain_rule_defects()), default=0
            )
        return self._c_sub

    # -- serialization ---------------------------------------------------

    def to_descriptor_text(self) -> str:
        """Serialize as an explicit descriptor (families already expanded)."""
        lines = [f"# universe width {self.universe_n}"]
        for p in sorted(self.data_programs, key=BitString.sort_key):
            lines.append(f"data\t{show_bits(p)}\t{self.data_programs[p]}")
        for p in sorted(self.set_programs, key=BitString.sort_key):
            members = ",".join(str(b) for b in self.set_programs[p].bitstrings())
            lines.append(f"set\t{show_bits(p)}\t{members}")
        for s, table in sorted(
            self.cond_shortcuts.items(), key=lambda kv: (self.K_set(kv[0]), kv[0].values)
        ):
            anchor = self.set_witness(s)
            if anchor is None:  # pragma: no cover - ruled out by validation
                raise DescriptorError("cannot serialize shortcuts of an unprintable set")
            for q in sorted(table, key=BitString.sort_key):
                lines.append(f"cond\t{show_bits(q)}\t{table[q]}@{show_bits(anchor)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------


def enumerate_models(
    sys: DescriptionSystem,
    alpha: int,
    x: "int | str | BitString | None" = None,
) -> tuple[ModelRecord, ...]:
    """All distinct representable sets with K(S) <= alpha, optionally x in S.

    Records come back sorted by (K(S), |S|, witness program); when ``x`` is
    given each record carries K(x|S) for that x.
    """
    if x is None:
        pool: Iterable[ModelRecord] = sys.set_entries()
    else:
        pool = sys.entries_containing(x)
    return tuple(e for e in pool if e.K_S <= alpha)


# ---------------------------------------------------------------------------
# Enumeration streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EnumerationEvent:
    """One program surfacing during an enumeration of the system."""

    time: int
    kind: str  # "data" | "set"
    program: BitString
    output: "BitString | FiniteSet"


class EnumerationStream:
    """A complete enumeration of one system's programs, checked when built.

    The order names every data and set program of ``system`` exactly once,
    as ``(kind, program)`` pairs.  Each event reads its output from the
    system and takes its time from its position, so every stream that
    exists is a valid enumeration of the system object it was built for.
    """

    __slots__ = ("system", "events")

    def __init__(self, system: DescriptionSystem, order: Iterable[tuple[str, BitString]]):
        order = list(order)
        expected = len(system.data_programs) + len(system.set_programs)
        if len(order) != expected:
            raise StructLabError(
                f"stream has {len(order)} events, system has {expected} programs"
            )
        # per kind: the system's programs and the ones the order has named
        tables = {"data": (system.data_programs, set()), "set": (system.set_programs, set())}
        events = []
        for t, (kind, p) in enumerate(order):
            if kind not in tables:
                raise StructLabError(f"unknown stream event kind {kind!r}")
            programs, seen = tables[kind]
            output = programs.get(p)
            if output is None:
                raise StructLabError(f"stream names a {kind} program {str(p)!r} the system lacks")
            if p in seen:
                raise StructLabError("stream repeats a program")
            seen.add(p)
            events.append(EnumerationEvent(t, kind, p, output))
        self.system = system
        self.events = tuple(events)


def enumeration_stream(sys: DescriptionSystem, seed: int) -> EnumerationStream:
    """A seed-keyed total enumeration of all data and set programs.

    Every (kind, program) pair appears exactly once; times are 0,1,2,....
    The order is a pure function of the system and the seed.
    """
    canonical: list[tuple[str, BitString]] = [
        ("data", p) for p in sorted(sys.data_programs, key=BitString.sort_key)
    ] + [("set", p) for p in sorted(sys.set_programs, key=BitString.sort_key)]
    random.Random(seed).shuffle(canonical)
    return EnumerationStream(sys, canonical)


# ---------------------------------------------------------------------------
# Recoding
# ---------------------------------------------------------------------------


def apply_permutation(
    sys: DescriptionSystem, mapping: "Mapping[int, int] | Callable[[int], int]"
) -> DescriptionSystem:
    """Transport the system along a bijection of the universe.

    Programs are untouched; every printed string/set is replaced by its
    image.  All description lengths are invariant by construction, so
    profiles of ``pi(x)`` in the image system match profiles of ``x``.
    """
    n = sys.universe_n
    size = 1 << n
    if callable(mapping):
        table = [mapping(v) for v in range(size)]
    else:
        table = [mapping[v] for v in range(size)]
    if sorted(table) != list(range(size)):
        raise DescriptorError("recoding map is not a bijection of the universe")

    def map_string(b: BitString) -> BitString:
        return BitString.from_value(n, table[b.value])

    def map_set(s: FiniteSet) -> FiniteSet:
        return FiniteSet(n, (table[v] for v in s.values))

    return DescriptionSystem(
        n,
        {p: map_string(out) for p, out in sys.data_programs.items()},
        {p: map_set(s) for p, s in sys.set_programs.items()},
        {
            map_set(s): {q: map_string(out) for q, out in tbl.items()}
            for s, tbl in sys.cond_shortcuts.items()
        },
    )


# ---------------------------------------------------------------------------
# Descriptor parsing and model families
# ---------------------------------------------------------------------------

_FAMILY_RE = re.compile(r"@family:([a-z_]+)\((.*)\)\Z")


def _parse_family_args(text: str) -> dict[str, int]:
    args: dict[str, int] = {}
    if not text.strip():
        return args
    for part in text.split(","):
        if "=" not in part:
            raise DescriptorError(f"bad family argument {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key in args:
            raise DescriptorError(f"family argument {key!r} is given twice")
        try:
            args[key] = int(val)
        except ValueError as exc:
            raise DescriptorError(f"family argument {key!r} must be an integer") from exc
    return args


def _require_args(name: str, args: dict[str, int], *wanted: str) -> list[int]:
    missing = [w for w in wanted if w not in args]
    extra = [k for k in args if k not in wanted]
    if missing or extra:
        raise DescriptorError(
            f"family {name!r} takes arguments {wanted}, got {sorted(args)}"
        )
    n = args.get("n")
    if n is not None and not 1 <= n <= MAX_UNIVERSE_BITS:
        raise DescriptorError(
            f"family {name!r} width n must be in [1, {MAX_UNIVERSE_BITS}], got {n}"
        )
    return [args[w] for w in wanted]


def _weight_slices(n: int) -> list[list[int]]:
    """The values of ``[0, 2^n)`` grouped by weight, each group ascending."""
    slices: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(1 << n):
        slices[v.bit_count()].append(v)
    return slices


def expand_family(
    kind: str, tag: BitString, name: str, args: dict[str, int]
) -> list[tuple[str, BitString, "BitString | FiniteSet"]]:
    """Expand one ``@family:`` descriptor entry into concrete entries.

    Set families (``kind == "set"``):

    * ``cube(n)``        -- the tag alone prints the full universe;
    * ``singletons(n)``  -- tag + the literal n-bit string prints {x};
    * ``cylinders(n)``   -- tag + encode_sd(p) prints all extensions of p,
      for every prefix p with 0 <= |p| <= n;
    * ``hamming(n)``     -- tag + encode_sd(string_of_integer(k)) prints the
      weight-k slice, k = 0..n;
    * ``patches(n, m)``  -- with m dividing n, tag + the concatenation of
      encode_sd(string_of_integer(k_i)) over the n/m patches prints the
      strings whose i-th m-bit patch has weight k_i.

    Data families (``kind == "data"``):

    * ``literal(n)``     -- tag + x prints x;
    * ``bernoulli(n)``   -- tag + encode_sd(string_of_integer(k)) + a fixed
      ceil(log2 C(n,k))-bit rank prints the rank-th string of weight k; a
      two-part code that makes simple strings cheap.

    Parameter codes that follow a variable-length family parameter are
    self-delimiting; fixed-width fields (singleton literals, bernoulli
    ranks) are self-delimiting in context because their width is determined
    by what was already parsed.  Expansion is linear in what it writes.
    """
    entries: list[tuple[str, BitString, BitString | FiniteSet]] = []
    # Every value below is built in range and every member list ascending,
    # so the strings and sets skip the checks outside callers get.
    bits, members_of = BitString._trusted, FiniteSet._trusted
    if kind == "set":
        if name == "cube":
            (n,) = _require_args(name, args, "n")
            entries.append(("set", tag, members_of(n, range(1 << n))))
        elif name == "singletons":
            (n,) = _require_args(name, args, "n")
            for v in range(1 << n):
                entries.append(("set", tag + bits(n, v), members_of(n, (v,))))
        elif name == "cylinders":
            (n,) = _require_args(name, args, "n")
            for l in range(n + 1):
                for v in range(1 << l):
                    members = range(v << (n - l), (v + 1) << (n - l))
                    code = encode_sd(bits(l, v))
                    entries.append(("set", tag + code, members_of(n, members)))
        elif name == "hamming":
            (n,) = _require_args(name, args, "n")
            for k, members in enumerate(_weight_slices(n)):
                entries.append(
                    ("set", tag + encode_sd(string_of_integer(k)), members_of(n, members))
                )
        elif name == "patches":
            n, m = _require_args(name, args, "n", "m")
            if m < 1 or n % m != 0:
                raise DescriptorError("patches family needs m >= 1 dividing n")
            slices = _weight_slices(m)
            for vector in iter_product(range(m + 1), repeat=n // m):
                program, members = tag, [0]
                # most significant patch outermost, so members come out sorted
                for k in vector:
                    program = program + encode_sd(string_of_integer(k))
                    members = [(u << m) | w for u in members for w in slices[k]]
                entries.append(("set", program, members_of(n, members)))
        else:
            raise DescriptorError(f"unknown set family {name!r}")
    elif kind == "data":
        if name == "literal":
            (n,) = _require_args(name, args, "n")
            for v in range(1 << n):
                b = bits(n, v)
                entries.append(("data", tag + b, b))
        elif name == "bernoulli":
            (n,) = _require_args(name, args, "n")
            for k, slice_vals in enumerate(_weight_slices(n)):
                width = (len(slice_vals) - 1).bit_length()
                head = tag + encode_sd(string_of_integer(k))
                for rank, v in enumerate(slice_vals):
                    entries.append(("data", head + bits(width, rank), bits(n, v)))
        else:
            raise DescriptorError(f"unknown data family {name!r}")
    else:
        raise DescriptorError(f"families are not supported for kind {kind!r}")
    return entries


def build_system(text: str) -> DescriptionSystem:
    """Parse a descriptor from text.

    Grammar: one ``kind program payload`` entry per line, in the lexical
    form of every structlab input (see :func:`~structlab.codec.text_lines`:
    ``#`` comments, blank lines skipped); ``.`` denotes the empty program.
    Payload syntax per kind:

    * ``data``: an n-bit string, or ``@family:...``;
    * ``set``: comma-separated n-bit strings, or ``@family:...``;
    * ``cond``: ``X@P`` where X is the printed n-bit string and P is the
      set program whose printed set the shortcut is conditioned on.

    The universe width is inferred from the payloads and family arguments
    and must be consistent: a width that disagrees with the first one is
    refused on its own line, before its family is expanded.  See
    :func:`expand_family` for the family grammars.  Refusals of one entry
    name its line.
    """
    tables: dict[str, dict] = {"data": {}, "set": {}}
    conds: list[tuple[str, BitString, BitString, BitString]] = []
    first: "tuple[int, str] | None" = None  # the first width, and its line

    def width(n: int, where: str) -> None:
        nonlocal first
        if first is None:
            first = (n, where)
        elif n != first[0]:
            raise DescriptorError(
                f"{where}: inconsistent universe widths: width {n} disagrees "
                f"with width {first[0]} from {first[1]}"
            )

    for where, (kind, token, payload) in text_lines(
        text, "kind program payload", DescriptorError
    ):
        if kind not in ("data", "set", "cond"):
            raise DescriptorError(f"{where}: unknown kind {kind!r}")
        program = read_bits(token, "program", where, DescriptorError)
        fam = _FAMILY_RE.match(payload)
        if fam:
            try:
                args = _parse_family_args(fam.group(2))
            except DescriptorError as exc:
                raise DescriptorError(f"{where}: {exc}") from None
            if "n" in args:
                width(args["n"], where)
            try:
                entries = expand_family(kind, program, fam.group(1), args)
            except DescriptorError as exc:
                raise DescriptorError(f"{where}: {exc}") from None
        elif kind == "data":
            out = read_bits(payload, "data output", where, DescriptorError)
            width(len(out), where)
            entries = [(kind, program, out)]
        elif kind == "set":
            members = FiniteSet.read(payload, where, error=DescriptorError)
            width(members.n, where)
            entries = [(kind, program, members)]
        else:
            xtok, at, anchor = payload.partition("@")
            if not at:
                raise DescriptorError(f"{where}: cond payload must look like X@SETPROGRAM")
            x = read_bits(xtok, "cond output", where, DescriptorError)
            anchor = read_bits(anchor, "set program", where, DescriptorError)
            width(len(x), where)
            conds.append((where, program, x, anchor))
            continue
        table = tables[kind]
        for _, prog, value in entries:
            if prog in table:
                raise DescriptorError(f"{where}: duplicate {kind} program {str(prog)!r}")
            table[prog] = value

    if first is None:
        raise DescriptorError("cannot infer the universe width: no sized payloads")
    n = first[0]
    set_programs = tables["set"]
    cond_shortcuts: dict[FiniteSet, dict[BitString, BitString]] = {}
    for where, program, x, anchor in conds:
        target = set_programs.get(anchor)
        if target is None:
            raise DescriptorError(
                f"{where}: cond entry references unknown set program {show_bits(anchor)!r}"
            )
        table = cond_shortcuts.setdefault(target, {})
        if program in table:
            raise DescriptorError(
                f"{where}: duplicate conditional program {str(program)!r} for one set"
            )
        table[program] = x

    return DescriptionSystem(n, tables["data"], set_programs, cond_shortcuts)


def load_system(path: "str | Path") -> DescriptionSystem:
    """Read and parse a descriptor file."""
    return build_system(read_text(path, DescriptorError))
