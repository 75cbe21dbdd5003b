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

Each namespace must be prefix-free, and that is its whole audit: by Kraft's
inequality a prefix-free binary code has a Kraft sum of at most 1.  The sums
are kept as exact ``fractions.Fraction`` values for audits.  The system also
carries its *subadditivity constant*::

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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice, product as iter_product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .codec import (
    BitString,
    encode_sd,
    read_bits,
    read_text,
    show_bits,
    string_of_integer,
    text_lines,
)
from .errors import CodecError, DescriptorError, FixtureError, StructLabError
from .rational import ceil_log2, log2_display

__all__ = [
    "FiniteSet",
    "ModelRecord",
    "DescriptionSystem",
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
    strings.  They are kept once: a ``range`` when contiguous (the cube,
    each cylinder and singleton), an ascending tuple otherwise, so equal
    sets have equal stores however they were built.  The empty set is
    representable as a value (it shows up as a flagged terminal state in
    synthesis) but description systems refuse to *print* it.
    """

    __slots__ = ("_n", "_values", "_hash")

    def __init__(self, n: int, values: Iterable["int | str | BitString"]):
        if not 1 <= n <= MAX_UNIVERSE_BITS:
            raise DescriptorError(f"universe width must be in [1, {MAX_UNIVERSE_BITS}], got {n}")
        vals = sorted({v if type(v) is int else self._coerce(n, v) for v in values})
        for end in vals[:1] + vals[-1:]:  # the ends bound every int member
            self._coerce(n, end)
        self._store(n, vals)

    @classmethod
    def _trusted(cls, n: int, values: Sequence[int]) -> "FiniteSet":
        """A set from values already ascending, distinct and inside ``[0, 2^n)``;
        a contiguous run may come as a nonempty ``range`` of step 1."""
        self = cls.__new__(cls)
        self._store(n, values)
        return self

    def _store(self, n: int, values: Sequence[int]) -> None:
        # Ascending distinct values are contiguous iff their ends are len - 1
        # apart.  A tuple may hold 2^n members, so its hash is taken once.
        if type(values) is range:
            self._values: Sequence[int] = values
        elif values and values[-1] - values[0] == len(values) - 1:
            self._values = range(values[0], values[-1] + 1)
        else:
            self._values = tuple(values)
        self._n, self._hash = n, hash((n, self._values))

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
    def values(self) -> Sequence[int]:
        """The members in ascending order: a ``range`` or a tuple."""
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

    def show(self) -> str:
        """The comma-separated member list that :meth:`read` reads back."""
        return ",".join(str(b) for b in self.bitstrings())

    def __contains__(self, x: object) -> bool:
        if type(x) is not int:
            try:
                x = self._coerce(self._n, x)
            except (CodecError, DescriptorError):  # a wrong width, type or character
                return False
        vals = self._values
        if type(vals) is range:
            return x in vals
        i = bisect_left(vals, x)
        return i < len(vals) and vals[i] == x

    def __iter__(self) -> Iterator[BitString]:
        return iter(self.bitstrings())

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSet):
            return False
        return self._n == other._n and self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = ",".join(str(BitString.from_value(self._n, v)) for v in self._values[:6])
        more = "" if len(self) <= 6 else f",...({len(self)} total)"
        return f"FiniteSet(n={self._n}, {{{shown}{more}}})"

    def subset_of(self, other: "FiniteSet") -> bool:
        mine, theirs = self._values, other._values
        if self._n == other._n and type(theirs) is range and mine:
            return theirs.start <= mine[0] and mine[-1] < theirs.stop
        return self._n == other._n and all(v in other for v in mine)


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


# ---------------------------------------------------------------------------
# Namespace helpers
# ---------------------------------------------------------------------------


def check_prefix_free(programs: Iterable[BitString], namespace: str) -> None:
    """Raise DescriptorError when one program is a proper prefix of another."""
    programs = list(programs)
    top = max([p._length for p in programs], default=0)
    # Lexicographic order of the bit texts: pad each value to the longest
    # length, and a prefix sorts before its extensions by its shorter length.
    # Both go in one int key, the length in its low ``w`` bits.  In that
    # order a key a is a prefix of (or equal to) the next key b iff their
    # leading |a| bits agree: a >> shift == b >> shift, shift = top - |a| + w.
    w = top.bit_length()
    low = (1 << w) - 1
    keys = sorted([p._value << (top - p._length + w) | p._length for p in programs])

    def text(key: int) -> str:
        length = key & low
        return str(BitString._trusted(length, key >> (top - length + w)))

    for a, b in zip(keys, keys[1:]):
        shift = top - (a & low) + w
        if a >> shift != b >> shift:
            continue
        if a == b:
            raise DescriptorError(f"duplicate program {text(a)!r} in {namespace} namespace")
        raise DescriptorError(
            f"{namespace} namespace not prefix-free: {text(a)!r} is a prefix of {text(b)!r}"
        )


def _in_program_order(items: Iterable[tuple]) -> list[tuple]:
    """The ``(program, output)`` items sorted by (length, value), through the
    one int key ``2^length | value``, so no program is hashed again."""
    return sorted(items, key=lambda item: 1 << item[0]._length | item[0]._value)


def kraft_sum(programs: Iterable[BitString]) -> Fraction:
    """Exact sum of 2**-|p| over the given programs."""
    lengths = [len(p) for p in programs]
    top = max(lengths, default=0)
    return Fraction(sum(1 << (top - l) for l in lengths), 1 << top)


class Codebook:
    """Prefix-free programs naming models that share one length ``n``.

    The program side is audited like a description-system namespace: its
    programs must be prefix-free, so their Kraft sum is at most 1 and the
    length of the shortest program naming a model is an honest complexity.
    Subclasses set the model type and the words their error messages use,
    such as ``"a probability model"``, ``"support length"`` and the
    namespace ``"pmf"``.
    """

    __slots__ = ("_n", "_programs")

    model_type: type
    model_noun: str
    length_noun: str
    namespace: str

    def __init__(self, programs):
        items = []
        for prog, model in dict(programs).items():
            b = BitString(prog) if isinstance(prog, str) else prog
            if not isinstance(b, BitString):
                raise StructLabError(f"malformed program {prog!r}")
            if not isinstance(model, self.model_type):
                raise StructLabError(f"program {b!r} does not map to {self.model_noun}")
            items.append((b, model))
        if not items:
            raise StructLabError("a codebook needs at least one program")
        lengths = {model.n for _, model in items}
        if len(lengths) != 1:
            raise StructLabError(
                f"codebook models must share one {self.length_noun}, got {sorted(lengths)}"
            )
        # A program given both as text and as a BitString is refused here.
        check_prefix_free([b for b, _ in items], self.namespace)
        self._n = lengths.pop()
        self._programs = dict(_in_program_order(items))

    @classmethod
    def _trusted(cls, n: int, items: Iterable[tuple]) -> "Codebook":
        """A codebook of ``(program, model)`` items from an audited namespace:
        prefix-free ``BitString`` programs naming models of length ``n``.
        Only a namespace with no programs is refused."""
        programs = dict(_in_program_order(items))
        if not programs:
            raise StructLabError("a codebook needs at least one program")
        self = cls.__new__(cls)
        self._n, self._programs = n, programs
        return self

    @property
    def n(self) -> int:
        return self._n

    @property
    def programs(self) -> dict:
        """Program -> model, in (length, value) order of the programs."""
        return dict(self._programs)

    def max_program_length(self) -> int:
        return len(next(reversed(self._programs)))

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
    """Three exact prefix-free namespaces over a common universe.

    Construction walks each namespace once, in program order, checking each
    output as it fills the namespace's table; then :func:`check_prefix_free`
    runs.  That is the whole audit, as no prefix-free code has a Kraft sum
    past 1; :meth:`kraft_sums` keeps the exact sums for audits.
    """

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
        self._read_data()
        self._read_sets()
        self._read_shortcuts()
        self._containing: "list[tuple[ModelRecord, ...]] | None" = None
        self._census: "tuple[dict[int, int], tuple | None, tuple | None] | None" = None

    # -- construction: one program-order walk per namespace --------------

    def _read_data(self) -> None:
        """Fill K(x) for every x; the universe must be covered."""
        n = self.universe_n
        size = 1 << n
        if not self.data_programs:
            raise DescriptorError("a system needs at least one data program")
        k_data: list[int] = [-1] * size  # -1 until x's first, shortest program
        self._k_data = k_data
        filled = 0
        for p, out in _in_program_order(self.data_programs.items()):
            if out._length != n:
                raise DescriptorError(
                    f"data program {str(p)!r} prints {str(out)!r}, not an {n}-bit string"
                )
            v = out._value
            if k_data[v] < 0:
                k_data[v] = p._length
                filled += 1
        check_prefix_free(self.data_programs, "data")
        if filled != size:
            missing = k_data.index(-1)
            raise DescriptorError(
                "data namespace leaves universe elements undescribed, e.g. "
                + str(BitString.from_value(n, missing))
            )
        self._max_program_length = p._length  # the walk ends on a longest program

    def _read_sets(self) -> None:
        """Index each distinct printed set's entry at its first, shortest
        program; the walk is in program order, so the index is too."""
        n = self.universe_n
        set_index: dict[FiniteSet, ModelRecord] = {}
        for p, s in _in_program_order(self.set_programs.items()):
            if s._n != n:
                raise DescriptorError(f"set program {str(p)!r} prints a set of wrong width")
            if not s._values:
                raise DescriptorError(f"set program {str(p)!r} prints the empty set")
            if s not in set_index:
                set_index[s] = ModelRecord(s, p._length, p)
        check_prefix_free(self.set_programs, "set")
        if set_index:
            self._max_program_length = max(self._max_program_length, p._length)
        self._set_index = set_index
        self._set_entries: tuple[ModelRecord, ...] = tuple(set_index.values())

    def _read_shortcuts(self) -> None:
        """Keep each conditional table's shortest shortcut per printed value."""
        n = self.universe_n
        shortcut_min: dict[FiniteSet, dict[int, int]] = {}
        for s, table in self.cond_shortcuts.items():
            if s not in self._set_index:
                raise DescriptorError("conditional shortcuts refer to a set no program prints")
            best: dict[int, int] = {}
            for q, out in _in_program_order(table.items()):
                if out._length != n:
                    raise DescriptorError(
                        f"conditional shortcut {str(q)!r} prints a non-universe string"
                    )
                best.setdefault(out._value, q._length)
            check_prefix_free(table, "conditional")
            shortcut_min[s] = best
        self._shortcut_min = shortcut_min

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

    def K_set(self, s: FiniteSet) -> "int | float":
        """K(S): shortest program printing exactly S, read off the set's
        entry; inf when no program prints S."""
        entry = self._set_index.get(s)
        return entry.K_S if entry is not None else math.inf

    def set_witness(self, s: FiniteSet) -> "BitString | None":
        entry = self._set_index.get(s)
        return entry.witness_program if entry is not None else None

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
        """All distinct representable sets with minimal witnesses, ranked by
        their shortest program: K(S), then the witness program."""
        return self._set_entries

    def entries_containing(self, x: "int | str | BitString") -> tuple[ModelRecord, ...]:
        """Distinct representable sets containing x, each with K(x|S) filled in.

        The row of the containing table once :meth:`cache_all_containing`
        has filled it; until then a scan of every set entry, kept nowhere.
        """
        v = self._value(x)
        if self._containing is not None:
            return self._containing[v]
        return tuple(
            ModelRecord(e.set, e.K_S, e.witness_program, int(self.K_cond(v, e.set)))
            for e in self._set_entries
            if v in e.set._values
        )

    def max_set_program_length(self) -> int:
        """The largest K(S) over the distinct sets, 0 with none.

        Each set counts at its shortest program, so this can be less than the
        longest set program when a set is also printed by a shorter one.
        """
        # The entries are ranked by K(S) first.
        return self._set_entries[-1].K_S if self._set_entries else 0

    def max_program_length(self) -> int:
        """The length of the longest data or set program."""
        return self._max_program_length

    @cached_property
    def program_table(self) -> tuple[tuple[str, BitString, "BitString | FiniteSet"], ...]:
        """Every data program, then every set program, each in program order,
        as ``(kind, program, output)`` entries that all streams share."""
        return tuple(
            (kind, p, out)
            for kind, programs in (("data", self.data_programs), ("set", self.set_programs))
            for p, out in _in_program_order(programs.items())
        )

    # -- audits --------------------------------------------------------

    def kraft_sums(self) -> dict[str, "Fraction | dict[str, Fraction]"]:
        return {
            "data": kraft_sum(self.data_programs),
            "set": kraft_sum(self.set_programs),
            "cond": {anchor: kraft_sum(table) for anchor, table in self._shortcut_tables()},
        }

    def _shortcut_tables(self) -> Iterator[tuple[str, dict[BitString, BitString]]]:
        """Each conditional table under its set's witness text, in witness program order."""
        for s in sorted(self.cond_shortcuts, key=self.set_witness):
            yield show_bits(self.set_witness(s)), self.cond_shortcuts[s]

    def _walk_pairs(self, found: "list | None") -> None:
        """Walk every representable (set, member) pair once, O(sum of |S|).

        Set-major: each entry of ``set_entries()`` in rank order, that is in
        program order, its members in value order.  K(x|S) is the index code
        unless the set's shortcut table holds a shorter program for x.  The
        walk always stores the :attr:`defect_census` that :attr:`c_sub` and
        the additivity report read.
        Ranks arrive in order, so an equal defect moves an extreme only to a
        smaller v.  Given ``found``, one list per universe value, it also
        appends each pair's containing record to its member's list; members
        sharing one K(x|S) share one record.
        """
        k_data = self._k_data
        histogram: dict[int, int] = {}
        high = low = None
        for rank, entry in enumerate(self._set_entries):
            s, k_set = entry.set, entry.K_S
            index_code = s.ceil_log_card
            cheaper = {
                v: q for v, q in self._shortcut_min.get(s, {}).items() if q < index_code
            }
            shared: dict[int, ModelRecord] = {}
            for v in s.values:
                k_cond = cheaper.get(v, index_code)
                defect = k_data[v] - k_set - k_cond
                histogram[defect] = histogram.get(defect, 0) + 1
                if high is None or defect > high[0] or (defect == high[0] and v < high[1]):
                    high = (defect, v, rank)
                if low is None or defect < low[0] or (defect == low[0] and v < low[1]):
                    low = (defect, v, rank)
                if found is not None:
                    rec = shared.get(k_cond)
                    if rec is None:
                        rec = shared[k_cond] = ModelRecord(s, k_set, entry.witness_program, k_cond)
                    found[v].append(rec)
        self._census = (histogram, high, low)

    def cache_all_containing(self) -> None:
        """Fill the containing table that :meth:`entries_containing` reads.

        One walk of the (set, member) pairs, O(2^n + sum of |S|), where
        answering each string on its own scans every set entry; the same walk
        takes the :attr:`c_sub` census.  The records, their order and their
        K(x|S) are those the scan gives; a string in no set gets ``()``.  A
        second call does nothing.
        """
        if self._containing is not None:
            return
        found: list = [[] for _ in range(1 << self.universe_n)]
        self._walk_pairs(found)
        for v, row in enumerate(found):
            found[v] = tuple(row)
        self._containing = found

    @property
    def defect_census(self) -> tuple[dict[int, int], "tuple | None", "tuple | None"]:
        """``(histogram, highest, lowest)`` of K(x) - K(S) - K(x|S) over every
        (set, member) pair, from the last pair walk (a walk that fills no
        table takes it if none has run).  The histogram counts the pairs at
        each defect; each extreme is the first pair in (x, rank) order at the
        greatest or least defect, as ``(defect, v, rank)`` with rank indexing
        :meth:`set_entries`, or None when there are no pairs.
        """
        if self._census is None:
            self._walk_pairs(None)
        return self._census

    @property
    def c_sub(self) -> int:
        """max over representable S and x in S of K(x) - K(S) - K(x|S).

        The exact constant by which two-part descriptions in this system may
        undershoot plain data complexity; 0 for a system with no sets.
        """
        high = self.defect_census[1]
        return 0 if high is None else high[0]

    # -- serialization ---------------------------------------------------

    def descriptor_lines(self) -> Iterator[str]:
        """The lines of :meth:`to_descriptor_text`, without their newlines,
        one at a time."""
        yield f"# universe width {self.universe_n}"
        for p, out in _in_program_order(self.data_programs.items()):
            yield f"data\t{show_bits(p)}\t{out}"
        for p, s in _in_program_order(self.set_programs.items()):
            yield f"set\t{show_bits(p)}\t{s.show()}"
        for anchor, table in self._shortcut_tables():
            for q, out in _in_program_order(table.items()):
                yield f"cond\t{show_bits(q)}\t{out}@{anchor}"

    def to_descriptor_text(self) -> str:
        """Serialize as an explicit descriptor (families already expanded)."""
        return "\n".join(self.descriptor_lines()) + "\n"


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------


def enumerate_models(
    sys: DescriptionSystem,
    alpha: int,
    x: "int | str | BitString | None" = None,
) -> tuple[ModelRecord, ...]:
    """All distinct representable sets with K(S) <= alpha, optionally x in S.

    Records come back in (K(S), witness program) order; when ``x`` is
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


class EnumerationStream:
    """A complete enumeration of one system's programs.

    ``events`` holds each ``(kind, program, output)`` entry of the system's
    :attr:`~DescriptionSystem.program_table` once; an event's time is its
    position.  An explicit order of ``(kind, program)`` pairs is checked
    here, so every stream is a valid enumeration of its system object.
    """

    __slots__ = ("system", "events")

    def __init__(self, system: DescriptionSystem, order: Iterable[tuple[str, BitString]]):
        order = list(order)
        table = system.program_table
        if len(order) != len(table):
            raise StructLabError(
                f"stream has {len(order)} events, system has {len(table)} programs"
            )
        # per kind: the entries the order has not named yet
        unnamed: dict = {"data": {}, "set": {}}
        for entry in table:
            unnamed[entry[0]][entry[1]] = entry
        events = []
        for kind, p in order:
            if kind not in unnamed:
                raise StructLabError(f"unknown stream event kind {kind!r}")
            entry = unnamed[kind].pop(p, None)
            if entry is None:
                programs = system.data_programs if kind == "data" else system.set_programs
                if p in programs:
                    raise StructLabError("stream repeats a program")
                raise StructLabError(f"stream names a {kind} program {str(p)!r} the system lacks")
            events.append(entry)
        self.system = system
        self.events = tuple(events)

    @classmethod
    def _trusted(cls, system: DescriptionSystem, events: list) -> "EnumerationStream":
        """A stream of a permutation of ``system.program_table``, unchecked."""
        self = cls.__new__(cls)
        self.system, self.events = system, tuple(events)
        return self


def enumeration_stream(sys: DescriptionSystem, seed: int) -> EnumerationStream:
    """A seed-keyed total enumeration of all data and set programs.

    The system's program table shuffled by ``random.Random(seed)``: a
    permutation of the table names each program once, so it needs no check.
    """
    events = list(sys.program_table)
    random.Random(seed).shuffle(events)
    return EnumerationStream._trusted(sys, events)


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
) -> list[tuple[BitString, "BitString | FiniteSet"]]:
    """Expand one ``@family:`` descriptor entry into ``(program, output)`` pairs.

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
    entries: list[tuple[BitString, BitString | FiniteSet]] = []
    # Every value below is built in range and every member list ascending,
    # so the strings and sets skip the checks outside callers get.  Each
    # program is written as one (length, value) pair: the tag's value
    # shifted past the fields that follow it, with no concatenation.
    bits, members_of = BitString._trusted, FiniteSet._trusted
    t_len, t_val = tag._length, tag._value
    if kind == "set":
        if name == "cube":
            (n,) = _require_args(name, args, "n")
            entries.append((tag, members_of(n, range(1 << n))))
        elif name == "singletons":
            (n,) = _require_args(name, args, "n")
            head = t_val << n
            for v in range(1 << n):
                entries.append((bits(t_len + n, head | v), members_of(n, range(v, v + 1))))
        elif name == "cylinders":
            (n,) = _require_args(name, args, "n")
            for l in range(n + 1):
                # tag, then encode_sd(p) = 1^l 0 p for each l-bit p
                head = (t_val << l | ((1 << l) - 1)) << (l + 1)
                width, rest = t_len + 2 * l + 1, n - l
                for v in range(1 << l):
                    entries.append(
                        (bits(width, head | v), members_of(n, range(v << rest, (v + 1) << rest)))
                    )
        elif name == "hamming":
            (n,) = _require_args(name, args, "n")
            for k, members in enumerate(_weight_slices(n)):
                entries.append((tag + encode_sd(string_of_integer(k)), members_of(n, members)))
        elif name == "patches":
            n, m = _require_args(name, args, "n", "m")
            if m < 1 or n % m != 0:
                raise DescriptorError("patches family needs m >= 1 dividing n")
            slices = _weight_slices(m)
            codes = [encode_sd(string_of_integer(k)) for k in range(m + 1)]
            for vector in iter_product(range(m + 1), repeat=n // m):
                length, value, members = t_len, t_val, [0]
                # most significant patch outermost, so members come out sorted
                for k in vector:
                    code = codes[k]
                    length, value = length + code._length, value << code._length | code._value
                    members = [(u << m) | w for u in members for w in slices[k]]
                entries.append((bits(length, value), members_of(n, members)))
        else:
            raise DescriptorError(f"unknown set family {name!r}")
    elif kind == "data":
        if name == "literal":
            (n,) = _require_args(name, args, "n")
            head = t_val << n
            for v in range(1 << n):
                entries.append((bits(t_len + n, head | v), bits(n, v)))
        elif name == "bernoulli":
            (n,) = _require_args(name, args, "n")
            for k, slice_vals in enumerate(_weight_slices(n)):
                width = (len(slice_vals) - 1).bit_length()
                code = tag + encode_sd(string_of_integer(k))
                head, length = code._value << width, code._length + width
                for rank, v in enumerate(slice_vals):
                    entries.append((bits(length, head | rank), bits(n, v)))
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
            entries = [(program, out)]
        elif kind == "set":
            members = FiniteSet.read(payload, where, error=DescriptorError)
            width(members.n, where)
            entries = [(program, members)]
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
        size = len(table)
        table.update(entries)  # one hash per program
        if len(table) - size < len(entries):
            # Some program repeats: name the first, in entry order, that an
            # earlier line or entry already gave.
            seen = set(islice(table, size))
            for prog, _ in entries:
                if prog in seen:
                    raise DescriptorError(f"{where}: duplicate {kind} program {str(prog)!r}")
                seen.add(prog)

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
