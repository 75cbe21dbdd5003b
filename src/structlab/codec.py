"""Bit-exact binary strings and the self-delimiting codes built on them.

Everything in this package measures description lengths in whole bits, so
the string type must make lengths and concatenation exact and cheap.  A
:class:`BitString` is an immutable (length, value) pair; the empty string is
a first-class citizen.

Strings are identified with natural numbers by the standard length-
lexicographic enumeration::

    0 <-> ''    1 <-> '0'   2 <-> '1'   3 <-> '00'   4 <-> '01'  ...

i.e. write ``m + 1`` in binary and drop the leading 1.  The string for ``m``
has exactly ``floor(log2(m + 1))`` bits, and comparison of bit strings by
``(length, value)`` coincides with comparison of their numbers.

Two prefix-free codes are layered on top:

``encode_sd(x) = 1^|x| 0 x``
    The naive self-delimiting code, length exactly ``2*|x| + 1``.

``encode_std(x) = encode_sd(string-of-integer(|x|)) + x``
    The standard code: the length of ``x`` is shipped as the *string*
    corresponding to the integer ``|x|``, itself wrapped with
    ``encode_sd``.  Total length is exactly
    ``|x| + 2*floor(log2(|x| + 1)) + 1``.

Pairs are encoded as ``pair(x, y) = encode_sd(x) + y``; the left component
is recovered by a single left-to-right parse and the right component is
whatever remains.

All decoders reject malformed input with :class:`~structlab.errors.CodecError`
instead of guessing.

Every text input (descriptors, streams, records and fixtures) is read
from disk by :func:`read_text`, which refuses bytes that are not UTF-8,
then through one lexer, :func:`text_lines`, and its fields through one reader
per token kind: :func:`read_bits` (with :func:`show_bits` its inverse),
:func:`read_int` and :func:`read_rational`.  Their refusals all read
``line N: ...``.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .errors import CodecError, FixtureError
from .rational import read_fraction

__all__ = [
    "BitString",
    "EMPTY",
    "string_of_integer",
    "integer_of_string",
    "encode_sd",
    "decode_sd",
    "sd_code_length",
    "encode_std",
    "decode_std",
    "std_code_length",
    "encode_pair",
    "decode_pair",
    "read_text",
    "text_lines",
    "read_bits",
    "show_bits",
    "read_int",
    "read_rational",
]


class BitString:
    """An immutable binary string stored as a (length, value) pair.

    The bits are MSB-first: bit 0 of ``BitString('100')`` is 1.  Ordering
    compares ``(length, value)``, which is exactly the order of the
    length-lexicographic enumeration of all strings.
    """

    __slots__ = ("_length", "_value")

    def __init__(self, bits: "str | BitString" = ""):
        if isinstance(bits, BitString):
            self._length = bits._length
            self._value = bits._value
            return
        if not isinstance(bits, str):
            raise CodecError(f"BitString expects a str of 0/1, got {type(bits).__name__}")
        if bits and bits.strip("01"):
            raise CodecError(f"invalid bit characters in {bits!r}")
        self._length = len(bits)
        self._value = int(bits, 2) if bits else 0

    # -- constructors -------------------------------------------------

    @classmethod
    def from_value(cls, length: int, value: int) -> "BitString":
        """The length-``length`` string whose bits spell ``value`` in binary."""
        if length < 0:
            raise CodecError("negative length")
        if not 0 <= value < (1 << length):
            raise CodecError(f"value {value} does not fit in {length} bits")
        return cls._trusted(length, value)

    @classmethod
    def _trusted(cls, length: int, value: int) -> "BitString":
        """:meth:`from_value` without its checks, for results that fit by construction."""
        self = cls.__new__(cls)
        self._length = length
        self._value = value
        return self

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls.from_value(length, 0)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls.from_value(length, (1 << length) - 1)

    # -- basic accessors ----------------------------------------------

    @property
    def value(self) -> int:
        """The bits read as a plain binary numeral (0 for the empty string)."""
        return self._value

    def __len__(self) -> int:
        return self._length

    def __str__(self) -> str:
        return format(self._value, f"0{self._length}b") if self._length else ""

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield (self._value >> (self._length - 1 - i)) & 1

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            start, stop, step = i.indices(self._length)
            if step != 1:
                raise CodecError("BitString slices must be contiguous")
            return self.substring(start, stop)
        if not -self._length <= i < self._length:
            raise IndexError(i)
        if i < 0:
            i += self._length
        return (self._value >> (self._length - 1 - i)) & 1

    def substring(self, start: int, stop: int) -> "BitString":
        if not 0 <= start <= stop <= self._length:
            raise CodecError(f"bad substring bounds [{start}:{stop}] of length {self._length}")
        width = stop - start
        chunk = (self._value >> (self._length - stop)) & ((1 << width) - 1)
        return BitString._trusted(width, chunk)

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString._trusted(
            self._length + other._length,
            (self._value << other._length) | other._value,
        )

    def startswith(self, prefix: "BitString") -> bool:
        if prefix._length > self._length:
            return False
        return (self._value >> (self._length - prefix._length)) == prefix._value

    # -- enumeration order --------------------------------------------

    def to_integer(self) -> int:
        """Position of this string in the length-lexicographic enumeration."""
        return (1 << self._length) - 1 + self._value

    def sort_key(self) -> tuple[int, int]:
        return (self._length, self._value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self._length == other._length
            and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __lt__(self, other: "BitString") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "BitString") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "BitString") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "BitString") -> bool:
        return self.sort_key() >= other.sort_key()


EMPTY = BitString("")


def string_of_integer(m: int) -> BitString:
    """The binary string at position ``m`` of the enumeration (0 -> '')."""
    if m < 0:
        raise CodecError("string_of_integer expects a nonnegative integer")
    length = (m + 1).bit_length() - 1
    return BitString._trusted(length, (m + 1) - (1 << length))


def integer_of_string(x: BitString) -> int:
    """Inverse of :func:`string_of_integer`."""
    return x.to_integer()


# ---------------------------------------------------------------------------
# Self-delimiting codes
# ---------------------------------------------------------------------------


def encode_sd(x: BitString) -> BitString:
    """Naive self-delimiting code ``1^|x| 0 x`` (length ``2|x| + 1``)."""
    n = len(x)
    value = (((1 << n) - 1) << (n + 1)) | x.value
    return BitString._trusted(2 * n + 1, value)


def sd_code_length(n: int) -> int:
    """Length of ``encode_sd`` applied to an ``n``-bit string."""
    return 2 * n + 1


def decode_sd(code: BitString) -> tuple[BitString, BitString]:
    """Parse one ``encode_sd`` block from the front; return (payload, rest)."""
    n = 0
    total = len(code)
    while n < total and code[n] == 1:
        n += 1
    if n == total:
        raise CodecError("encode_sd block missing its terminating 0")
    # code[n] == 0; payload is the next n bits
    start = n + 1
    if start + n > total:
        raise CodecError("encode_sd block truncated before full payload")
    payload = code.substring(start, start + n)
    rest = code.substring(start + n, total)
    return payload, rest


def encode_std(x: BitString) -> BitString:
    """Standard code: ``encode_sd(string_of_integer(|x|)) + x``."""
    return encode_sd(string_of_integer(len(x))) + x


def std_code_length(n: int) -> int:
    """Length of ``encode_std`` applied to an ``n``-bit string."""
    return n + 2 * ((n + 1).bit_length() - 1) + 1


def decode_std(code: BitString) -> tuple[BitString, BitString]:
    """Parse one ``encode_std`` block from the front; return (payload, rest)."""
    length_string, rest = decode_sd(code)
    n = integer_of_string(length_string)
    if n > len(rest):
        raise CodecError("encode_std block truncated before full payload")
    return rest.substring(0, n), rest.substring(n, len(rest))


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def encode_pair(x: BitString, y: BitString) -> BitString:
    """Pair code ``encode_sd(x) + y``; the left component parses first."""
    return encode_sd(x) + y


def decode_pair(z: BitString) -> tuple[BitString, BitString]:
    """Inverse of :func:`encode_pair`: the unique (x, y) with z = x-block + y."""
    return decode_sd(z)


# ---------------------------------------------------------------------------
# Text inputs
# ---------------------------------------------------------------------------


def read_text(path: "str | Path", error: type = FixtureError) -> str:
    """A text input file's contents; bytes that are not UTF-8 raise ``error``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 at byte {exc.start}") from None


def text_lines(
    text: str, shape: str, error: type = FixtureError, keyword: "str | None" = None
) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(where, fields)`` for each entry line of a text input.

    The one lexical rule of every structlab input: ``#`` starts a comment
    anywhere on a line, blank lines are skipped, and an entry line holds one
    whitespace-separated field per word of ``shape`` (such as ``"string
    probability"``), the first being ``keyword`` when one is given.
    ``where`` is ``"line N"``, counting every line from 1, for messages.
    """
    width = len(shape.split())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != width or (keyword is not None and fields[0] != keyword):
            raise error(f"line {lineno}: expected '{shape}' ({width} fields), got {line!r}")
        yield f"line {lineno}", fields


def read_bits(token: str, what: str, where: str, error: type = FixtureError) -> BitString:
    """A bit-string field; ``.`` stands for the empty string."""
    if token == ".":
        return EMPTY
    if token.strip("01"):
        raise error(f"{where}: malformed {what} {token!r}")
    return BitString(token)


def show_bits(b: BitString) -> str:
    """The field :func:`read_bits` reads back as ``b``."""
    return str(b) if len(b) else "."


def read_int(token: str, what: str, where: str) -> int:
    """An integer field."""
    try:
        return int(token)
    except ValueError:
        raise FixtureError(f"{where}: malformed {what} {token!r}") from None


def read_rational(token: str, what: str, where: str) -> Fraction:
    """A rational field such as ``1/3``, ``0.25`` or ``1``, read exactly."""
    try:
        return read_fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FixtureError(f"{where}: malformed {what} {token!r}") from None
