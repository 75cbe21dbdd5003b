"""The one encoder for every artifact structlab writes.

Curves, reports and manifests leave the library only as files, so every
rule for turning exact values into text lives here:

* the number rule: an infinite float is ``"inf"`` (``"-inf"`` below zero),
  an integral float is an int, and NaN is refused;
* the value rules: bit strings become their digits, finite sets the list of
  their members, fractions an int when integral and ``"p/q"`` otherwise,
  dict keys strings (sorted), tuples lists; an object with ``to_json_dict``
  is encoded through that dict and any other dataclass through its fields;
* the encoder: one walk from the value to its text, JSON indented by 2 with
  sorted keys, byte for byte what ``json.dumps(..., indent=2,
  sort_keys=True)`` prints for the same plain value.  A value that is an
  iterator rather than a list is encoded one item at a time, and each item
  is written before the next is drawn, so a whole-universe payload is never
  held at once;
* the writers: UTF-8 with ``\\n`` newlines, written to a sibling temporary
  file that is renamed over the target on success and deleted on failure.
  Identical inputs give byte-identical files, and a refused run never
  leaves a half-written one.

Every artifact, CLI run or gap archive, applies the number rule to every
float it holds, so a report type carries no value rule of its own: its
``to_json_dict`` only renames fields, adds computed ones, or spells a value
the encoder would spell otherwise.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .codec import BitString
from .descsys import FiniteSet
from .errors import StructLabError

__all__ = ["number", "encode", "write_text", "write_json"]


def number(v):
    """The number rule: ``"inf"`` for infinities, ints for integral floats.

    Anything that is not a float passes through unchanged.
    """
    if isinstance(v, float):
        if math.isnan(v):
            raise StructLabError("NaN has no exact artifact form")
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if v.is_integer():
            return int(v)
    return v


# ---------------------------------------------------------------------------
# The walk.  Each encoder appends the text of ``value`` to ``out``; ``newline``
# is the line break and indentation of the value's own depth.
# ---------------------------------------------------------------------------


class _Sink(list):
    """Text chunks of one artifact; :meth:`drain` hands them to the file."""

    __slots__ = ("file",)

    def __init__(self, file=None):
        super().__init__()
        self.file = file

    def drain(self) -> None:
        if self.file is not None:
            self.file.write("".join(self))
            self.clear()


def _null(value, out, newline):
    out.append("null")


def _bool(value, out, newline):
    out.append("true" if value else "false")


def _int(value, out, newline):
    out.append(int.__repr__(value))


def _str(value, out, newline):
    out.append(_quote(value))


def _float_text(value) -> str:
    """The text of :func:`number` applied to ``value``."""
    if value.is_integer():
        return int.__repr__(int(value))
    return float.__repr__(value) if math.isfinite(value) else _quote(number(value))


def _float(value, out, newline):
    out.append(_float_text(value))


def _fraction(value, out, newline):
    if value.denominator == 1:
        out.append(int.__repr__(value.numerator))
    else:
        out.append(_quote(f"{value.numerator}/{value.denominator}"))


def _bitstring(value, out, newline):
    out.append(_quote(str(value)))


def _finite_set(value, out, newline):
    _array([str(b) for b in value.bitstrings()], out, newline)


def _dict(value, out, newline):
    items = {str(k): v for k, v in value.items()}
    if len(items) < len(value):
        # Keys equal after str keep the last value, as a dict built from
        # them would; the values dropped are still checked.
        for k, v in value.items():
            if items[str(k)] is not v:
                _ENCODERS.get(type(v), _other)(v, _Sink(), newline)
    if not items:
        out.append("{}")
        return
    inner = newline + "  "
    sep = "{" + inner
    for key in sorted(items):
        v = items[key]
        out.append(f"{sep}{_quote(key)}: ")
        _ENCODERS.get(type(v), _other)(v, out, inner)
        sep = "," + inner
    out.append(newline + "}")


def _array(value, out, newline):
    streamed = not isinstance(value, (list, tuple))
    inner = newline + "  "
    sep = "[" + inner
    last = text = None  # the last float item and its text
    for v in value:
        out.append(sep)
        if type(v) is float:
            # A curve repeats one float object along each step of its staircase.
            if v is not last:
                last, text = v, _float_text(v)
            out.append(text)
        else:
            _ENCODERS.get(type(v), _other)(v, out, inner)
        if streamed:
            out.drain()
        sep = "," + inner
    out.append("[]" if sep[0] == "[" else newline + "]")


#: Encoders by exact type; any other type goes through :func:`_other`.
_ENCODERS = {
    type(None): _null,
    bool: _bool,
    int: _int,
    str: _str,
    float: _float,
    Fraction: _fraction,
    BitString: _bitstring,
    FiniteSet: _finite_set,
    dict: _dict,
    list: _array,
    tuple: _array,
}

#: Base types a subclass is encoded as, in the order they are tried.
_BASES = (int, str, float, Fraction, BitString, FiniteSet, dict, list, tuple)


def _other(value, out, newline):
    for base in _BASES:
        if isinstance(value, base):
            return _ENCODERS[base](value, out, newline)
    if hasattr(value, "to_json_dict"):
        value = value.to_json_dict()
    elif is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    elif isinstance(value, Iterator):
        return _array(value, out, newline)
    else:
        raise TypeError(f"no artifact form for {type(value).__name__}")
    _ENCODERS.get(type(value), _other)(value, out, newline)


def encode(value) -> str:
    """The artifact text of ``value``, without a final newline.

    NaN raises ``StructLabError``; a value with no artifact form ``TypeError``.
    """
    out = _Sink()
    _ENCODERS.get(type(value), _other)(value, out, "\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


@contextmanager
def _replacing(path: "str | Path"):
    """A text file that becomes ``path`` only once the block succeeds."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: "str | Path", text: "str | Iterable[str]") -> None:
    """Write ``text``, or each of its chunks in turn, as UTF-8 with ``\\n`` newlines."""
    with _replacing(path) as f:
        if isinstance(text, str):
            f.write(text)
        else:
            f.writelines(text)


def write_json(path: "str | Path", value) -> None:
    """Write the :func:`encode` text of ``value`` and a final newline."""
    with _replacing(path) as f:
        out = _Sink(f)
        _ENCODERS.get(type(value), _other)(value, out, "\n")
        out.append("\n")
        out.drain()
