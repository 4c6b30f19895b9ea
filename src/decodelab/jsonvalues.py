"""What a JSON value is and how it is spelled: the model loader, the trace
reader and the config reader check their fields here, so each refusal is
worded alike, and the model and trace files are written here by :func:`dumps`.

A kind is the set of Python types that ``json.loads`` gives for it, matched
exactly, so a bool is never an integer or a number.  A number comes back as
a float; a JSON integer beyond the float range is refused.  Each reader
passes its own error class: model documents raise ``ModelFormatError``.
"""

import json
import math
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _spell_str

#: ``name`` as in "must be a JSON integer", ``plural`` as in "must be a JSON
#: list of integers", and ``types``, the Python types of the kind.
Kind = namedtuple("Kind", "name plural types")

INTEGER = Kind("integer", "integers", (int,))
NUMBER = Kind("number", "numbers", (int, float))
NUMBER_OR_NULL = Kind("number or null", "numbers or nulls", (int, float, type(None)))
BOOL = Kind("bool", "bools", (bool,))
STRING = Kind("string", "strings", (str,))
OBJECT = Kind("object", "objects", (dict,))


def _shown(x, kind: Kind) -> str:
    # What stands where an object belongs can be a whole table: name its type.
    return type(x).__name__ if kind is OBJECT else json.dumps(x)


def value(x, kind: Kind, name: str, error: type[ValueError] = ValueError):
    """``x``, a number as a float, if it is a JSON value of ``kind``; else
    ``error`` naming the field ``name`` and what it holds."""
    if type(x) not in kind.types:
        raise error(f"{name} must be a JSON {kind.name} (got {_shown(x, kind)})")
    if type(x) is not int or float not in kind.types:
        return x
    try:
        return float(x)
    except OverflowError:  # a JSON integer beyond the float range
        raise error(f"{name} is beyond the float range") from None


def values(x, kind: Kind, name: str, error: type[ValueError] = ValueError) -> list:
    """``x``, numbers as floats, if it is a JSON list of values of ``kind``;
    else ``error`` naming the field ``name`` and its first wrong entry."""
    if type(x) is not list:
        raise error(f"{name} must be a JSON list of {kind.plural} (got {json.dumps(x)})")
    for i, v in enumerate(x):
        if type(v) not in kind.types:
            raise error(f"{name} must be a JSON list of {kind.plural} (entry {i} is {_shown(v, kind)})")
    return [value(v, kind, name, error) for v in x] if float in kind.types else x


class _FloatSpellings(dict):
    """``float.__repr__`` of each float looked up, kept for the next lookup.

    A zero is never kept: ``0.0 == -0.0`` and they hash alike, so a kept
    zero would spell the other one too.
    """

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        if not math.isfinite(x):
            raise ValueError(f"JSON has no spelling for the float {x!r}")
        spelled = float.__repr__(x)
        if x:
            self[x] = spelled
        return spelled


_CONSTANTS = {True: "true", False: "false", None: "null"}


def dumps(x) -> str:
    """``x`` spelled exactly as ``json.dumps(x, sort_keys=True, indent=2)``
    spells it, for a dict with str keys, a list, a str, an int, a finite
    float, a bool or None, nested to any depth.

    NaN and the infinities raise ValueError.  A key that is not a str, or a
    value of any other type (a tuple, a numpy scalar or a subclass of one of
    these types included), raises TypeError.
    """
    parts: list[str] = []
    _write(x, "\n", parts, _FloatSpellings())
    return "".join(parts)


def _write(x, newline: str, parts: list[str], floats: _FloatSpellings) -> None:
    # ``newline`` is a line break and the indent of the line that holds ``x``.
    t = type(x)
    if t is str:
        parts.append(_spell_str(x))
    elif t is float:
        parts.append(floats[x])
    elif t is int:
        parts.append(int.__repr__(x))
    elif t is bool or x is None:
        parts.append(_CONSTANTS[x])
    elif t is dict:
        if not x:
            parts.append("{}")
            return
        if set(map(type, x)) != {str}:
            key = next(k for k in x if type(k) is not str)
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        opening = "{" + inner
        for key in sorted(x):
            parts.append(opening)
            parts.append(_spell_str(key))
            parts.append(": ")
            _write(x[key], inner, parts, floats)
            opening = "," + inner
        parts.append(newline + "}")
    elif t is list:
        if not x:
            parts.append("[]")
            return
        inner = newline + "  "
        parts.append("[" + inner)
        # A list of one number type is spelled in one join; a bool is never an int here.
        types = set(map(type, x))
        if types == {int}:
            parts.append(("," + inner).join(map(int.__repr__, x)))
        elif types == {float}:
            parts.append(("," + inner).join(map(floats.__getitem__, x)))
        else:
            for i, v in enumerate(x):
                if i:
                    parts.append("," + inner)
                _write(v, inner, parts, floats)
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
