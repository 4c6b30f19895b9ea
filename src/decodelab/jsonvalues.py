"""What a JSON value is and how it is spelled: the model loader, the trace
reader and the config reader check their fields here, so each refusal is
worded alike, and every JSON text is spelled here: :func:`dumps` spells a
whole value, and the model and trace writers build their files from
:func:`member`, :func:`spell_object` and :func:`spell_array`, so the indent
and the separators are decided in this module alone.

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


def member(key: str, spelled: str) -> str:
    """One member of an object, ``"key": value``, from its key and its value
    already spelled."""
    return _spell_str(key) + ": " + spelled


def spell_object(members: list[str], depth: int) -> str:
    """The object whose members, each spelled by :func:`member` and given in
    key order, sit one level below ``depth``, the nesting level of the line
    that holds the object."""
    if not members:
        return "{}"
    opening, separator, closing = _OBJECT[depth]
    return opening + separator.join(members) + closing


def spell_array(items: list[str], depth: int) -> str:
    """The array of ``items``, each already spelled, at nesting level ``depth``."""
    if not items:
        return "[]"
    opening, separator, closing = _ARRAY[depth]
    return opening + separator.join(items) + closing


class _Brackets(dict):
    """``(opening, separator, closing)`` of a block at each depth: the bracket
    and line break before its first part, the comma and line break between
    parts, and the line break and bracket after the last part."""

    __slots__ = ("pair",)

    def __init__(self, pair: str):
        super().__init__()
        self.pair = pair

    def __missing__(self, depth: int) -> tuple[str, str, str]:
        inner = "\n" + "  " * (depth + 1)
        spelled = self[depth] = (self.pair[0] + inner, "," + inner, inner[:-2] + self.pair[1])
        return spelled


_OBJECT, _ARRAY = _Brackets("{}"), _Brackets("[]")


def dumps(x) -> str:
    """``x`` spelled exactly as ``json.dumps(x, sort_keys=True, indent=2)``
    spells it, for a dict with str keys, a list, a str, an int, a finite
    float, a bool or None, nested to any depth.

    NaN and the infinities raise ValueError.  A key that is not a str, or a
    value of any other type (a tuple, a numpy scalar or a subclass of one of
    these types included), raises TypeError.
    """
    return _spell(x, 0, _FloatSpellings())


def _spell(x, depth: int, floats: _FloatSpellings) -> str:
    t = type(x)
    if t is str:
        return _spell_str(x)
    if t is float:
        return floats[x]
    if t is int:
        return int.__repr__(x)
    if t is bool or x is None:
        return _CONSTANTS[x]
    if t is dict:
        for k in x:
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        return spell_object([member(k, _spell(x[k], depth + 1, floats)) for k in sorted(x)], depth)
    if t is list:
        # A list of one number type is spelled in one map; a bool is never an int here.
        types = set(map(type, x))
        if types == {int}:
            return spell_array(list(map(int.__repr__, x)), depth)
        if types == {float}:
            return spell_array(list(map(floats.__getitem__, x)), depth)
        return spell_array([_spell(v, depth + 1, floats) for v in x], depth)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
