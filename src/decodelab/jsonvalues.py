"""The package's one JSON boundary.  :func:`load` reads the model and
config files and raises the reader's own error for any file the decoder
refuses.  The model loader, the trace reader and the config reader check
their fields with :func:`value` and :func:`values`, so each refusal is worded
alike, and a refusal shows a value through :func:`echo` (JSON spelling) or
:func:`echo_repr` (``repr`` spelling), cut short.  The model and trace
writers spell their files with :func:`member`, :func:`spell_object`,
:func:`spell_array`, :func:`array_parts`, :class:`_FloatSpellings` and the
scalar :func:`dumps`, so the indent and the separators are decided here alone.

A kind is the set of Python types that ``json.loads`` gives for it, matched
exactly, so a bool is never an integer or a number.  A number comes back as
a float; a JSON integer beyond the float range is refused.  Each reader
passes its own error class: model documents raise ``ModelFormatError``.
"""

import json
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
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

#: The most characters of a spelled value that a refusal echoes.
ECHO_CHARS = 100


def load(path, what: str, error: type[ValueError] = ValueError):
    """The JSON value in the UTF-8 file at ``path``, or ``error`` naming the
    file ``what`` if the decoder refuses it; OSError if it cannot be read."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        # Not UTF-8, not JSON or an integer past the 4,300-digit limit is a
        # ValueError; nesting past the recursion limit is a RecursionError.
        except (ValueError, RecursionError) as exc:
            raise error(f"{what} is not valid JSON: {exc}") from exc


def echo(x) -> str:
    """``x`` as ``json.dumps`` spells it, cut to :data:`ECHO_CHARS` characters
    and ``...``: spelling stops at the cut, so a long or deep value is cheap."""
    return cut(json.JSONEncoder().iterencode(x))


def echo_repr(x) -> str:
    """``repr(x)`` of a JSON value, cut as :func:`echo` cuts it.  A string
    past the cut is spelled from its first ``ECHO_CHARS + 1`` characters, so
    its quotes can differ from those of the whole string's ``repr``."""
    return cut(_repr_parts(x))


def _repr_parts(x) -> Iterator[str]:
    # Every list or dict yields its bracket before its items, so a deep value
    # is spelled only as deep as the cut.
    if type(x) is list:
        yield "["
        for i, item in enumerate(x):
            yield ", " if i else ""
            yield from _repr_parts(item)
        yield "]"
    elif type(x) is dict:
        yield "{"
        for i, (key, item) in enumerate(x.items()):
            yield ", " if i else ""
            yield from _repr_parts(key)
            yield ": "
            yield from _repr_parts(item)
        yield "}"
    else:
        yield repr(x[: ECHO_CHARS + 1] if type(x) is str else x)


def cut(parts: Iterable[str]) -> str:
    """The text of ``parts`` joined, cut to :data:`ECHO_CHARS` characters and
    ``...``; no part past the cut is taken."""
    spelled = ""
    for part in parts:
        spelled += part
        if len(spelled) > ECHO_CHARS:
            return spelled[:ECHO_CHARS] + "..."
    return spelled


def _shown(x, kind: Kind) -> str:
    # What stands where an object belongs can be a whole table: name its type.
    return type(x).__name__ if kind is OBJECT else echo(x)


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
        raise error(f"{name} must be a JSON list of {kind.plural} (got {echo(x)})")
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


def array_parts(items: Iterable[str], depth: int) -> Iterator[str]:
    """:func:`spell_array` of ``items`` in parts, one per item: the bracket
    and separator go with the item they come before."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    opening, separator, closing = _ARRAY[depth]
    yield opening + first
    for item in items:
        yield separator + item
    yield closing


def brackets(pair: str, depth: int) -> tuple[str, str, str]:
    """``(opening, separator, closing)`` of a block at nesting level ``depth``,
    an object for ``pair`` ``"{}"`` and an array for ``"[]"``: what
    :func:`spell_object` and :func:`spell_array` put before the first part,
    between two parts and after the last, for a writer that lays out many
    blocks in one join."""
    return _BRACKETS[pair][depth]


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


_BRACKETS = {pair: _Brackets(pair) for pair in ("{}", "[]")}
_OBJECT, _ARRAY = _BRACKETS["{}"], _BRACKETS["[]"]


def dumps(x) -> str:
    """``x`` spelled exactly as ``json.dumps(x)`` spells it, for a str, an
    int, a finite float, a bool or None: the one-line fields of a file.

    NaN and the infinities raise ValueError.  Any other type (a list, a
    dict, a tuple, a numpy scalar or a subclass of one of these types
    included) raises TypeError.
    """
    t = type(x)
    if t is str:
        return _spell_str(x)
    if t is int:
        return int.__repr__(x)
    if t is float:
        return _FloatSpellings()[x]
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    raise TypeError(f"Object of type {t.__name__} is not a JSON scalar")
