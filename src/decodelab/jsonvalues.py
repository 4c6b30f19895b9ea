"""What a JSON value is: the model loader, the trace reader and the config
reader check their fields here, so each refusal is worded alike.

A kind is the set of Python types that ``json.loads`` gives for it, matched
exactly, so a bool is never an integer or a number.  A number comes back as
a float; a JSON integer beyond the float range is refused.  Each reader
passes its own error class: model documents raise ``ModelFormatError``.
"""

import json
from collections import namedtuple

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
