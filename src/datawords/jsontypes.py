"""The kinds of JSON value that input files hold, and the one check on them.

Every reader of parsed JSON tests its fields here, and turns the ValueError
of ``check`` into its own error class once. A kind is a test plus the words
that name it in a refusal; ``true`` and ``false`` are never numbers, and a
string is never a list. Values built in Python keep their own tests.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, NamedTuple

_MAX = sys.float_info.max  # compared exactly, so NaN, inf and huge integers fail


class Kind(NamedTuple):
    test: Callable[[Any], bool]
    words: str


INTEGER = Kind(lambda v: type(v) is int, "an integer")
COUNT = Kind(lambda v: type(v) is int and v >= 0, "an integer >= 0")
NUMBER = Kind(lambda v: type(v) in (int, float), "a number")
FINITE = Kind(lambda v: type(v) in (int, float) and -_MAX <= v <= _MAX, "a finite number")
POSITIVE = Kind(lambda v: type(v) in (int, float) and 0 < v <= _MAX, "a finite positive number")
NONNEGATIVE = Kind(lambda v: type(v) in (int, float) and 0 <= v <= _MAX, "a finite number >= 0")
SCALAR = Kind(lambda v: type(v) is str or FINITE.test(v), "a finite number or a string")
BOOL = Kind(lambda v: type(v) is bool, "true or false")
STRING = Kind(lambda v: type(v) is str, "a string")
NONEMPTY = Kind(lambda v: type(v) is str and v != "", "a nonempty string")
STRINGS = Kind(lambda v: type(v) is list and all(type(s) is str for s in v), "a list of strings")
NONEMPTY_STRINGS = Kind(lambda v: STRINGS.test(v) and v != [], "a nonempty list of strings")
NAMES = Kind(lambda v: STRINGS.test(v) and "" not in v, "a list of nonempty strings")
NUMBERS = Kind(lambda v: type(v) is list and all(FINITE.test(x) for x in v),
               "a list of finite numbers")
LIST = Kind(lambda v: type(v) is list, "a list")
OBJECT = Kind(lambda v: type(v) is dict, "an object")


def count_upto(most: int) -> Kind:
    return Kind(lambda v: type(v) is int and 0 <= v <= most, f"an integer in [0, {most}]")


def nullable(kind: Kind, words: str | None = None) -> Kind:
    """``kind`` or null, named by ``words`` or else by the kind's own words,
    as null is how a file leaves such a field unset."""
    return Kind(lambda v: v is None or kind.test(v), words or kind.words)


def check(value, kind: Kind, name: str):
    """``value`` if it is of ``kind``, else ValueError worded
    "{name} must be {words}, got {value!r}"."""
    if not kind.test(value):
        raise ValueError(f"{name} must be {kind.words}, got {value!r}")
    return value
