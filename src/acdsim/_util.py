"""Shared helpers: the typed reader of JSON input, canonical and indented
JSON, versioned CSV, digests, derived RNG stream seeds, and `left_sum`."""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import sys
from json.encoder import encode_basestring_ascii as _quote  # the C escaper when built

from . import __version__
from .errors import ParseError

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# ---------------------------------------------------------------------------
# Reading JSON input
# ---------------------------------------------------------------------------
#
# Every input file is read by field: `json_object` checks an object and its
# keys, `member` reads one member and `typed` one value, each naming the JSON
# path of what it refuses ("nodes[0].vulns[1].severity must be a number").
# The rules are the same for every file: a boolean is not an integer, a
# number is finite and fits a float, every item of a list has the list's one
# kind, and an object holds only known keys.

_REQUIRED = object()
_raw_decode = json.JSONDecoder().raw_decode
_WHITESPACE = json.decoder.WHITESPACE.match
_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = -_FLOAT_MAX
_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          str: ("a string", "strings"), bool: ("a boolean", "booleans"),
          list: ("a list", "lists"), dict: ("an object", "objects")}


def parse_json(text: str, what: str):
    """The document `text` decodes to, as `json.loads` decodes it; ParseError
    naming `what`, with `json.loads`'s message, when it is no JSON (integers
    of over 4300 digits and deep nesting included)."""
    # a text with no leading whitespace, as a log line, is decoded without
    # the two whitespace scans of `json.loads`, a sixth of its time on a line
    stripped = text.rstrip(" \t\n\r")
    try:
        try:
            value, end = _raw_decode(stripped)
        except ValueError:  # leading whitespace, or no JSON
            value, end = json.loads(text), len(stripped)
        if end != len(stripped):
            raise json.JSONDecodeError("Extra data", text, _WHITESPACE(text, end).end())
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid {what} JSON: {exc}") from None
    return value


def at(path: str, key) -> str:
    """The JSON path of member `key`, or item `key` when it is an int, of the
    value at `path` ("" for the document)."""
    if type(key) is int:
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def json_object(value, path: str, keys, lenient: bool = False) -> dict:
    """`value` if it is an object whose keys are all in the set `keys`, or
    has any keys when `lenient`."""
    if type(value) is not dict:
        raise ParseError(f"{path or 'the document'} must be an object")
    if not lenient and not keys.issuperset(value):
        raise ParseError(f"unknown key(s) in {path or 'the document'}: "
                         f"{', '.join(sorted(set(value) - keys))} "
                         f"(known: {', '.join(sorted(keys))})")
    return value


def member(obj: dict, key: str, kind, path: str = "", default=_REQUIRED, within=None):
    """Member `key` of object `obj` (at `path`) read by `typed`; `default`
    when the member is absent, and then also when it is `null` if the
    default is None; a member without a default is required."""
    value = obj.get(key, default)
    if value is default:  # absent, or the default itself
        if value is _REQUIRED:
            raise ParseError(f"{at(path, key)} is required")
        return value
    # `typed`'s common case without the call: a log's parse makes about 25
    # reads per step, and `detect` parses every log it classifies
    if type(value) is kind and within is None and (
            kind is str or kind is bool or kind is list or kind is dict
            or _FLOAT_MIN <= value <= _FLOAT_MAX):
        return value
    return typed(value, kind, path, key, within)


def typed(value, kind, path: str, key=None, within=None):
    """`value` as JSON kind `kind`: int, float (any number, returned as a
    float), str, bool, list or dict, a tuple of those (not float) for any
    of them, or `[kind]` for a list of that kind (a new list if its items
    are read as floats or lists). `within` is an inclusive (low, high) range
    of a number or of each item. ParseError names the value's path:
    `at(path, key)`, or `path` when `key` is None."""
    t = type(value)
    if type(kind) is list:
        if t is list:
            item = kind[0]
            if within is None and (item is str or item is int or item is bool):
                for x in value:  # the common case, without a call per item
                    if type(x) is not item or item is int and not _FLOAT_MIN <= x <= _FLOAT_MAX:
                        break
                else:
                    return value
            where = path if key is None else at(path, key)
            return [typed(x, item, where, i, within) for i, x in enumerate(value)]
    elif kind is float:
        if (t is float or t is int) and _FLOAT_MIN <= value <= _FLOAT_MAX:  # refuses NaN too
            value = float(value)
            if within is None or within[0] <= value <= within[1]:
                return value
    elif t is kind or (type(kind) is tuple and t in kind):
        if ((t is not int or _FLOAT_MIN <= value <= _FLOAT_MAX)
                and (within is None or within[0] <= value <= within[1])):
            return value
    where = path if key is None else at(path, key)
    if within is not None:
        bounds = f" in [{within[0]}, {within[1]}]"
    elif (t is kind or kind is float and t is int) and (t is int or t is float):
        bounds = f" within ±{_FLOAT_MAX:.2g}"  # the kind is right, the value out of range
    else:
        bounds = ""
    raise ParseError(f"{where or 'the document'} must be {_name(kind)}{bounds}")


def _name(kind, plural: bool = False) -> str:
    if type(kind) is list:
        return ("lists of " if plural else "a list of ") + _name(kind[0], True)
    if type(kind) is tuple:
        return " or ".join(_name(k, plural) for k in kind)
    return _NAMES[kind][plural]


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Compact JSON with sorted keys; the byte-stable form used for digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def indented_json(obj) -> str:
    """The text `json.dumps` writes with sorted keys and an indent of 2, the
    form of every JSON file acdsim writes, without the pure-Python encoder
    that CPython's `json` falls back to when given an indent.

    Takes dicts with str keys, lists, tuples (written as lists), str, int,
    float, bool and None; any other key or value raises TypeError.
    """
    parts = []
    _emit(obj, "\n", parts.append)
    return "".join(parts)


def _emit(o, nl: str, emit):
    # nl is the newline and indent of the line `o` starts on
    if isinstance(o, float):
        text = float.__repr__(o)
        emit(_NONFINITE.get(text, text))
    elif isinstance(o, str):
        emit(_quote(o))
    elif isinstance(o, dict):
        if not o:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            emit(sep + _quote(key) + ": ")  # _quote raises TypeError on a non-str key
            _emit(o[key], inner, emit)
            sep = "," + inner
        emit(nl + "}")
    elif o is None:
        emit("null")
    elif o is True:
        emit("true")
    elif o is False:
        emit("false")
    elif isinstance(o, int):
        emit(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            emit(sep)
            _emit(item, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def versioned_csv(header: str, rows) -> str:
    """Every CSV file acdsim writes: a `# acdsim VERSION` line, the header,
    then each row's values by `str`, comma-joined, every line ending in one
    newline. Values are ints, floats and strings that need no quoting."""
    lines = [f"# acdsim {__version__}", header]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def left_sum(values) -> float:
    """The floats added left to right from 0.0, as `sum` adds them before
    CPython 3.12, whose compensated `sum` moves last bits: this gives 0.0
    for [1e16, 1.0, -1e16] on every Python, and 3.12's `sum` 1.0."""
    return functools.reduce(operator.add, values, 0.0)


def child_seed(seed: int, label: str) -> int:
    """Derive an independent 63-bit stream seed from (seed, label).

    Keeps labelled draw streams (policies, indicator noise) separate from the
    engine's own stream so that replaying a log never depends on them.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
