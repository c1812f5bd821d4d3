"""Shared helpers: canonical and indented JSON, versioned CSV, digests, and
derived RNG stream seeds."""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote  # the C escaper when built

from . import __version__

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


def child_seed(seed: int, label: str) -> int:
    """Derive an independent 63-bit stream seed from (seed, label).

    Keeps labelled draw streams (policies, indicator noise) separate from the
    engine's own stream so that replaying a log never depends on them.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
