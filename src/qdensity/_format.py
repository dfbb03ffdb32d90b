"""Deterministic JSON/CSV emitters with 17-significant-digit floats.

The stdlib json module always formats floats with repr, so this small
serializer exists to pin the output format: every float is written with
%.17g, which round-trips any double exactly and byte-for-byte identically
across runs. Infinities follow the json module's readable spelling so
json.loads can parse everything back.

A float64 array, whose dtype already fixes the type of every entry, is
checked once: when np.isfinite holds for all of it, each of its rows
(along the last axis) is written with one %-format of a row template,
with no further check. Its bytes are those of formatting each entry
with %.17g and joining them. Any other array (NaN, infinities, another
dtype, no entries, 0-d) is converted with tolist and encoded as a list,
entry by entry, as is every list and tuple.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "dumps", "csv_row"]


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _finite_rows(nested: list, ndim: int, row: str, parts: list[str]) -> None:
    """Append a finite float64 array's nested tolist, each last-axis row by the row template."""
    if ndim == 1:
        parts.append(row % tuple(nested))
        return
    parts.append("[")
    for i, sub in enumerate(nested):
        if i:
            parts.append(", ")
        _finite_rows(sub, ndim - 1, row, parts)
    parts.append("]")


def _string(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def _encode(obj, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size and np.isfinite(obj).all():
            row = "[" + ", ".join(["%.17g"] * obj.shape[-1]) + "]"
            _finite_rows(obj.tolist(), obj.ndim, row, parts)
            return
        obj = obj.tolist()
    elif isinstance(obj, np.bool_):
        obj = bool(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(_string(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            parts.append(pad + "  " + _string(key) + ": ")
            _encode(value, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[")
        for i, value in enumerate(obj):
            _encode(value, parts, indent)
            if i < len(obj) - 1:
                parts.append(", ")
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to JSON text with pinned float formatting."""
    parts: list[str] = []
    _encode(obj, parts, 0)
    return "".join(parts)


def csv_row(values) -> str:
    """One CSV line; floats via format_float, everything else via str."""
    cells = []
    for v in values:
        if isinstance(v, float):
            cells.append(format_float(v))
        else:
            cells.append(str(v))
    return ",".join(cells)
