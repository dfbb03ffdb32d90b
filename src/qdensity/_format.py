"""Deterministic JSON/CSV emitters with 17-significant-digit floats.

The stdlib json module always formats floats with repr, so this small
serializer exists to pin the output format: every float is written with
%.17g, which round-trips any double exactly and byte-for-byte identically
across runs. Infinities follow the json module's readable spelling so
json.loads can parse everything back.

A float64 array, whose dtype already fixes the type of every entry, is
checked once: when np.isfinite holds for all of it, each of its rows
(along the last axis) is written with one %-format of a row template,
straight from the array, with no further check. Its bytes are those of
formatting each entry with %.17g and joining them. Any other array (NaN,
infinities, another dtype, no entries, 0-d) is converted with tolist and
encoded as a list, entry by entry, as is every list and tuple.

Text goes out through a write callable as it is formatted: dumps(obj, fh)
writes each piece to fh, so the memory it needs is bounded by the largest
row, not by the size of the output; dumps(obj) joins the same pieces.
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


def _finite_rows(a: np.ndarray, row: str, write) -> None:
    """Write a finite float64 array one last-axis row at a time, each by the row template."""
    if a.ndim == 1:
        write(row % tuple(a.tolist()))
        return
    write("[")
    for i, sub in enumerate(a):
        if i:
            write(", ")
        _finite_rows(sub, row, write)
    write("]")


def _string(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def _encode(obj, write, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size and np.isfinite(obj).all():
            row = "[" + ", ".join(["%.17g"] * obj.shape[-1]) + "]"
            _finite_rows(obj, row, write)
            return
        obj = obj.tolist()
    elif isinstance(obj, np.bool_):
        obj = bool(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    if obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(str(obj))
    elif isinstance(obj, float):
        write(format_float(obj))
    elif isinstance(obj, str):
        write(_string(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            write(pad + "  " + _string(key) + ": ")
            _encode(value, write, indent + 1)
            write(",\n" if i < len(obj) - 1 else "\n")
        write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        write("[")
        for i, value in enumerate(obj):
            _encode(value, write, indent)
            if i < len(obj) - 1:
                write(", ")
        write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, fh=None) -> str | None:
    """JSON text with pinned float formatting; with fh, written to fh as it is formatted."""
    if fh is not None:
        _encode(obj, fh.write, 0)
        return None
    parts: list[str] = []
    _encode(obj, parts.append, 0)
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
