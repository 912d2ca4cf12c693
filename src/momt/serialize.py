"""Deterministic JSON and CSV writers for instance and result files.

Floats are rendered as decimal with 17 significant digits, which round-trips
IEEE doubles bit-faithfully; dictionaries keep insertion order and no
timestamps or environment data are ever embedded, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import math

from .errors import SchemaError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise SchemaError("number", f"non-finite value {x!r} cannot be serialized")
    if x.is_integer() and abs(x) < 1e15:
        return f"{int(x)}.0"
    return format(x, ".17g")


def _quote(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


# keyed by exact type; subclasses such as np.float64 take the isinstance
# chain at the end of `_dumps`
_SCALARS = {
    float: format_float,
    int: str,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
    str: _quote,
}


def dumps(obj, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, 17-significant-digit floats."""
    return _dumps(obj, indent, {})


def _dumps(obj, indent: int, keys: dict) -> str:
    """`dumps` with `keys`, the quoted text of every key string seen so far."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    pad = " " * indent
    child = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            k = k if type(k) is str else str(k)
            key = keys.get(k)
            if key is None:
                key = keys[k] = _quote(k)
            rows.append(f"{child}{key}: {_dumps(v, indent + 2, keys)}")
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if len(types) == 1 and (scalar := _SCALARS.get(types.pop())) is not None:
            return "[" + ", ".join(map(scalar, obj)) + "]"
        if all(isinstance(v, (int, float, str, bool)) or v is None for v in obj):
            return "[" + ", ".join(_dumps(v, 0, keys) for v in obj) + "]"
        rows = [f"{child}{_dumps(v, indent + 2, keys)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    # only subclasses of int, float and str get here: None and bool have none
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    raise SchemaError("value", f"cannot serialize {type(obj).__name__}")


def dump_text(obj) -> str:
    return dumps(obj) + "\n"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
