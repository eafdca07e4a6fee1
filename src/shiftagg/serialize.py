"""Canonical text serialization: JSON and CSV with exact float round-trip.

Every floating-point value is written with 17 significant digits, which is
enough to reproduce the original double bit-for-bit on re-parse. Output is
byte-deterministic: dict insertion order is preserved and no locale- or
hash-dependent formatting is used.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from typing import Any, Sequence

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, IoFailure, MalformedFile
from .errors import MissingFile, NonFiniteValue

__all__ = [
    "fmt_float",
    "dumps_canonical",
    "write_text",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
    "aligned_table",
    "config_to_dict",
    "config_from_dict",
    "decode_value",
]


def fmt_float(x: float) -> str:
    """Render a finite float with 17 significant digits (exact round trip)."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize non-finite float")
    return format(x, ".17g")


def _render(obj: Any, indent: int, level: int, out: list[str]) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), indent, level, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k)!r}")
            out.append(pad_in + json.dumps(k) + ": ")
            _render(v, indent, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad_in)
            _render(v, indent, level + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj: Any, indent: int = 2) -> str:
    """Serialize to deterministic JSON text (trailing newline included)."""
    out: list[str] = []
    _render(obj, indent, 0, out)
    out.append("\n")
    return "".join(out)


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` line endings."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise MissingFile(f"missing file {path}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def write_json(path, obj: Any) -> None:
    write_text(path, dumps_canonical(obj))


def read_json(path) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a comma-separated table, formatted with one ``%`` operation.

    ``rows`` is a 2-D float array, written after an ``id`` column 0..n-1
    (``%d``), or a sequence of equal-length rows. A column whose first cell
    is a float is written at 17 significant digits (``%.17g``, exact round
    trip; a non-finite value raises ``ValueError``), any other with ``%s``.
    """
    if isinstance(rows, np.ndarray):
        columns = [range(len(rows))] + [c.tolist() for c in rows.T]
        formats = ["%d"] + ["%.17g"] * rows.shape[1]
    else:
        columns = list(zip(*rows))
        formats = [
            "%.17g" if isinstance(c[0], (float, np.floating)) else "%s"
            for c in columns
        ]
    for col, f in zip(columns, formats):
        if f == "%.17g" and not np.isfinite(col).all():
            raise ValueError("refusing to serialize non-finite float")
    n = len(columns[0]) if columns else 0
    cells = [None] * (n * len(columns))
    for j, col in enumerate(columns):
        cells[j :: len(columns)] = col
    row = ",".join(formats) + "\n"
    write_text(path, ",".join(header) + "\n" + row * n % tuple(cells))


def read_csv(path, width: int | None = None):
    """Read a comma-separated table; returns ``(header, rows)``.

    Without ``width`` the rows are lists of raw strings. With ``width`` the
    table must be one :func:`write_csv` writes from an array: ``width``
    cells in the header and in every row, at least one row, ids 0..n-1 in
    order, and finite numbers as ``float`` reads them. ``rows`` is then the
    ``(n, width - 1)`` float64 matrix after the ids, parsed in one NumPy
    call.
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise MalformedFile(f"{path}: empty file")
    header = lines[0].split(",")
    lines = list(filter(None, lines[1:]))
    if width is None:
        return header, [line.split(",") for line in lines]
    if len(header) != width:
        raise DimensionMismatch(
            f"{path}: header has {len(header)} columns, expected {width}"
        )
    n = len(lines)
    if n == 0:
        raise DimensionMismatch(f"{path}: no data rows")
    # Rows are joined with a "\n" cell between them, which no cell can
    # contain; every row has ``width`` cells exactly when these separators
    # fall every ``width + 1`` cells.
    cells = ",\n,".join(lines).split(",")
    separators = cells[width :: width + 1]
    if len(cells) != n * (width + 1) - 1 or separators.count("\n") != n - 1:
        i = next(i for i, line in enumerate(lines) if line.count(",") != width - 1)
        raise DimensionMismatch(
            f"{path}: row {i} has {lines[i].count(',') + 1} cells, expected {width}"
        )
    del cells[width :: width + 1]
    try:
        table = np.array(cells, np.float64).reshape(n, width)
    except ValueError:
        for i, line in enumerate(lines):
            for cell in line.split(","):
                try:
                    float(cell)
                except ValueError:
                    raise MalformedFile(
                        f"{path}: row {i}: cannot parse {cell!r} as a number"
                    ) from None
        raise
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise NonFiniteValue(f"{path}: non-finite value at row {np.argmin(finite)}")
    misplaced = np.flatnonzero(table[:, 0] != np.arange(n))
    if misplaced.size:
        i = misplaced[0]
        raise MalformedFile(
            f"{path}: row {i} has id {lines[i].split(',', 1)[0]!r}; ids must "
            f"run 0..{n - 1} in order"
        )
    return header, np.ascontiguousarray(table[:, 1:])


def aligned_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Format rows as a left-aligned plain-text table."""
    cols = len(headers)
    widths = [len(h) for h in headers]
    for row in rows:
        for j in range(cols):
            widths[j] = max(widths[j], len(row[j]))
    def fmt_row(cells):
        return "  ".join(cells[j].ljust(widths[j]) for j in range(cols)).rstrip()
    lines = [fmt_row(list(headers)), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(list(r)) for r in rows)
    return "\n".join(lines) + "\n"


# --- dataclasses <-> JSON objects -------------------------------------------


def config_to_dict(cfg) -> dict:
    """JSON object of a dataclass (a config or an output record), keys in
    field order; a field's metadata may rename its key with ``json_key``.
    Nested dataclasses and named tuples, also inside tuples, become objects
    and other tuples lists."""
    return {
        f.metadata.get("json_key", f.name): _to_json(getattr(cfg, f.name))
        for f in dataclasses.fields(cfg)
    }


def _to_json(v):
    if dataclasses.is_dataclass(v):
        return config_to_dict(v)
    if isinstance(v, tuple) and hasattr(v, "_fields"):
        return {k: _to_json(x) for k, x in zip(v._fields, v)}
    if isinstance(v, tuple):
        return [_to_json(x) for x in v]
    return v


def decode_value(tp, value, path: str):
    """Decode one JSON value as type ``tp`` by the rules of
    :func:`config_from_dict`; ``path`` names the key in the error."""
    if type(None) in typing.get_args(tp):
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if dataclasses.is_dataclass(tp):
        return config_from_dict(tp, value, path)
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        return tuple(decode_value(typing.get_args(tp)[0], v, path) for v in value)
    if number and (tp is float or tp is int and float(value).is_integer()):
        return tp(value)
    if tp in (str, bool) and isinstance(value, tp):
        return value
    raise ConfigInvalid(f"config key {path!r}: {value!r} is not a valid {tp.__name__}")


def config_from_dict(cls, doc, path: str = ""):
    """Inverse of :func:`config_to_dict`; absent keys take field defaults.
    A wrong JSON type, a non-integral number for an integer field, or an
    unknown key raises :class:`ConfigInvalid`."""
    if not isinstance(doc, dict):
        where = f"config key {path!r}" if path else "config"
        raise ConfigInvalid(f"{where} must be a JSON object, got {doc!r}")
    types = typing.get_type_hints(cls)
    fields = {f.metadata.get("json_key", f.name): f for f in dataclasses.fields(cls)}
    prefix = f"{path}." if path else ""
    unknown = [prefix + k for k in doc if k not in fields]
    if unknown:
        raise ConfigInvalid(f"unknown config keys {unknown!r}")
    kwargs = {
        f.name: decode_value(types[f.name], doc[k], prefix + k)
        for k, f in fields.items()
        if k in doc
    }
    return cls(**kwargs)
