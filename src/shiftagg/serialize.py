"""Canonical text serialization: JSON and CSV with exact float round-trip.

Every floating-point value is written with 17 significant digits, which is
enough to reproduce the original double bit-for-bit on re-parse. Output is
byte-deterministic: dict insertion order is preserved and no locale- or
hash-dependent formatting is used.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import reprlib
import typing
import zipfile
from typing import Any, Sequence

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, IoFailure, MalformedFile
from .errors import MissingFile, NonFiniteValue, ValidationError

__all__ = [
    "fmt_float",
    "dumps_canonical",
    "write_text",
    "read_bytes",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
    "npz_writer",
    "aligned_table",
    "config_to_dict",
    "config_from_dict",
    "decode_value",
    "decode_object",
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


def write_text(path, text: str) -> bytes:
    """Write ``text`` as UTF-8 with ``\\n`` line endings; returns the
    bytes written."""
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return data


def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise MissingFile(f"missing file {path}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _decode(path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text: {exc}") from exc


def write_json(path, obj: Any) -> None:
    write_text(path, dumps_canonical(obj))


def read_json(path) -> Any:
    try:
        return json.loads(_decode(path, read_bytes(path)))
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedFile(f"{path}: JSON nested too deeply to read") from None


def write_csv(path, header: Sequence[str], rows) -> bytes:
    """Write a comma-separated table, formatted with one ``%`` operation;
    returns the bytes written.

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
    return write_text(path, ",".join(header) + "\n" + row * n % tuple(cells))


def read_csv(path, width: int | None = None, data: bytes | None = None):
    """Read a comma-separated table; returns ``(header, rows)``. ``data``,
    when given, is the file's bytes, already read.

    Without ``width`` the rows are lists of raw strings. With ``width`` the
    table must be one :func:`write_csv` writes from an array: ``width``
    cells in the header and in every row, at least one row, ids 0..n-1 in
    order, and finite numbers as ``float`` reads them. ``rows`` is then the
    ``(n, width - 1)`` float64 matrix after the ids, parsed in one NumPy
    call.
    """
    if data is None:
        data = read_bytes(path)
    lines = _decode(path, data).splitlines()
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


# np.savez stamps each member with the clock; one fixed date (the earliest
# a zip can hold) makes equal arrays give equal bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


@contextlib.contextmanager
def npz_writer(path):
    """Yield ``add(key, array)``, which appends ``array`` to the
    uncompressed ``.npz`` file at ``path`` under ``key``. The file's bytes
    depend only on the keys and arrays added, and
    ``np.load(path, allow_pickle=False)`` reads it."""
    try:
        with zipfile.ZipFile(path, "w") as zf:

            def add(key: str, array) -> None:
                member = zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_DATE)
                with zf.open(member, "w", force_zip64=True) as fh:
                    np.lib.format.write_array(
                        fh, np.asarray(array), allow_pickle=False
                    )

            yield add
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


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


# What a value of each type must be, for the error message.
_TAKES = {int: "integers", float: "numbers", str: "a string", bool: "a boolean",
          tuple: "a list", dict: "a JSON object",
          np.ndarray: "a rectangular list of numbers"}


def _is_number_type(t) -> bool:
    return issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))


def decode_value(tp, value, path: str):
    """Decode one JSON value as type ``tp`` by the rules of
    :func:`config_from_dict`; ``path`` names the key in the error.

    A number must be finite and fit in a float, else :class:`NonFiniteValue`.
    ``np.ndarray`` takes a rectangular list of numbers, nested at most 32
    deep, as float64 (ragged rows raise :class:`DimensionMismatch`);
    ``tuple[X, ...]`` takes a list and ``tuple[X, Y]`` one of two; ``dict``
    takes an object. A tuple or an array may stand for a list.
    """
    if type(None) in typing.get_args(tp):
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return config_from_dict(tp, value, path)
    origin = typing.get_origin(tp) or tp
    sequence = isinstance(value, (list, tuple, np.ndarray))
    if origin is tuple and sequence:
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) == len(value):
            return tuple(decode_value(t, v, path) for t, v in zip(args, value))
    elif tp is np.ndarray and sequence:
        flat = [value.tolist() if isinstance(value, np.ndarray) else value]
        shape = []
        # Level by level, not recursively, so no nesting exhausts the stack.
        while len(shape) < 32 and flat and all(
            isinstance(v, (list, tuple)) for v in flat
        ):
            lengths = set(map(len, flat))
            if len(lengths) > 1:
                raise DimensionMismatch(
                    f"key {path!r} has ragged rows (lengths {sorted(lengths)})"
                )
            shape.append(lengths.pop())
            flat = [x for v in flat for x in v]
        if all(map(_is_number_type, set(map(type, flat)))):
            try:
                arr = np.array(flat, dtype=np.float64).reshape(shape)
            except OverflowError:  # an integer too large for a float
                arr = np.array(math.inf)
            if not np.isfinite(arr).all():
                raise NonFiniteValue(
                    f"key {path!r}: numbers must be finite and fit in a float"
                )
            return arr
    elif tp in (int, float) and _is_number_type(type(value)):
        # One finiteness rule: the array branch's, on a one-element list.
        x = float(decode_value(np.ndarray, [value], path)[0])
        if tp is float or x.is_integer():
            return x if tp is float else int(value)
    elif tp in (str, bool, dict) and isinstance(value, tp):
        return value
    what = f"the {path} block must be" if tp is dict else f"key {path!r} takes"
    raise ConfigInvalid(f"{what} {_TAKES[origin]}, not {reprlib.repr(value)}")


def decode_object(types: dict, doc, where: str, defaults: dict | None = None) -> dict:
    """Decode the keys ``types`` names in the JSON object ``doc`` of a
    document, each by :func:`decode_value`; other keys are ignored, and a
    key in ``defaults`` may be absent. Every error names ``where``; a
    missing key or a value of the wrong type raises :class:`MalformedFile`."""
    try:
        doc = {**(defaults or {}), **decode_value(dict, doc, "document")}
        return {k: decode_value(tp, doc[k], k) for k, tp in types.items()}
    except KeyError as exc:
        raise MalformedFile(f"{where}: missing key {exc}") from None
    except ValidationError as exc:
        cls = MalformedFile if isinstance(exc, ConfigInvalid) else type(exc)
        raise cls(f"{where}: {exc}") from exc


def config_from_dict(cls, doc, path: str = ""):
    """Inverse of :func:`config_to_dict`; absent keys take field defaults.
    A wrong JSON type, a non-integral number for an integer field, or an
    unknown key raises :class:`ConfigInvalid`."""
    doc = decode_value(dict, doc, path or "config")
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
