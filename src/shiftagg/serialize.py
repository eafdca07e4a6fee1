"""Canonical text serialization: JSON and CSV with exact float round-trip.

Every floating-point value is written with 17 significant digits, which is
enough to reproduce the original double bit-for-bit on re-parse. Output is
byte-deterministic: dict insertion order is preserved and no locale- or
hash-dependent formatting is used.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
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
    return _write_bytes(path, text.encode("utf-8"))


def _write_bytes(path, data: bytes) -> bytes:
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
    """Write the 2-D array ``rows`` as a comma-separated table after an
    ``id`` column 0..n-1 (``%d``); returns the bytes written.

    ``rows`` is taken as float64, and every value is written at 17
    significant digits, byte for byte as ``"%.17g" % x`` writes it (exact
    round trip; a non-finite value raises ``ValueError``), by one NumPy
    kernel (:func:`_array_lines`).
    """
    head = (",".join(header) + "\n").encode("utf-8")
    return _write_bytes(path, b"".join([head, *_array_lines(rows)]))


# --- "%.17g" for a whole float64 array ---------------------------------------
#
# Why the bytes are exactly those of "%.17g" % x. For 1e-180 <= |x| <= 1e180
# the kernel guesses e = floor(log10 |x|) and splits V = |x| * 10**(16 - e)
# into p + rest: 10**k is held as hi + lo, the nearest double and the
# nearest double to the remainder, built exactly from Fraction, so hi + lo is
# within 2**-106 of 10**k relatively; p = fl(|x| * hi), Dekker's two-product
# (Veltkamp halves, no FMA) gives |x| * hi - p exactly, and rest adds
# fl(|x| * lo). All rounding errors together stay below 1e-14 in absolute
# terms (V < 1e18). Where 1e16 <= V, p >= 2**53 is an integer, so
# F = p + floor(rest) and frac = rest - floor(rest) are the floor and the
# fraction of V up to that error; an error that crosses an integer moves F
# by one and frac to the far side of that integer, so F + (frac > 0.5) is
# the same nearest integer. The exponent is decided from F, not from the
# rounded value: F < 10**16 means e was one too high and F >= 10**17 one too
# low (log10's guess is off by at most one), so those cells are computed
# once more at e - 1 or e + 1. Then D = F + (frac > 0.5) is the correctly
# rounded 17-digit significand, a carry to 10**17 becoming 10**16 at e + 1,
# unless frac lies within 2**-24 of one half: such a cell (every exact tie,
# which "%.17g" breaks half-to-even, e.g. 26215 / 2**18) and a cell outside
# the range above are formatted by fmt_float itself. The layout is "%g"'s:
# fixed notation for -4 <= e <= 16, else d.ddde+XX, trailing zeros stripped.
#
# Cells are built slot-major, one uint8 row per character slot of a cell
# (0 where the cell has no character), in blocks of _FMT_BLOCK cells to
# bound the temporaries; each block is transposed to row order once and
# compacted by dropping its zero bytes.

_FMT_BLOCK = 1 << 14
_FMT_RANGE = (1e-180, 1e180)
_FMT_TIE = 2.0**-24
_POW_MIN, _POW_MAX = -170, 200  # the 10**k table: k = 16 - e, e within one of the range
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for float64
# Slots of a float cell: sign, body, separator. The body holds fixed
# notation ("0.000" + 17 digits at most) or d.dddd (18) + "e-XXX" (5).
_BODY = 23
_CELL = _BODY + 2
_J = np.arange(_BODY, dtype=np.int8)[:, None]


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    big = a * _SPLIT
    high = big - (big - a)
    return high, a - high


@functools.cache
def _pow10() -> tuple[np.ndarray, ...]:
    """``hi``, its Veltkamp halves and ``lo`` of 10**k for k in
    ``_POW_MIN.._POW_MAX``."""
    from fractions import Fraction  # here, so that only a CSV write imports it

    exact = [Fraction(10) ** k for k in range(_POW_MIN, _POW_MAX + 1)]
    hi = [float(f) for f in exact]
    lo = np.array([float(f - Fraction(h)) for f, h in zip(exact, hi)])
    hi = np.array(hi)
    return _frozen(hi, *_veltkamp(hi), lo)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For v in 0..9999: its four ASCII digits as a (4, 10000) array and
    packed in a uint32, and how many digits are left once trailing zeros are
    stripped (-99 for 0, so that it never wins a maximum)."""
    v = np.arange(10000)
    chars = (v // np.array([[1000], [100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
    packed = np.ascontiguousarray(chars.T).view(np.uint32).ravel()
    kept = 4 - (v % 10 == 0) - (v % 100 == 0) - (v % 1000 == 0)
    kept[0] = -99
    return _frozen(chars, packed, kept.astype(np.int8))


def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """``tables``, read-only: every caller of a cached table shares it."""
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor (int64) and fraction of ``a * 10**(16 - e)``, to within 1e-14."""
    hi, hi1, hi2, lo = (t[16 - _POW_MIN - e] for t in _pow10())
    a1, a2 = _veltkamp(a)
    p = a * hi
    rest = ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2 + a * lo
    floor = np.floor(rest)
    return p.astype(np.int64) + floor.astype(np.int64), rest - floor


def _float_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the sign and body slots of ``"%.17g" % v`` for each finite v of
    the 1-D ``x`` into ``out[:-1]`` (``out`` is ``(_CELL, x.size)``)."""
    n = x.size
    a = np.abs(x)
    zero = a == 0
    inside = (a >= _FMT_RANGE[0]) & (a <= _FMT_RANGE[1])
    a[~inside] = 1.0  # formatted as "1", then overwritten
    e = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(a, e)
    redo = np.flatnonzero((F < 10**16) | (F >= 10**17))
    if redo.size:
        e[redo] += np.where(F[redo] < 10**16, -1, 1)
        F[redo], frac[redo] = _scaled(a[redo], e[redo])
    D = F + (frac > 0.5)
    carry = D == 10**17
    D[carry] = 10**16
    e += carry

    # Row i + 1 of ``digits`` is character i of "0000" + D's 17 digits;
    # rows 0, 22 and 23 are padding.
    chars, packed, kept = _digit_tables()
    digits = np.empty((_BODY + 1, n), np.uint8)
    digits[[0, 22, 23]] = 0
    digits[1:5] = ord("0")
    lead = D // 10**16
    digits[5] = lead + ord("0")
    digits[5, zero] = ord("0")
    rest = D - lead * 10**16
    last = np.full(n, 4, np.int8)  # index in that string of the last nonzero digit
    groups = np.empty((4, n), np.uint32)
    for q, scale in enumerate((10**12, 10**8, 10**4, 1)):
        g = rest // scale
        rest -= g * scale
        np.take(packed, g, out=groups[q])
        np.maximum(last, kept[g] + np.int8(4 + 4 * q), out=last)
    digits[6:22].reshape(4, 4, n)[...] = (
        groups.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    )

    # Fixed notation: the point after character ``point`` of that string,
    # the kept characters running from ``start`` to ``end`` of the body.
    fixed = (e >= -4) & (e <= 16)
    point = np.where(fixed, e + 4, 4).astype(np.int8)
    start = np.where(fixed & (e < 0), point, 4).astype(np.int8)
    np.maximum(last, point, out=last)
    end = last + (last > point)
    body = out[1 : 1 + _BODY]
    body[...] = digits[:-1]
    np.copyto(body, digits[1:], where=_J <= point)
    body.put((point.astype(np.intp) + 1) * n + np.arange(n), ord("."))
    np.copyto(body, 0, where=(_J < start) | (_J > end))
    exp = np.flatnonzero(~fixed)
    if exp.size:
        body[:, exp] = _exp_body(digits[:, exp], e[exp], last[exp])
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    for i in np.flatnonzero(~(inside | zero) | (np.abs(frac - 0.5) < _FMT_TIE)):
        text = np.frombuffer(fmt_float(x[i]).encode(), np.uint8)
        out[:-1, i] = 0
        out[: text.size, i] = text


def _exp_body(digits: np.ndarray, e: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Body slots ``d.ddde+XX`` of the cells whose digit rows are
    ``digits`` (as in :func:`_float_cells`) and exponents ``e``."""
    chars, _, _ = _digit_tables()
    body = np.empty((_BODY, e.size), np.uint8)
    body[0] = digits[5]
    body[1] = ord(".")
    body[2:18] = digits[6:22]
    body[:18] *= _J[:18] <= np.where(last > 4, last - 3, 0)
    body[18] = ord("e")
    body[19] = np.where(e < 0, ord("-"), ord("+"))
    magnitude = np.abs(e)
    for j in range(1, 4):
        np.take(chars[j], magnitude, out=body[19 + j])
    body[20] *= magnitude >= 100
    return body


def _array_lines(rows: np.ndarray) -> list[bytes]:
    """The lines ``i,%.17g,...,%.17g\\n`` of :func:`write_csv`'s table,
    in blocks."""
    rows = np.asarray(rows, np.float64)
    if not np.isfinite(rows).all():
        raise ValueError("refusing to serialize non-finite float")
    n, c = rows.shape
    width = len(str(max(n - 1, 0)))  # of the id column
    chars, _, _ = _digit_tables()
    per_block = max(1, _FMT_BLOCK // max(c, 1))
    blocks = []
    for r0 in range(0, n, per_block):
        r1 = min(n, r0 + per_block)
        ids = np.arange(r0, r1)
        line = np.empty((ids.size, width + 1 + _CELL * c), np.uint8)
        slots = np.empty((width + 1, ids.size), np.uint8)
        for q in range(0, width, 4):
            group = ids // 10**q % 10000
            for k in range(max(0, q + 4 - width), 4):
                np.take(chars[k], group, out=slots[width - q - 4 + k])
        for p in range(1, width):
            slots[width - 1 - p] *= ids >= 10**p
        slots[width] = ord("," if c else "\n")
        line[:, : width + 1] = slots.T
        if c:
            cells = np.empty((_CELL, c, ids.size), np.uint8)
            _float_cells(rows[r0:r1].T.ravel(), cells.reshape(_CELL, -1))
            cells[-1] = ord(",")
            cells[-1, -1] = ord("\n")
            line[:, width + 1 :].reshape(ids.size, c, _CELL)[...] = cells.transpose(
                2, 1, 0
            )
        flat = line.reshape(-1)
        blocks.append(np.compress(flat != 0, flat).tobytes())
    return blocks


def read_csv(path, width: int, data: bytes | None = None):
    """Read a comma-separated table as :func:`write_csv` writes it; returns
    ``(header, rows)``. ``data``, when given, is the file's bytes, already
    read.

    The table must have ``width`` cells in the header and in every row, at
    least one row, ids 0..n-1 in order, and finite numbers as ``float``
    reads them. ``rows`` is the ``(n, width - 1)`` float64 matrix after the
    ids, parsed in one NumPy call.
    """
    if data is None:
        data = read_bytes(path)
    lines = _decode(path, data).splitlines()
    if not lines:
        raise MalformedFile(f"{path}: empty file")
    header = lines[0].split(",")
    lines = list(filter(None, lines[1:]))
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
