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
import hashlib
import itertools
import json
import math
import numbers
import reprlib
import typing
import zipfile
from typing import Any, Iterator, Sequence

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
    "write_csvs",
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
    ``id`` column 0..n-1 (``%d``); returns the sha256 digest of the bytes
    written.

    ``rows`` is taken as float64, and every value is written at 17
    significant digits, byte for byte as ``"%.17g" % x`` writes it (exact
    round trip; a non-finite value raises ``ValueError``). This is
    :func:`write_csvs` with one table.
    """
    return write_csvs(rows, [(path, header)])[0]


def write_csvs(rows, tables: Sequence[tuple[Any, Sequence[str]]]) -> list[bytes]:
    """Write the columns of the 2-D array ``rows`` as several tables, each
    as :func:`write_csv` writes it; returns the sha256 digest of each
    file's bytes.

    ``tables`` holds ``(path, header)`` pairs. Each table takes, in order,
    as many columns of ``rows`` as its header names after ``id``; together
    they take them all. The tables are written in groups of at most
    ``_CSV_GROUP``, of sizes as equal as may be, each group's files open
    together. A group's cells are formatted together, a block of rows at a
    time (:func:`_csv_blocks`), and each block's lines are written and
    hashed before the next block is made, so the text in memory is one
    block's.
    """
    rows = np.asarray(rows, np.float64)
    if not np.isfinite(rows).all():
        raise ValueError("refusing to serialize non-finite float")
    widths = [len(header) - 1 for _, header in tables]
    if rows.ndim != 2 or sum(widths) != rows.shape[1]:
        raise ValueError(
            f"tables of {sum(widths)} columns cannot split rows of shape {rows.shape}"
        )
    digests, c0 = [], 0
    groups = -(-len(tables) // _CSV_GROUP)
    for g in range(groups):
        t0, t1 = g * len(tables) // groups, (g + 1) * len(tables) // groups
        c1 = c0 + sum(widths[t0:t1])
        digests += _write_group(rows[:, c0:c1], tables[t0:t1], widths[t0:t1])
        c0 = c1
    return digests


def _write_group(rows, tables, widths) -> list[bytes]:
    """:func:`write_csvs` for one group of tables, whose files it holds
    open together."""
    heads = [(",".join(header) + "\n").encode("utf-8") for _, header in tables]
    hashes = [hashlib.sha256() for _ in tables]
    path = None
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path, _ in tables:
                files.append(stack.enter_context(open(path, "wb")))
            for chunks in itertools.chain([heads], _csv_blocks(rows, widths)):
                for (path, _), fh, digest, chunk in zip(tables, files, hashes, chunks):
                    fh.write(chunk)
                    digest.update(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot write {exc.filename or path}: {exc}") from exc
    return [digest.digest() for digest in hashes]


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
# (0 where the cell has no character), by uint8 arithmetic on whole rows,
# in blocks of about _FMT_BLOCK cells to bound the temporaries. A block
# holds the cells of a run of rows of every table written together; each
# table's lines are transposed to row order once and compacted by deleting
# their zero bytes. At 8192 cells a block's temporaries peak near 1.3 MB;
# at 16384 (2.5 MB) glibc returned them to the system after each block of
# a fresh process and faulted them in again, about 2400 pages per m=20,
# n=5000 bundle write. The blocks of one call split its rows evenly.
#
# A block makes one write and one sha256 update per table, so a group of
# many narrow tables makes many small ones: 16 tables a group bounds that
# count and the files held open (every model of a bundle has two CSVs, so
# one group per side would reach the process's open-file limit). On a 2-CPU x86-64 machine, the CPU time
# of an m=300, n=10**4 bundle write was about 1.34 s at 8 to 16 tables a
# group and 1.67 s with each side's 301 tables in one group; at m=20,
# n=5000 it was about 57 ms from 4 tables a group up.

_FMT_BLOCK = 1 << 13
_CSV_GROUP = 16
_FMT_RANGE = (1e-180, 1e180)
_FMT_TIE = 2.0**-24
_POW_MIN, _POW_MAX = -170, 200  # the 10**k table: k = 16 - e, e within one of the range
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for float64
# Slots of a float cell: sign, body, separator. The body holds fixed
# notation ("0.000" + 17 digits at most) or d.dddd (18) + "e-XXX" (5).
_BODY = 23
_CELL = _BODY + 2
_J = np.arange(_BODY, dtype=np.uint8)[:, None]
# Index in "0000" + the 17 digits of each digit of the significand.
_DIGIT_AT = np.arange(4, 21, dtype=np.uint8)[:, None]


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    big = a * _SPLIT
    high = big - a
    np.subtract(big, high, out=high)
    return high, np.subtract(a, high, out=big)


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
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For v in 0..9999: its four ASCII digits as a (4, 10000) array and
    packed in a uint32."""
    v = np.arange(10000)
    chars = (v // np.array([[1000], [100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
    packed = np.ascontiguousarray(chars.T).view(np.uint32).ravel()
    return _frozen(chars, packed)


def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """``tables``, read-only: every caller of a cached table shares it."""
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor (int64) and fraction of ``a * 10**(16 - e)``, to within 1e-14."""
    # In place, but rounded step by step as
    # ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2 + a * lo.
    k = 16 - _POW_MIN - e
    hi, hi1, hi2, lo = _pow10()
    a1, a2 = _veltkamp(a)
    p = a * hi[k]
    h1, h2 = hi1[k], hi2[k]
    rest = a1 * h1
    rest -= p
    term = np.multiply(a1, h2, out=a1)
    rest += term
    rest += np.multiply(a2, h1, out=h1)
    rest += np.multiply(a2, h2, out=h2)
    rest += np.multiply(a, lo[k], out=term)
    floor = np.floor(rest, out=a2)
    rest -= floor
    F = p.astype(np.int64)
    F += floor.astype(np.int64)
    return F, rest


def _float_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the sign and body slots of ``"%.17g" % v`` for each finite v of
    the 1-D ``x`` into ``out[:-1]`` (``out`` is ``(_CELL, x.size)``)."""
    n = x.size
    a = np.abs(x)
    zero = a == 0
    inside = (a >= _FMT_RANGE[0]) & (a <= _FMT_RANGE[1])
    a[~inside] = 1.0  # formatted as "1", then overwritten
    D, e, tie = _significand(a)
    digits = _digit_rows(D, zero)
    # The index in "0000" + D's digits of the last nonzero digit (0 for a
    # zero).
    nonzero = digits[5:22] != ord("0")
    last = np.max(np.multiply(nonzero, _DIGIT_AT, out=nonzero.view(np.uint8)), axis=0)

    # Fixed notation: the point after character ``point`` of that string,
    # the kept characters running from ``start`` to ``end`` of the body.
    fixed = (e >= -4) & (e <= 16)
    point = np.where(fixed, e + 4, 4).astype(np.uint8)
    start = np.minimum(point, 4)
    np.maximum(last, point, out=last)
    end = last + (last > point)
    # Slot j takes character j up to the point and j - 1 after it; in uint8
    # arithmetic, whose wrap-around cancels. One mask buffer serves both
    # masks.
    body = out[1 : 1 + _BODY]
    mask = np.less_equal(_J, point)
    np.subtract(digits[1:], digits[:-1], out=body)
    body *= mask
    body += digits[:-1]
    body.put((point.astype(np.intp) + 1) * n + np.arange(n), ord("."))
    np.subtract(_J, start, out=mask.view(np.uint8))
    # start <= j <= end, by wrap-around
    body *= np.less_equal(mask.view(np.uint8), end - start, out=mask)
    exp = np.flatnonzero(~fixed)
    if exp.size:
        body[:, exp] = _exp_body(digits[:, exp], e[exp], last[exp])
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    for i in np.flatnonzero(~(inside | zero) | tie):
        text = np.frombuffer(fmt_float(x[i]).encode(), np.uint8)
        out[:-1, i] = 0
        out[: text.size, i] = text


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each ``a`` in ``_FMT_RANGE``: the correctly rounded 17-digit
    significand D (int64), the decimal exponent e, and whether the
    fraction dropped lies within ``_FMT_TIE`` of one half."""
    e = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(a, e)
    redo = np.flatnonzero((F < 10**16) | (F >= 10**17))
    if redo.size:
        e[redo] += np.where(F[redo] < 10**16, -1, 1)
        F[redo], frac[redo] = _scaled(a[redo], e[redo])
    F += frac > 0.5
    carry = F == 10**17
    F[carry] = 10**16
    e += carry
    frac -= 0.5
    return F, e, np.abs(frac, out=frac) < _FMT_TIE


def _digit_rows(D: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Row i + 1 is character i of "0000" + the 17 digits of D (a zero
    where ``zero``); rows 0, 22 and 23 are padding (``(_BODY + 1, n)``)."""
    # D's last 16 digits are four groups of four, split in int32 halves of
    # eight.
    _, packed = _digit_tables()
    n = D.size
    digits = np.empty((_BODY + 1, n), np.uint8)
    digits[[0, 22, 23]] = 0
    digits[1:5] = ord("0")
    high = D // 10**8
    low = (D - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    lead = high // 10**8
    digits[5] = lead + ord("0")
    digits[5, zero] = ord("0")
    high -= lead * 10**8
    groups = np.empty((4, n), np.uint32)
    for q, half in ((0, high), (2, low)):
        top = half // 10**4
        np.take(packed, top, out=groups[q])
        np.take(packed, half - top * 10**4, out=groups[q + 1])
    digits[6:22].reshape(4, 4, n)[...] = (
        groups.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    )
    return digits


def _exp_body(digits: np.ndarray, e: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Body slots ``d.ddde+XX`` of the cells whose digit rows are
    ``digits`` (as in :func:`_float_cells`) and exponents ``e``."""
    chars, _ = _digit_tables()
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


def _id_slots(r0: int, r1: int, width: int) -> np.ndarray:
    """The ids r0..r1-1 as ``width`` uint8 characters each, right-aligned,
    0 before an id's first digit (``(r1 - r0, width)``)."""
    ids = np.arange(r0, r1)
    words = -(-width // 4)
    _, packed = _digit_tables()
    text = np.empty((ids.size, words), np.uint32)
    for q in range(words):
        np.take(packed, ids // 10 ** (4 * (words - 1 - q)) % 10000, out=text[:, q])
    slots = text.view(np.uint8)[:, 4 * words - width :]
    for p in range(1, width):
        slots[:, width - 1 - p] *= ids >= 10**p
    return slots


def _csv_blocks(rows: np.ndarray, widths: list[int]) -> Iterator[list[bytes]]:
    """Yield, for one block of rows after another, the lines
    ``i,%.17g,...,%.17g\\n`` of each table of :func:`write_csvs`; the
    tables' columns ``widths`` split the columns of ``rows``."""
    n, c = rows.shape
    width = len(str(max(n - 1, 0)))  # of the id column
    runs = [(w, len(list(same))) for w, same in itertools.groupby(widths)]
    blocks = max(1, -(-n * max(c, 1) // _FMT_BLOCK))
    per_block = max(1, -(-n // blocks))
    for r0 in range(0, n, per_block):
        r1 = min(n, r0 + per_block)
        ids = _id_slots(r0, r1, width)
        cells = np.empty((_CELL, c, r1 - r0), np.uint8)
        if c:
            _float_cells(rows[r0:r1].T.ravel(), cells.reshape(_CELL, -1))
        cells[-1] = ord(",")
        chunks, j = [], 0
        for w, count in runs:  # tables of w columns each
            lines = np.empty((count, r1 - r0, width + 1 + _CELL * w), np.uint8)
            lines[:, :, :width] = ids
            lines[:, :, width] = ord(",")
            lines[:, :, width + 1 :].reshape(count, r1 - r0, w, _CELL)[...] = (
                cells[:, j : j + count * w]
                .reshape(_CELL, count, w, r1 - r0)
                .transpose(1, 3, 2, 0)
            )
            lines[:, :, -1] = ord("\n")
            chunks += [table.tobytes().translate(None, b"\0") for table in lines]
            j += count * w
        yield chunks


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
