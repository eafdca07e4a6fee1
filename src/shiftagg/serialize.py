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
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ConfigInvalid, IoFailure, MalformedFile, MissingFile

__all__ = [
    "fmt_float",
    "dumps_canonical",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
    "aligned_table",
    "config_to_dict",
    "config_from_dict",
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


def write_json(path, obj: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps_canonical(obj))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise MissingFile(f"missing JSON file {path}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path} is not valid JSON: {exc}") from exc


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a comma-separated table; floats at 17 significant digits."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                cells = []
                for v in row:
                    if isinstance(v, (float, np.floating)):
                        cells.append(fmt_float(float(v)))
                    else:
                        cells.append(str(v))
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Read a comma-separated table; returns (header, rows of raw strings)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise MalformedFile(f"{path}: empty file")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line != ""]
    return header, rows


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


# --- config dataclasses <-> JSON objects ------------------------------------


def config_to_dict(cfg) -> dict:
    """JSON object of a config dataclass, keys in field order; a field's
    metadata may rename its key with ``json_key``."""
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if dataclasses.is_dataclass(v):
            v = config_to_dict(v)
        out[f.metadata.get("json_key", f.name)] = list(v) if isinstance(v, tuple) else v
    return out


def _decode(tp, value, path: str):
    if type(None) in typing.get_args(tp):
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if dataclasses.is_dataclass(tp):
        return config_from_dict(tp, value, path)
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        return tuple(_decode(typing.get_args(tp)[0], v, path) for v in value)
    if number and (tp is float or tp is int and float(value).is_integer()):
        return tp(value)
    if tp is str and isinstance(value, str):
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
        f.name: _decode(types[f.name], doc[k], prefix + k)
        for k, f in fields.items()
        if k in doc
    }
    return cls(**kwargs)
