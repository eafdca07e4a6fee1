"""Dataset containers and their on-disk formats.

A *prediction bundle* holds everything the aggregation pipeline consumes:
the labeled source sample, the (optionally labeled) target sample, and the
prediction matrices of ``m`` trained models on both samples. Bundles live
in a directory of CSV files plus a ``manifest.json``; all numeric text uses
17 significant digits so that write -> load reproduces every double exactly.
An optional ``arrays.npz`` beside them holds the numbers of every CSV, as
one matrix per sample and the sha256 of each CSV's bytes, so that a load
need not parse the text of a CSV whose bytes still match.

An *embedding dump* is a single JSON document holding per-layer
representation vectors for two domains, plus an optional explicit pairing
of semantically equivalent samples.

All containers are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads. Construction
validates every invariant; a violating file raises a typed error and never
yields a partially built value.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyLayer,
    IoFailure,
    MalformedFile,
    NonFiniteValue,
)
from .serialize import decode_object, npz_writer, read_bytes, read_csv, read_json
from .serialize import write_csv, write_json

__all__ = [
    "SourceDataset",
    "TargetDataset",
    "PredictionBundle",
    "LayerEmbeddings",
    "LayerEmbeddingSet",
    "load_bundle",
    "write_bundle",
    "load_embeddings",
    "write_embeddings",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def as_label_matrix(arr) -> np.ndarray:
    """Coerce labels to (n, d2); a 1-D vector means n samples with d2 = 1."""
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim == 1:
        out = out[:, None]
    return out


def _fields_equal(a, b) -> bool:
    """Field-wise equality of two containers of one class: arrays compare
    by value with ``np.array_equal``, and ``None`` equals only ``None``."""
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def _check_matrix(arr: np.ndarray, what: str) -> None:
    if arr.ndim != 2:
        raise DimensionMismatch(f"{what}: expected a 2-D array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"{what}: empty axis in shape {arr.shape}")
    if not np.isfinite(arr).all():
        row = int(np.argwhere(~np.isfinite(arr).all(axis=1))[0][0])
        raise NonFiniteValue(f"{what}: non-finite value at row {row}")


@dataclass(frozen=True, eq=False)
class SourceDataset:
    """Labeled sample drawn from the source distribution.

    ``labels`` is ``(n_s, d2)``; ``features`` is ``(n_s, d1)`` or ``None``
    (features are only needed when a density ratio has to be fitted or
    evaluated, never by the aggregation core itself).
    """

    labels: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        labels = as_label_matrix(self.labels)
        _check_matrix(labels, "source labels")
        object.__setattr__(self, "labels", _freeze(labels))
        if self.features is not None:
            feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
            _check_matrix(feats, "source features")
            if feats.shape[0] != labels.shape[0]:
                raise DimensionMismatch(
                    f"source features have {feats.shape[0]} rows but labels have "
                    f"{labels.shape[0]}"
                )
            object.__setattr__(self, "features", _freeze(feats))

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def label_dim(self) -> int:
        return self.labels.shape[1]

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class TargetDataset:
    """Sample drawn from the target distribution.

    Target labels are never available to the method itself; when present
    they are *oracle* labels carried only so a benchmark can compute true
    target risks, and they are stored under a distinct field
    (``oracle_labels``) to keep that role unmistakable.
    """

    features: np.ndarray | None = None
    oracle_labels: np.ndarray | None = None
    n_samples_hint: int | None = None

    def __post_init__(self):
        n = None
        if self.features is not None:
            feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
            _check_matrix(feats, "target features")
            object.__setattr__(self, "features", _freeze(feats))
            n = feats.shape[0]
        if self.oracle_labels is not None:
            labels = as_label_matrix(self.oracle_labels)
            _check_matrix(labels, "target oracle labels")
            if n is not None and labels.shape[0] != n:
                raise DimensionMismatch(
                    f"target oracle labels have {labels.shape[0]} rows but features "
                    f"have {n}"
                )
            object.__setattr__(self, "oracle_labels", _freeze(labels))
            n = labels.shape[0] if n is None else n
        if n is None:
            n = self.n_samples_hint
            if n is None or n < 1:
                raise DimensionMismatch(
                    "target sample count unknown: provide features, oracle labels, "
                    "or a positive n_samples_hint"
                )
        object.__setattr__(self, "n_samples_hint", int(n))

    @property
    def n_samples(self) -> int:
        return int(self.n_samples_hint)

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class PredictionBundle:
    """Predictions of ``m`` trained models on the source and target samples.

    ``source_preds`` is ``(m, n_s, d2)`` and ``target_preds`` is
    ``(m, n_t, d2)``, aligned with ``model_names``.

    The arrays are not copied when they are already contiguous float64:
    the caller's own arrays (here and in the datasets) are made read-only
    in place. Quantities that depend on the bundle alone are computed once
    per bundle object, each on its first request, and kept on it: the
    target Gram matrix ``G``, the oracle moments (both through
    ``aggregation.target_moments``), and the per-model true target risks and
    plain source risks that selection and the comparison table read. So
    re-enabling writes on such an array and mutating it is unsupported.
    """

    model_names: tuple[str, ...]
    source_preds: np.ndarray
    target_preds: np.ndarray
    source: SourceDataset
    target: TargetDataset
    provenance: str = ""

    def __post_init__(self):
        names = tuple(str(n) for n in self.model_names)
        if len(names) < 1:
            raise DimensionMismatch("bundle needs at least one model")
        if len(set(names)) != len(names):
            raise DimensionMismatch("model names must be unique")
        for n in names:
            if not _NAME_RE.match(n):
                raise DimensionMismatch(
                    f"model name {n!r} is not filesystem-safe ([A-Za-z0-9._-]+)"
                )
        object.__setattr__(self, "model_names", names)

        if (
            self.source.features is not None
            and self.target.features is not None
            and self.source.features.shape[1] != self.target.features.shape[1]
        ):
            raise DimensionMismatch(
                f"source features have {self.source.features.shape[1]} columns "
                f"but target features have {self.target.features.shape[1]}"
            )
        sp = np.asarray(self.source_preds, dtype=np.float64)
        tp = np.asarray(self.target_preds, dtype=np.float64)
        m = len(names)
        d2 = self.source.label_dim
        if sp.shape != (m, self.source.n_samples, d2):
            raise DimensionMismatch(
                f"source predictions have shape {sp.shape}, expected "
                f"({m}, {self.source.n_samples}, {d2})"
            )
        if tp.shape != (m, self.target.n_samples, d2):
            raise DimensionMismatch(
                f"target predictions have shape {tp.shape}, expected "
                f"({m}, {self.target.n_samples}, {d2})"
            )
        for what, arr in (("source predictions", sp), ("target predictions", tp)):
            if not np.isfinite(arr).all():
                k, row = np.argwhere(~np.isfinite(arr).all(axis=2))[0]
                raise NonFiniteValue(
                    f"{what}: non-finite value for model {names[int(k)]!r} "
                    f"at row {int(row)}"
                )
        object.__setattr__(self, "source_preds", _freeze(sp))
        object.__setattr__(self, "target_preds", _freeze(tp))

    @property
    def model_count(self) -> int:
        return len(self.model_names)

    @property
    def label_dim(self) -> int:
        return self.source.label_dim

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class LayerEmbeddings:
    """Representation vectors of both domains at one layer."""

    layer_index: int
    source_vecs: np.ndarray  # (h_p, d_l)
    target_vecs: np.ndarray  # (h_q, d_l)

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.source_vecs, dtype=np.float64))
        q = np.atleast_2d(np.asarray(self.target_vecs, dtype=np.float64))
        if p.shape[0] < 1 or q.shape[0] < 1:
            raise EmptyLayer(f"layer {self.layer_index}: empty vector set")
        _check_matrix(p, f"layer {self.layer_index} source vectors")
        _check_matrix(q, f"layer {self.layer_index} target vectors")
        if p.shape[1] != q.shape[1]:
            raise DimensionMismatch(
                f"layer {self.layer_index}: source width {p.shape[1]} != target "
                f"width {q.shape[1]}"
            )
        object.__setattr__(self, "layer_index", int(self.layer_index))
        object.__setattr__(self, "source_vecs", _freeze(p))
        object.__setattr__(self, "target_vecs", _freeze(q))

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class LayerEmbeddingSet:
    """Per-layer representations of two domains, sorted by layer index.

    When ``pairing`` is present, entry ``(i, j)`` declares source sample
    ``i`` semantically equivalent to target sample ``j``; indices apply to
    every layer, so all layers must share the same sample counts.
    """

    layers: tuple[LayerEmbeddings, ...]
    pairing: tuple[tuple[int, int], ...] | None = None
    provenance: str = ""

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise EmptyLayer("embedding set holds no layers")
        layers = tuple(sorted(layers, key=lambda L: L.layer_index))
        idx = [L.layer_index for L in layers]
        if len(set(idx)) != len(idx):
            raise DimensionMismatch(f"duplicate layer indices {idx}")
        h_p = layers[0].source_vecs.shape[0]
        h_q = layers[0].target_vecs.shape[0]
        for L in layers[1:]:
            if L.source_vecs.shape[0] != h_p or L.target_vecs.shape[0] != h_q:
                raise DimensionMismatch(
                    f"layer {L.layer_index} sample counts "
                    f"({L.source_vecs.shape[0]}, {L.target_vecs.shape[0]}) differ "
                    f"from layer {layers[0].layer_index} ({h_p}, {h_q})"
                )
        object.__setattr__(self, "layers", layers)
        if self.pairing is not None:
            pairs = tuple((int(i), int(j)) for i, j in self.pairing)
            for i, j in pairs:
                if not (0 <= i < h_p) or not (0 <= j < h_q):
                    raise MalformedFile(
                        f"pairing ({i}, {j}) out of range for sample counts "
                        f"({h_p}, {h_q})"
                    )
            object.__setattr__(self, "pairing", pairs)

    @property
    def layer_indices(self) -> tuple[int, ...]:
        return tuple(L.layer_index for L in self.layers)

    __eq__ = _fields_equal


# --- bundle directory format ----------------------------------------------
#
# manifest.json  {"model_names": [...], "d1": int|null, "d2": int,
#                 "has_source_features": bool, "has_target_features": bool,
#                 "has_target_labels": bool, "provenance": str}
# source.csv     id,x_1..x_d1,y_1..y_d2      (x columns optional)
# target.csv     id,x_1..x_d1[,y_1..y_d2]    (both optional)
# model_<name>_source.csv / model_<name>_target.csv   id,f_1..f_d2
# arrays.npz     (optional, derived) "source": the float64 columns after the
#                id of source.csv, then of each model_<name>_source.csv in
#                manifest order; "target": the same for the target side;
#                "sha256": the raw sha256 of each CSV's bytes, (k, 32) uint8,
#                in the order of _csvs
# Every CSV's id column runs 0..n-1 in order, and its header is exactly the
# one above; load_bundle rejects any other.

_MANIFEST_KEYS = {
    "model_names": tuple[str, ...],
    "d1": int | None,
    "d2": int,
    "has_source_features": bool,
    "has_target_features": bool,
    "has_target_labels": bool,
    "provenance": str,
}
_SIDECAR = "arrays.npz"


def _header(*blocks: tuple[str, int]) -> list[str]:
    """A bundle CSV's header: ``id``, then ``<prefix>_1..<prefix>_<k>`` for
    each ``(prefix, k)`` of ``blocks``."""
    return ["id"] + [f"{prefix}_{j + 1}" for prefix, k in blocks for j in range(k)]


def _csvs(manifest: dict) -> list[tuple[str, str, list[str], slice]]:
    """``(file name, side, header, columns)`` of each CSV of the bundle
    ``manifest`` describes, in the order ``arrays.npz`` holds them
    (``source.csv``, ``target.csv``, then each model's source and target
    predictions); ``columns`` is its slice of its side's stored matrix."""
    d1, d2 = manifest["d1"], manifest["d2"]
    n_sx = d1 if manifest["has_source_features"] else 0
    n_tx = d1 if manifest["has_target_features"] else 0
    n_ty = d2 if manifest["has_target_labels"] else 0
    specs = [
        ("source.csv", "source", _header(("x", n_sx), ("y", d2))),
        ("target.csv", "target", _header(("x", n_tx), ("y", n_ty))),
    ] + [
        (f"model_{name}_{side}.csv", side, _header(("f", d2)))
        for name in manifest["model_names"]
        for side in ("source", "target")
    ]
    csvs, start = [], {"source": 0, "target": 0}
    for name, side, header in specs:
        cols = slice(start[side], start[side] + len(header) - 1)
        start[side] = cols.stop
        csvs.append((name, side, header, cols))
    return csvs


def write_bundle(bundle: PredictionBundle, path) -> None:
    """Write a bundle directory; ``load_bundle`` reproduces it exactly.

    Beside the CSVs goes ``arrays.npz``, which holds their matrices and the
    sha256 of each one's bytes, so that a load need not parse the text.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    src, tgt = bundle.source, bundle.target
    d1 = None if src.features is None else src.features.shape[1]
    if d1 is None and tgt.features is not None:
        d1 = tgt.features.shape[1]
    manifest = {
        "model_names": list(bundle.model_names),
        "d1": d1,
        "d2": bundle.label_dim,
        "has_source_features": src.features is not None,
        "has_target_features": tgt.features is not None,
        "has_target_labels": tgt.oracle_labels is not None,
        "provenance": bundle.provenance,
    }
    write_json(os.path.join(path, "manifest.json"), manifest)

    blocks = {
        "source": [src.features, src.labels, *bundle.source_preds],
        "target": [tgt.features, tgt.oracle_labels, *bundle.target_preds],
    }
    sides = {k: np.hstack([a for a in b if a is not None]) for k, b in blocks.items()}
    digests = []
    for name, side, header, cols in _csvs(manifest):
        data = write_csv(os.path.join(path, name), header, sides[side][:, cols])
        digests.append(hashlib.sha256(data).digest())
    with npz_writer(os.path.join(path, _SIDECAR)) as add:
        for side, matrix in sides.items():
            add(side, matrix)
        add("sha256", np.frombuffer(b"".join(digests), np.uint8).reshape(-1, 32))


def _read_sidecar(path, csvs) -> dict[str, tuple[bytes, np.ndarray]]:
    """``{CSV name: (its stored sha256, its stored matrix)}`` from
    ``arrays.npz`` in ``path``, for the ``csvs`` of :func:`_csvs`; ``{}``
    (the file is a derived copy that the CSVs overrule) when the file is
    unreadable or is not exactly ``source`` and ``target``, float64
    matrices with at least one row and the widths ``csvs`` imply, and
    ``sha256``, a ``(k, 32)`` uint8 table for the ``k`` CSVs."""
    widths = {side: cols.stop for _, side, _, cols in csvs}  # the last CSV's
    try:
        with np.load(os.path.join(path, _SIDECAR), allow_pickle=False) as npz:
            if sorted(npz.files) != ["sha256", "source", "target"]:
                return {}
            stored = {key: npz[key] for key in npz.files}
        digests = stored.pop("sha256")
        fits = digests.dtype == np.uint8 and digests.shape == (len(csvs), 32)
        fits = fits and all(
            arr.dtype == np.float64 and arr.ndim == 2 and len(arr) >= 1
            and arr.shape[1] == widths[side]
            for side, arr in stored.items()
        )
    except Exception:  # whatever the fault, the CSVs are parsed instead
        return {}
    return {
        name: (digest.tobytes(), stored[side][:, cols])
        for (name, side, _, cols), digest in zip(csvs, digests)
    } if fits else {}


def _check_header(path, header: list[str], expected: list[str]) -> None:
    """Raise :class:`MalformedFile` at the first cell of ``header`` (as long
    as ``expected``) that differs from ``expected``."""
    for j, (got, want) in enumerate(zip(header, expected)):
        if got != want:
            raise MalformedFile(
                f"{path}: header column {j + 1} is {got!r}, expected {want!r}"
            )


def load_bundle(path) -> PredictionBundle:
    """Load and fully validate a bundle directory.

    Each CSV is read once. Where ``arrays.npz`` is valid, stores the sha256
    of the CSV's bytes and the file starts with the header the manifest
    implies, the CSV's columns of the stored matrix stand in for parsing
    the text; otherwise the text is parsed and its header checked. Every
    check after the parse runs either way.
    """
    where = os.path.join(path, "manifest.json")
    manifest = read_json(where)
    manifest = decode_object(_MANIFEST_KEYS, manifest, where, {"provenance": ""})
    names, d1, d2 = manifest["model_names"], manifest["d1"], manifest["d2"]
    has_sx = manifest["has_source_features"]
    has_tx = manifest["has_target_features"]
    has_ty = manifest["has_target_labels"]
    if (has_sx or has_tx) and d1 is None:
        raise MalformedFile(f"{where}: features declared but d1 missing")
    if d2 < 1 or (has_sx or has_tx) and d1 < 1:
        raise MalformedFile(f"{where}: d1 and d2 must be positive")
    n_sx = d1 if has_sx else 0
    n_tx = d1 if has_tx else 0
    csvs = _csvs(manifest)
    stored = _read_sidecar(path, csvs)

    def table(csv) -> np.ndarray:
        name, _, header, _ = csv
        fpath = os.path.join(path, name)
        data = read_bytes(fpath)
        if (
            name in stored
            and data.startswith((",".join(header) + "\n").encode())
            and hashlib.sha256(data).digest() == stored[name][0]
        ):
            return stored[name][1]
        got, arr = read_csv(fpath, len(header), data)
        _check_header(fpath, got, header)
        return arr

    src, tgt = table(csvs[0]), table(csvs[1])
    source = SourceDataset(
        labels=src[:, n_sx:], features=src[:, :n_sx] if has_sx else None
    )
    target = TargetDataset(
        features=tgt[:, :n_tx] if has_tx else None,
        oracle_labels=tgt[:, n_tx:] if has_ty else None,
        n_samples_hint=len(tgt),
    )
    preds = {side: np.empty((len(names), len(t), d2))
             for side, t in (("source", src), ("target", tgt))}
    for i, csv in enumerate(csvs[2:]):  # each model's source, then target file
        arr, dest = table(csv), preds[csv[1]]
        if len(arr) != dest.shape[1]:
            raise DimensionMismatch(
                f"{os.path.join(path, csv[0])}: {len(arr)} rows, expected "
                f"{dest.shape[1]} to match {csv[1]}.csv"
            )
        dest[i // 2] = arr

    return PredictionBundle(
        model_names=tuple(names),
        source_preds=preds["source"],
        target_preds=preds["target"],
        source=source,
        target=target,
        provenance=manifest["provenance"],
    )


# --- embedding dump format --------------------------------------------------
#
# {"layers": [{"l": 1, "p": [[...]], "q": [[...]]}, ...],
#  "pairing": [[i, j], ...],          (optional)
#  "provenance": "..."}               (optional)


_DUMP_KEYS = {
    "layers": tuple[dict, ...],
    "pairing": tuple[tuple[int, int], ...] | None,
    "provenance": str,
}
_LAYER_KEYS = {"l": int, "p": np.ndarray, "q": np.ndarray}


def load_embeddings(path) -> LayerEmbeddingSet:
    """Load an embedding dump; layers come back sorted by layer index."""
    doc = decode_object(
        _DUMP_KEYS, read_json(path), str(path), {"pairing": None, "provenance": ""}
    )
    layers = []
    for i, entry in enumerate(doc["layers"]):
        layer = decode_object(_LAYER_KEYS, entry, f"{path}: layer entry {i}")
        layers.append(LayerEmbeddings(layer["l"], layer["p"], layer["q"]))
    return LayerEmbeddingSet(
        layers=tuple(layers), pairing=doc["pairing"], provenance=doc["provenance"]
    )


def write_embeddings(emb: LayerEmbeddingSet, path) -> None:
    doc: dict = {
        "layers": [
            {"l": L.layer_index, "p": L.source_vecs, "q": L.target_vecs}
            for L in emb.layers
        ]
    }
    if emb.pairing is not None:
        doc["pairing"] = [[i, j] for i, j in emb.pairing]
    if emb.provenance:
        doc["provenance"] = emb.provenance
    write_json(path, doc)
