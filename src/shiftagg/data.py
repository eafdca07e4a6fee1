"""Dataset containers and their on-disk formats.

A *prediction bundle* holds everything the aggregation pipeline consumes:
the labeled source sample, the (optionally labeled) target sample, and the
prediction matrices of ``m`` trained models on both samples. Bundles live
in a directory of CSV files plus a ``manifest.json``; all numeric text uses
17 significant digits so that write -> load reproduces every double exactly.
An optional ``arrays.npz`` beside them holds each CSV's numbers, checked
against the sha256 of its bytes, so that a load need not parse the text.

An *embedding dump* is a single JSON document holding per-layer
representation vectors for two domains, plus an optional explicit pairing
of semantically equivalent samples.

All containers are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads. Construction
validates every invariant; a violating file raises a typed error and never
yields a partially built value.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import zipfile
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
# arrays.npz     (optional, derived) for each CSV <f>: "<f>", the float64
#                matrix after its id column, and "<f>.sha256", the hex
#                sha256 of the CSV's bytes as a 0-d fixed-width string
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
_DIGEST = ".sha256"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _header(*blocks: tuple[str, int]) -> list[str]:
    """A bundle CSV's header: ``id``, then ``<prefix>_1..<prefix>_<k>`` for
    each ``(prefix, k)`` of ``blocks``."""
    return ["id"] + [f"{prefix}_{j + 1}" for prefix, k in blocks for j in range(k)]


def write_bundle(bundle: PredictionBundle, path) -> None:
    """Write a bundle directory; ``load_bundle`` reproduces it exactly.

    Beside the CSVs goes ``arrays.npz``, which holds each CSV's matrix and
    the sha256 of its bytes, so that a load need not parse the text.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    d1 = None if bundle.source.features is None else bundle.source.features.shape[1]
    if d1 is None and bundle.target.features is not None:
        d1 = bundle.target.features.shape[1]
    manifest = {
        "model_names": list(bundle.model_names),
        "d1": d1,
        "d2": bundle.label_dim,
        "has_source_features": bundle.source.features is not None,
        "has_target_features": bundle.target.features is not None,
        "has_target_labels": bundle.target.oracle_labels is not None,
        "provenance": bundle.provenance,
    }
    write_json(os.path.join(path, "manifest.json"), manifest)

    src, tgt = bundle.source, bundle.target
    n_s, n_t = src.n_samples, tgt.n_samples
    with npz_writer(os.path.join(path, _SIDECAR)) as add:

        def table(name, n, *blocks):
            present = [(a, prefix) for a, prefix in blocks if a is not None]
            header = _header(*[(prefix, a.shape[1]) for a, prefix in present])
            values = np.hstack([np.empty((n, 0))] + [a for a, _ in present])
            data = write_csv(os.path.join(path, name), header, values)
            add(name, values)
            add(name + _DIGEST, np.array(_sha256(data)))

        table("source.csv", n_s, (src.features, "x"), (src.labels, "y"))
        table("target.csv", n_t, (tgt.features, "x"), (tgt.oracle_labels, "y"))
        for k, name in enumerate(bundle.model_names):
            table(f"model_{name}_source.csv", n_s, (bundle.source_preds[k], "f"))
            table(f"model_{name}_target.csv", n_t, (bundle.target_preds[k], "f"))


def _open_sidecar(path, names) -> zipfile.ZipFile | None:
    """``arrays.npz`` in ``path``, open, or None when it is absent or
    unreadable or its members are not exactly one matrix and one digest per
    CSV in ``names``. The file is a derived copy that the CSVs overrule, so
    such a file is ignored."""
    try:
        archive = zipfile.ZipFile(os.path.join(path, _SIDECAR))
    except Exception:  # whatever the fault, the CSVs are parsed instead
        return None
    members = {f"{name}{suffix}.npy" for name in names for suffix in ("", _DIGEST)}
    if set(archive.namelist()) == members:
        return archive
    archive.close()
    return None


def _stored_matrix(
    archive, name: str, data: bytes, header: list[str]
) -> np.ndarray | None:
    """The matrix ``archive`` holds for the CSV ``name`` whose bytes are
    ``data``, when ``data`` starts with the line ``header``, its stored
    digest is the sha256 of ``data`` and it is float64 with at least one row
    and ``len(header) - 1`` columns; else None."""
    if archive is None or not data.startswith((",".join(header) + "\n").encode()):
        return None

    def member(key):
        with archive.open(f"{key}.npy") as fh:
            return np.lib.format.read_array(fh, allow_pickle=False)

    try:
        digest = member(name + _DIGEST)
        if digest.shape != () or digest.item() != _sha256(data):
            return None
        arr = member(name)
    except Exception:  # a damaged member: the CSV is parsed instead
        return None
    fits = arr.dtype == np.float64 and arr.ndim == 2 and arr.shape[0] >= 1
    return arr if fits and arr.shape[1] == len(header) - 1 else None


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

    Each CSV is read once. Where ``arrays.npz`` holds its matrix under the
    sha256 of its bytes, at the width the manifest implies, and the file
    starts with the header the manifest implies, that matrix stands in for
    parsing the text; otherwise the text is parsed and its header checked.
    Every check after the parse runs either way.
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
    headers = {
        "source.csv": _header(("x", n_sx), ("y", d2)),
        "target.csv": _header(("x", n_tx), ("y", d2 if has_ty else 0)),
    }
    for name in names:
        for which in ("source", "target"):
            headers[f"model_{name}_{which}.csv"] = _header(("f", d2))

    with _open_sidecar(path, headers) or contextlib.nullcontext() as archive:

        def table(name) -> np.ndarray:
            fpath = os.path.join(path, name)
            data = read_bytes(fpath)
            arr = _stored_matrix(archive, name, data, headers[name])
            if arr is None:
                header, arr = read_csv(fpath, len(headers[name]), data)
                _check_header(fpath, header, headers[name])
            return arr

        src = table("source.csv")
        tgt = table("target.csv")
        n_s, n_t = len(src), len(tgt)
        source = SourceDataset(
            labels=src[:, n_sx:], features=src[:, :n_sx] if has_sx else None
        )
        target = TargetDataset(
            features=tgt[:, :n_tx] if has_tx else None,
            oracle_labels=tgt[:, n_tx:] if has_ty else None,
            n_samples_hint=n_t,
        )

        sp = np.empty((len(names), n_s, d2))
        tp = np.empty((len(names), n_t, d2))
        for k, name in enumerate(names):
            for which, n_rows, dest in (("source", n_s, sp), ("target", n_t, tp)):
                fname = f"model_{name}_{which}.csv"
                preds = table(fname)
                if len(preds) != n_rows:
                    raise DimensionMismatch(
                        f"{os.path.join(path, fname)}: {len(preds)} rows, expected "
                        f"{n_rows} to match {which}.csv"
                    )
                dest[k] = preds

    return PredictionBundle(
        model_names=tuple(names),
        source_preds=sp,
        target_preds=tp,
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
