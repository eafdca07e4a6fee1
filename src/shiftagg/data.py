"""Dataset containers and their on-disk formats.

A *prediction bundle* holds everything the aggregation pipeline consumes:
the labeled source sample, the (optionally labeled) target sample, and the
prediction matrices of ``m`` trained models on both samples. Bundles live
in a directory of CSV files plus a ``manifest.json``; all numeric text uses
17 significant digits so that write -> load reproduces every double exactly.

An *embedding dump* is a single JSON document holding per-layer
representation vectors for two domains, plus an optional explicit pairing
of semantically equivalent samples.

All containers are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads. Construction
validates every invariant; a violating file raises a typed error and never
yields a partially built value.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyLayer,
    IoFailure,
    MalformedFile,
    MissingFile,
    NonFiniteValue,
)
from .serialize import read_csv, read_json, write_csv, write_json

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SourceDataset):
            return NotImplemented
        return _opt_eq(self.features, other.features) and np.array_equal(
            self.labels, other.labels
        )


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

    @property
    def has_oracle_labels(self) -> bool:
        return self.oracle_labels is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TargetDataset):
            return NotImplemented
        return (
            self.n_samples == other.n_samples
            and _opt_eq(self.features, other.features)
            and _opt_eq(self.oracle_labels, other.oracle_labels)
        )


def _opt_eq(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PredictionBundle):
            return NotImplemented
        return (
            self.model_names == other.model_names
            and np.array_equal(self.source_preds, other.source_preds)
            and np.array_equal(self.target_preds, other.target_preds)
            and self.source == other.source
            and self.target == other.target
            and self.provenance == other.provenance
        )


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerEmbeddings):
            return NotImplemented
        return (
            self.layer_index == other.layer_index
            and np.array_equal(self.source_vecs, other.source_vecs)
            and np.array_equal(self.target_vecs, other.target_vecs)
        )


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerEmbeddingSet):
            return NotImplemented
        return (
            self.layers == other.layers
            and self.pairing == other.pairing
            and self.provenance == other.provenance
        )


# --- bundle directory format ----------------------------------------------
#
# manifest.json  {"model_names": [...], "d1": int|null, "d2": int,
#                 "has_source_features": bool, "has_target_features": bool,
#                 "has_target_labels": bool, "provenance": str}
# source.csv     id,x_1..x_d1,y_1..y_d2      (x columns optional)
# target.csv     id,x_1..x_d1[,y_1..y_d2]    (both optional)
# model_<name>_source.csv / model_<name>_target.csv   id,f_1..f_d2


def write_bundle(bundle: PredictionBundle, path) -> None:
    """Write a bundle directory; ``load_bundle`` reproduces it exactly."""
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

    def table(*blocks):
        cols = [b for b in blocks if b is not None]
        n = cols[0].shape[0] if cols else 0
        for i in range(n):
            yield [i] + [v for b in cols for v in b[i]]

    d2 = bundle.label_dim
    src_header = ["id"]
    if bundle.source.features is not None:
        src_header += [f"x_{j + 1}" for j in range(d1)]
    src_header += [f"y_{j + 1}" for j in range(d2)]
    write_csv(
        os.path.join(path, "source.csv"),
        src_header,
        table(bundle.source.features, bundle.source.labels),
    )

    tgt_header = ["id"]
    if bundle.target.features is not None:
        tgt_header += [f"x_{j + 1}" for j in range(bundle.target.features.shape[1])]
    if bundle.target.oracle_labels is not None:
        tgt_header += [f"y_{j + 1}" for j in range(d2)]
    tgt_rows = table(bundle.target.features, bundle.target.oracle_labels)
    if bundle.target.features is None and bundle.target.oracle_labels is None:
        tgt_rows = ([i] for i in range(bundle.target.n_samples))
    write_csv(os.path.join(path, "target.csv"), tgt_header, tgt_rows)

    pred_header = ["id"] + [f"f_{j + 1}" for j in range(d2)]
    for k, name in enumerate(bundle.model_names):
        write_csv(
            os.path.join(path, f"model_{name}_source.csv"),
            pred_header,
            table(bundle.source_preds[k]),
        )
        write_csv(
            os.path.join(path, f"model_{name}_target.csv"),
            pred_header,
            table(bundle.target_preds[k]),
        )


def _parse_numeric(path, rows, n_cols: int, offset: int) -> np.ndarray:
    out = np.empty((len(rows), n_cols), dtype=np.float64)
    for i, row in enumerate(rows):
        for j in range(n_cols):
            cell = row[offset + j]
            try:
                v = float(cell)
            except ValueError as exc:
                raise MalformedFile(
                    f"{path}: row {i}: cannot parse {cell!r} as a number"
                ) from exc
            if not np.isfinite(v):
                raise NonFiniteValue(f"{path}: non-finite value at row {i}")
            out[i, j] = v
    return out


def _load_table(path, expect_cols: int):
    header, rows = read_csv(path)
    if len(header) != expect_cols:
        raise DimensionMismatch(
            f"{path}: header has {len(header)} columns, expected {expect_cols}"
        )
    for i, row in enumerate(rows):
        if len(row) != expect_cols:
            raise DimensionMismatch(
                f"{path}: row {i} has {len(row)} cells, expected {expect_cols}"
            )
    return header, rows


def _require(path) -> str:
    if not os.path.isfile(path):
        raise MissingFile(f"missing required file {path}")
    return path


def load_bundle(path) -> PredictionBundle:
    """Load and fully validate a bundle directory."""
    manifest = read_json(_require(os.path.join(path, "manifest.json")))
    try:
        names = [str(n) for n in manifest["model_names"]]
        d1 = manifest["d1"]
        d2 = int(manifest["d2"])
        has_sx = bool(manifest["has_source_features"])
        has_tx = bool(manifest["has_target_features"])
        has_ty = bool(manifest["has_target_labels"])
        provenance = str(manifest.get("provenance", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}/manifest.json: {exc!r}") from exc
    if (has_sx or has_tx) and not isinstance(d1, int):
        raise MalformedFile(f"{path}/manifest.json: features declared but d1 missing")

    src_path = _require(os.path.join(path, "source.csv"))
    n_src_cols = 1 + (d1 if has_sx else 0) + d2
    _, src_rows = _load_table(src_path, n_src_cols)
    if not src_rows:
        raise DimensionMismatch(f"{src_path}: no data rows")
    src_x = _parse_numeric(src_path, src_rows, d1, 1) if has_sx else None
    src_y = _parse_numeric(src_path, src_rows, d2, 1 + (d1 if has_sx else 0))

    tgt_path = _require(os.path.join(path, "target.csv"))
    n_tgt_cols = 1 + (d1 if has_tx else 0) + (d2 if has_ty else 0)
    _, tgt_rows = _load_table(tgt_path, n_tgt_cols)
    if not tgt_rows:
        raise DimensionMismatch(f"{tgt_path}: no data rows")
    tgt_x = _parse_numeric(tgt_path, tgt_rows, d1, 1) if has_tx else None
    tgt_y = (
        _parse_numeric(tgt_path, tgt_rows, d2, 1 + (d1 if has_tx else 0))
        if has_ty
        else None
    )

    n_s, n_t = len(src_rows), len(tgt_rows)
    source = SourceDataset(labels=src_y, features=src_x)
    target = TargetDataset(features=tgt_x, oracle_labels=tgt_y, n_samples_hint=n_t)

    sp = np.empty((len(names), n_s, d2))
    tp = np.empty((len(names), n_t, d2))
    for k, name in enumerate(names):
        for which, n_rows, dest in (("source", n_s, sp), ("target", n_t, tp)):
            fpath = _require(os.path.join(path, f"model_{name}_{which}.csv"))
            _, rows = _load_table(fpath, 1 + d2)
            if len(rows) != n_rows:
                raise DimensionMismatch(
                    f"{fpath}: {len(rows)} rows, expected {n_rows} to match "
                    f"{which}.csv"
                )
            dest[k] = _parse_numeric(fpath, rows, d2, 1)

    return PredictionBundle(
        model_names=tuple(names),
        source_preds=sp,
        target_preds=tp,
        source=source,
        target=target,
        provenance=provenance,
    )


# --- embedding dump format --------------------------------------------------
#
# {"layers": [{"l": 1, "p": [[...]], "q": [[...]]}, ...],
#  "pairing": [[i, j], ...],          (optional)
#  "provenance": "..."}               (optional)


def load_embeddings(path) -> LayerEmbeddingSet:
    """Load an embedding dump; layers come back sorted by layer index."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "layers" not in doc:
        raise MalformedFile(f"{path}: expected an object with a 'layers' list")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise MalformedFile(f"{path}: 'layers' must be a non-empty list")
    layers = []
    for entry in raw_layers:
        try:
            l = int(entry["l"])
            p = entry["p"]
            q = entry["q"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFile(f"{path}: bad layer entry: {exc!r}") from exc
        for side, block in (("p", p), ("q", q)):
            if not isinstance(block, list) or not block:
                raise MalformedFile(f"{path}: layer {l}: '{side}' must be non-empty")
            widths = {len(r) for r in block}
            if len(widths) != 1:
                raise DimensionMismatch(
                    f"{path}: layer {l}: ragged '{side}' rows (widths {sorted(widths)})"
                )
        try:
            layers.append(
                LayerEmbeddings(
                    layer_index=l,
                    source_vecs=np.asarray(p, dtype=np.float64),
                    target_vecs=np.asarray(q, dtype=np.float64),
                )
            )
        except (TypeError, ValueError) as exc:
            raise MalformedFile(f"{path}: layer {l}: {exc!r}") from exc
    pairing = None
    if doc.get("pairing") is not None:
        try:
            pairing = tuple((int(i), int(j)) for i, j in doc["pairing"])
        except (TypeError, ValueError) as exc:
            raise MalformedFile(f"{path}: bad pairing entry: {exc!r}") from exc
    return LayerEmbeddingSet(
        layers=tuple(layers),
        pairing=pairing,
        provenance=str(doc.get("provenance", "")),
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
