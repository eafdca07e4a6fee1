"""Whole-table CSV codec against the per-cell writer and parser it replaced,
and the ``arrays.npz`` copy that lets a load skip the parse.

``reference_write_csv`` and ``reference_parse`` are the pre-codec
``serialize.write_csv`` and ``data._parse_numeric``, kept verbatim as the
test reference: the codec must write the same bytes, load the same bits,
and reject the same cells with the same error types.
"""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftagg import data
from shiftagg.data import (
    PredictionBundle,
    SourceDataset,
    TargetDataset,
    load_bundle,
    write_bundle,
)
from shiftagg.errors import (
    DimensionMismatch,
    MalformedFile,
    NonFiniteValue,
    ShiftAggError,
)
from shiftagg.serialize import fmt_float, npz_writer, read_csv, write_csv
from shiftagg.synth import SynthTaskConfig, generate_task

from conftest import build_bundle


def reference_write_csv(path, header, rows) -> None:
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


def reference_parse(path, rows, n_cols: int, offset: int) -> np.ndarray:
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


def reference_bundle_tables(bundle):
    """``(file name, header, rows)`` of each CSV the per-cell writer wrote."""

    def table(*blocks):
        cols = [b for b in blocks if b is not None]
        n = cols[0].shape[0] if cols else 0
        for i in range(n):
            yield [i] + [v for b in cols for v in b[i]]

    src, tgt = bundle.source, bundle.target
    d2 = bundle.label_dim
    src_header = ["id"]
    if src.features is not None:
        src_header += [f"x_{j + 1}" for j in range(src.features.shape[1])]
    src_header += [f"y_{j + 1}" for j in range(d2)]
    yield "source.csv", src_header, table(src.features, src.labels)
    tgt_header = ["id"]
    if tgt.features is not None:
        tgt_header += [f"x_{j + 1}" for j in range(tgt.features.shape[1])]
    if tgt.oracle_labels is not None:
        tgt_header += [f"y_{j + 1}" for j in range(d2)]
    tgt_rows = table(tgt.features, tgt.oracle_labels)
    if tgt.features is None and tgt.oracle_labels is None:
        tgt_rows = ([i] for i in range(tgt.n_samples))
    yield "target.csv", tgt_header, tgt_rows
    pred_header = ["id"] + [f"f_{j + 1}" for j in range(d2)]
    for k, name in enumerate(bundle.model_names):
        yield f"model_{name}_source.csv", pred_header, table(bundle.source_preds[k])
        yield f"model_{name}_target.csv", pred_header, table(bundle.target_preds[k])


_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 0.1, 1e16, 1e17,
]
_doubles = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300)),
)


@st.composite
def _bundles(draw):
    m, n_s, n_t, d1 = (draw(st.integers(1, k)) for k in (3, 6, 6, 3))
    d2 = draw(st.sampled_from([1, 3]))

    def block(*shape):
        return draw(arrays(np.float64, shape, elements=_doubles))

    def maybe(*shape):
        return block(*shape) if draw(st.booleans()) else None

    return PredictionBundle(
        model_names=tuple(f"m{k}" for k in range(m)),
        source_preds=block(m, n_s, d2),
        target_preds=block(m, n_t, d2),
        source=SourceDataset(labels=block(n_s, d2), features=maybe(n_s, d1)),
        target=TargetDataset(
            features=maybe(n_t, d1), oracle_labels=maybe(n_t, d2), n_samples_hint=n_t
        ),
    )


def _bits(arr):
    return None if arr is None else (arr.shape, arr.tobytes())


def _cells(path):
    """The cells of each non-blank row of the CSV at ``path``, as strings."""
    lines = path.read_bytes().decode("utf-8").splitlines()[1:]
    return [line.split(",") for line in lines if line]


@given(_bundles())
@settings(max_examples=150, deadline=None)
def test_bundle_bytes_and_bits_match_the_reference(tmp_path_factory, bundle):
    root = tmp_path_factory.mktemp("bundle")
    write_bundle(bundle, root / "new")
    os.makedirs(root / "ref")
    tables = list(reference_bundle_tables(bundle))
    assert sorted(p for p in os.listdir(root / "new") if p.endswith(".csv")) == sorted(
        name for name, _, _ in tables
    )
    columns = {"source": [], "target": []}
    digests = []
    for name, header, rows in tables:
        reference_write_csv(root / "ref" / name, header, rows)
        new_path = root / "new" / name
        assert new_path.read_bytes() == (root / "ref" / name).read_bytes(), name
        expected = reference_parse(new_path, _cells(new_path), len(header) - 1, 1)
        assert _bits(read_csv(new_path, len(header))[1]) == _bits(expected), name
        columns["source" if name.endswith("source.csv") else "target"].append(expected)
        digests.append(hashlib.sha256(new_path.read_bytes()).digest())
    with np.load(root / "new" / "arrays.npz", allow_pickle=False) as stored:
        assert sorted(stored.files) == ["sha256", "source", "target"]
        for side, blocks in columns.items():
            assert _bits(stored[side]) == _bits(np.hstack(blocks)), side
        assert stored["sha256"].dtype == np.uint8
        assert _bits(stored["sha256"]) == ((len(tables), 32), b"".join(digests))

    loaded = load_bundle(root / "new")
    for got, want in [
        (loaded.source_preds, bundle.source_preds),
        (loaded.target_preds, bundle.target_preds),
        (loaded.source.labels, bundle.source.labels),
        (loaded.source.features, bundle.source.features),
        (loaded.target.features, bundle.target.features),
        (loaded.target.oracle_labels, bundle.target.oracle_labels),
    ]:
        assert _bits(got) == _bits(want)
    assert loaded.target.n_samples == bundle.target.n_samples


_CELLS = [
    "", " ", "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
    "1e-400", "0x10", "1_000", "1__0", "_1", "1_", " 1.5 ", "\t2", "+1", "1.",
    ".5", "5e", "e5", "--1", "1 2", "0.1e+00", "١٢", "１２",
    "x", "\x00", "1\x00",
]
_cell = st.one_of(
    st.sampled_from(_CELLS), st.text("0123456789.eE+-_ xnaif٣\t", max_size=6)
)


@given(_cell, st.integers(0, 2), st.integers(1, 2))
@settings(max_examples=400, deadline=None)
def test_cell_parses_like_the_reference(tmp_path_factory, cell, row, col):
    rows = [[str(i), "1.5", "-2.5e-3"] for i in range(3)]
    rows[row][col] = cell
    path = tmp_path_factory.mktemp("cell") / "t.csv"
    path.write_text("id,a,b\n" + "".join(",".join(r) + "\n" for r in rows))

    def outcome(parse):
        try:
            return _bits(parse())
        except ShiftAggError as exc:
            return type(exc)

    expected = outcome(lambda: reference_parse(path, _cells(path), 2, 1))
    assert outcome(lambda: read_csv(path, 3)[1]) == expected


def _rewrite_ids(path, ids):
    lines = path.read_text().splitlines()
    body = [f"{i}," + line.split(",", 1)[1] for i, line in zip(ids, lines[1:])]
    path.write_text("\n".join([lines[0]] + body) + "\n")


@pytest.mark.parametrize(
    "fname", ["source.csv", "target.csv", "model_m1_source.csv", "model_m0_target.csv"]
)
@pytest.mark.parametrize(
    "ids, bad_row",
    [([0, 1, 3, 4], 2), ([0, 1, 1, 3], 2), ([1, 0, 2, 3], 0), ([0, 1, 2, 4], 3)],
    ids=["gap", "duplicate", "swapped", "last"],
)
def test_ids_out_of_order_are_malformed(tmp_path, fname, ids, bad_row):
    write_bundle(build_bundle(m=2, n_s=4, n_t=4, with_oracle=True), tmp_path / "b")
    _rewrite_ids(tmp_path / "b" / fname, ids)
    with pytest.raises(MalformedFile, match=rf"{fname}: row {bad_row} has id"):
        load_bundle(tmp_path / "b")


@pytest.mark.parametrize(
    "rows", [np.array([[1.0], [np.nan]]), [[0, 1.0], [1, float("inf")]]],
    ids=["array", "rows"],
)
def test_writer_refuses_non_finite(tmp_path, rows):
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(tmp_path / "t.csv", ["id", "v"], rows)


def test_rows_that_balance_each_others_widths_are_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,a,b\n0,1,2,3\n1,4\n2,5,6\n")
    with pytest.raises(DimensionMismatch, match="row 0 has 4 cells, expected 3"):
        read_csv(path, 3)


def test_crlf_blank_lines_and_loose_cells_load(tmp_path):
    bundle = build_bundle(m=1, n_s=3, n_t=2, with_features=False)
    write_bundle(bundle, tmp_path / "b")
    path = tmp_path / "b" / "model_m0_target.csv"
    header, *rows = path.read_text().splitlines()
    rows[1] = "1.0, " + rows[1].split(",")[1] + " "
    path.write_bytes(("\r\n".join([header, "", *rows, ""]) + "\r\n").encode())
    assert load_bundle(tmp_path / "b") == bundle


@pytest.mark.parametrize(
    "edits, match",
    [
        ({"d2": 0}, "positive"),
        ({"d2": -1}, "positive"),
        ({"d1": -1}, "positive"),
        ({"d1": 0}, "positive"),
        ({"has_target_labels": "no"}, "has_target_labels"),
        ({"d2": 1.7}, "'d2'"),
        ({"model_names": "m0"}, "model_names"),
        ({"d1": True}, "'d1'"),
    ],
    ids=["d2=0", "d2<0", "d1<0", "d1=0", "labels=no", "d2=1.7", "names=str", "d1=true"],
)
def test_nonpositive_manifest_dims_are_malformed(tmp_path, edits, match):
    write_bundle(build_bundle(m=1), tmp_path / "b")
    path = tmp_path / "b" / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edits}))
    with pytest.raises(MalformedFile, match=match):
        load_bundle(tmp_path / "b")


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no sidecar"])
@pytest.mark.parametrize(
    "fname, header, message",
    [
        ("source.csv", "id,y_1,x_1,x_2", "column 2 is 'y_1', expected 'x_1'"),
        ("target.csv", "foo,bar,baz,qux", "column 1 is 'foo', expected 'id'"),
        ("model_m0_source.csv", "id,y_1", "column 2 is 'y_1', expected 'f_1'"),
        ("model_m1_target.csv", "id,f_2", "column 2 is 'f_2', expected 'f_1'"),
    ],
)
def test_wrong_header_is_malformed(tmp_path, fname, header, message, sidecar):
    _, bdir = _sidecar_bundle(tmp_path)
    path = bdir / fname
    body = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(header.encode() + b"\n" + body)
    if sidecar:  # a digest that matches the edited file: the header still counts
        _store_digest(bdir, fname)
    else:
        os.remove(bdir / "arrays.npz")
    with pytest.raises(MalformedFile, match=f"{fname}: header {message}"):
        load_bundle(bdir)


def test_non_utf8_csv_is_malformed(tmp_path):
    write_bundle(build_bundle(m=1), tmp_path / "b")
    (tmp_path / "b" / "source.csv").write_bytes(b"id,x_1,x_2,y_1\n0,\xff,1,2\n")
    with pytest.raises(MalformedFile, match="UTF-8"):
        load_bundle(tmp_path / "b")


# --- arrays.npz --------------------------------------------------------------


# The CSVs of _sidecar_bundle in the order of arrays.npz's digest rows, and
# the columns each takes of its side's matrix.
_ORDER = {
    "source.csv": slice(0, 3), "target.csv": slice(0, 3),
    "model_m0_source.csv": slice(3, 4), "model_m0_target.csv": slice(3, 4),
    "model_m1_source.csv": slice(4, 5), "model_m1_target.csv": slice(4, 5),
}


def _sidecar_bundle(tmp_path):
    bundle = build_bundle(m=2, n_s=4, n_t=3, with_oracle=True, seed=7)
    write_bundle(bundle, tmp_path / "b")
    return bundle, tmp_path / "b"


def _count_parses(monkeypatch) -> list:
    parsed = []

    def spy(path, *args):
        parsed.append(os.path.basename(path))
        return read_csv(path, *args)

    monkeypatch.setattr(data, "read_csv", spy)
    return parsed


def _load_without_sidecar(bdir):
    blob = (bdir / "arrays.npz").read_bytes()
    os.remove(bdir / "arrays.npz")
    try:
        return load_bundle(bdir)
    finally:
        (bdir / "arrays.npz").write_bytes(blob)


def _rewrite_sidecar(bdir, edit):
    """Rewrite arrays.npz with ``edit`` applied to its ``{key: array}``."""
    with np.load(bdir / "arrays.npz", allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    edit(arrays)
    with npz_writer(bdir / "arrays.npz") as add:
        for key, arr in arrays.items():
            add(key, arr)


def _store_digest(bdir, fname):
    """Store the sha256 of ``fname``'s current bytes in arrays.npz."""
    digest = hashlib.sha256((bdir / fname).read_bytes()).digest()

    def edit(arrays):
        table = arrays["sha256"].copy()
        table[list(_ORDER).index(fname)] = np.frombuffer(digest, np.uint8)
        arrays["sha256"] = table

    _rewrite_sidecar(bdir, edit)


def test_sidecar_skips_every_parse(tmp_path, monkeypatch):
    bundle, bdir = _sidecar_bundle(tmp_path)
    parsed = _count_parses(monkeypatch)
    assert load_bundle(bdir) == bundle
    assert parsed == []
    assert _load_without_sidecar(bdir) == bundle
    assert len(parsed) == 6


def test_sidecar_bytes_repeat(tmp_path):
    bundle = build_bundle(m=3, n_s=5, n_t=4, with_oracle=True, seed=2)
    write_bundle(bundle, tmp_path / "a")
    write_bundle(bundle, tmp_path / "b")
    blob = (tmp_path / "a" / "arrays.npz").read_bytes()
    assert blob == (tmp_path / "b" / "arrays.npz").read_bytes()


def test_csv_edited_to_another_number_loads_the_edit(tmp_path, monkeypatch):
    bundle, bdir = _sidecar_bundle(tmp_path)
    path = bdir / "model_m1_target.csv"
    text = path.read_text()
    cell = text.splitlines()[2].split(",")[1]
    i = cell.index(".") + 1  # one byte: the first decimal digit
    edited = cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:]
    path.write_text(text.replace(cell, edited, 1))
    parsed = _count_parses(monkeypatch)
    loaded = load_bundle(bdir)
    assert parsed == ["model_m1_target.csv"]
    assert loaded.target_preds[1, 1, 0] == float(edited)
    assert loaded.target_preds[1, 1, 0] != bundle.target_preds[1, 1, 0]
    assert loaded == _load_without_sidecar(bdir)


def _object_arrays(bdir):
    with np.load(bdir / "arrays.npz", allow_pickle=False) as npz:
        arrays = {k: np.array([npz[k]], dtype=object) for k in npz.files}
    np.savez(bdir / "arrays.npz", **arrays)


def _replace(key, change):
    return lambda bdir: _rewrite_sidecar(
        bdir, lambda a: a.update({key: change(a[key])})
    )


# Fault -> how to make it. Any of them makes the whole file ignored, so all
# six CSVs are parsed.
_FAULTS = {
    "missing": lambda bdir: os.remove(bdir / "arrays.npz"),
    "empty": lambda bdir: (bdir / "arrays.npz").write_bytes(b""),
    "truncated": lambda bdir: (bdir / "arrays.npz").write_bytes(
        (bdir / "arrays.npz").read_bytes()[:-100]
    ),
    "random bytes": lambda bdir: (bdir / "arrays.npz").write_bytes(
        np.random.default_rng(0).bytes(4096)
    ),
    "directory": lambda bdir: (os.remove(bdir / "arrays.npz"),
                               os.mkdir(bdir / "arrays.npz")),
    "object arrays": _object_arrays,
    "foreign key": lambda bdir: _rewrite_sidecar(
        bdir, lambda a: a.update(extra=np.zeros((4, 1)))
    ),
    "missing key": lambda bdir: _rewrite_sidecar(bdir, lambda a: a.pop("target")),
    "wrong shape": _replace("source", lambda a: a[:, :2]),
    "transposed": _replace("source", lambda a: a.T),
    "flattened": _replace("source", lambda a: a.ravel()),
    "three axes": _replace("source", lambda a: a[:, :, None]),
    "float32": _replace("target", lambda a: a.astype(np.float32)),
    "no rows": _replace("target", lambda a: a[:0]),
    "digest as bytes": _replace("sha256", lambda a: np.bytes_(a.tobytes())),
    "digest as int16": _replace("sha256", lambda a: a.astype(np.int16)),
    "digest as int8": _replace("sha256", lambda a: a.view(np.int8)),
    "digest row missing": _replace("sha256", lambda a: a[:-1]),
    "digest half width": _replace("sha256", lambda a: a[:, :16]),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_faulty_sidecar_loads_like_the_csvs(tmp_path, monkeypatch, fault):
    bundle, bdir = _sidecar_bundle(tmp_path)
    _FAULTS[fault](bdir)
    parsed = _count_parses(monkeypatch)
    assert load_bundle(bdir) == bundle
    assert sorted(parsed) == sorted(_ORDER)


def test_matching_digest_is_trusted(tmp_path):
    """The sidecar guards against accidental edits only: an array rewritten
    under the CSV's own digest is loaded as stored."""
    bundle, bdir = _sidecar_bundle(tmp_path)
    cols = _ORDER["model_m0_source.csv"]

    def edit(a):
        a = a.copy()
        a[:, cols] += 1
        return a

    _replace("source", edit)(bdir)
    loaded = load_bundle(bdir)
    assert np.array_equal(loaded.source_preds[0], bundle.source_preds[0] + 1)
    assert np.array_equal(loaded.source_preds[1], bundle.source_preds[1])
    assert loaded.source == bundle.source and loaded.target == bundle.target


def test_default_bundle_stores_three_arrays(tmp_path, monkeypatch):
    bundle = generate_task(SynthTaskConfig()).bundle
    write_bundle(bundle, tmp_path / "b")
    with np.load(tmp_path / "b" / "arrays.npz", allow_pickle=False) as npz:
        assert npz.files == ["source", "target", "sha256"]
    members = []

    def spy(fh, *args, **kwargs):
        members.append(fh.name)
        return read_array(fh, *args, **kwargs)

    read_array = np.lib.format.read_array
    monkeypatch.setattr(np.lib.format, "read_array", spy)
    parsed = _count_parses(monkeypatch)
    assert load_bundle(tmp_path / "b") == bundle
    assert sorted(members) == ["sha256.npy", "source.npy", "target.npy"]
    assert parsed == []


def _write_old_layout(bdir):
    """Rewrite arrays.npz as it was once written: for each CSV, its matrix
    under its file name and the hex sha256 of its bytes as a 0-d string."""
    with npz_writer(bdir / "arrays.npz") as add:
        for name in sorted(p.name for p in bdir.iterdir() if p.suffix == ".csv"):
            header = (bdir / name).read_text().splitlines()[0].split(",")
            _, matrix = read_csv(bdir / name, len(header))
            add(name, matrix)
            add(name + ".sha256", np.array(hashlib.sha256(
                (bdir / name).read_bytes()).hexdigest()))


def test_old_layout_sidecar_is_parsed_past(tmp_path, monkeypatch):
    bundle, bdir = _sidecar_bundle(tmp_path)
    _write_old_layout(bdir)
    with np.load(bdir / "arrays.npz", allow_pickle=False) as npz:
        assert "source.csv.sha256" in npz.files and len(npz.files) == 12
    parsed = _count_parses(monkeypatch)
    loaded = load_bundle(bdir)
    assert sorted(parsed) == sorted(_ORDER)
    for field in ("source_preds", "target_preds"):
        assert _bits(getattr(loaded, field)) == _bits(getattr(bundle, field))
    for got, want in [
        (loaded.source.labels, bundle.source.labels),
        (loaded.source.features, bundle.source.features),
        (loaded.target.features, bundle.target.features),
        (loaded.target.oracle_labels, bundle.target.oracle_labels),
    ]:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize(
    "edits",
    [{"d2": 2}, {"d1": 3}, {"has_target_labels": False},
     {"has_source_features": False}, {"model_names": ["m0", "m2"]}],
    ids=["d2", "d1", "no target labels", "no source features", "renamed model"],
)
def test_manifest_widths_fail_alike_with_and_without_sidecar(tmp_path, edits):
    _, bdir = _sidecar_bundle(tmp_path)
    path = bdir / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edits}))
    with pytest.raises(ShiftAggError) as with_sidecar:
        load_bundle(bdir)
    with pytest.raises(ShiftAggError) as without:
        _load_without_sidecar(bdir)
    assert type(with_sidecar.value) is type(without.value)
    assert str(with_sidecar.value) == str(without.value)
