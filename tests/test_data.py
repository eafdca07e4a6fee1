"""Bundle and embedding container validation plus exact file round trips."""

from dataclasses import replace

import numpy as np
import pytest

from shiftagg.data import (
    LayerEmbeddings,
    LayerEmbeddingSet,
    PredictionBundle,
    SourceDataset,
    TargetDataset,
    load_bundle,
    load_embeddings,
    write_bundle,
    write_embeddings,
)
from shiftagg.errors import (
    DimensionMismatch,
    IoFailure,
    MalformedFile,
    MissingFile,
    NonFiniteValue,
)
from shiftagg.serialize import write_json

from conftest import build_bundle


class TestBundleRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        # Awkward doubles on purpose: must survive text serialization exactly.
        rng = np.random.Generator(np.random.Philox(7))
        vals = np.concatenate(
            [rng.standard_normal(10) * 10.0 ** rng.integers(-12, 12, 10),
             [1 / 3, np.pi, 2.0 ** -40, -1e-300]]
        )
        n_s, n_t, d2 = 7, 2, 1
        bundle = PredictionBundle(
            model_names=("a", "b"),
            source_preds=vals[:14].reshape(2, 7, 1),
            target_preds=rng.standard_normal((2, n_t, d2)),
            source=SourceDataset(
                labels=rng.standard_normal((n_s, d2)),
                features=rng.standard_normal((n_s, 3)),
            ),
            target=TargetDataset(
                features=rng.standard_normal((n_t, 3)),
                oracle_labels=rng.standard_normal((n_t, d2)),
            ),
            provenance="round-trip check",
        )
        write_bundle(bundle, tmp_path / "b")
        assert load_bundle(tmp_path / "b") == bundle

    def test_round_trip_without_features(self, tmp_path):
        bundle = build_bundle(m=2, n_s=3, n_t=4, with_features=False)
        write_bundle(bundle, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        assert loaded == bundle
        assert loaded.source.features is None

    def test_model_name_order_preserved(self, tmp_path):
        bundle = build_bundle(m=3)
        write_bundle(bundle, tmp_path / "b")
        assert load_bundle(tmp_path / "b").model_names == ("m0", "m1", "m2")

    def test_write_into_file_path_is_io_failure(self, tmp_path):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("not a directory")
        with pytest.raises(IoFailure):
            write_bundle(build_bundle(), blocker / "sub")


class TestBundleValidation:
    def test_nan_label_names_row(self, tmp_path):
        write_bundle(build_bundle(m=1, n_s=3, d1=1), tmp_path / "b")
        src = tmp_path / "b" / "source.csv"
        lines = src.read_text().splitlines()
        parts = lines[2].split(",")
        parts[-1] = "nan"
        lines[2] = ",".join(parts)
        src.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteValue, match="row 1"):
            load_bundle(tmp_path / "b")

    def test_short_model_file_is_dimension_mismatch(self, tmp_path):
        write_bundle(build_bundle(m=1, n_t=4), tmp_path / "b")
        f = tmp_path / "b" / "model_m0_target.csv"
        lines = f.read_text().splitlines()
        f.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DimensionMismatch, match="model_m0_target"):
            load_bundle(tmp_path / "b")

    def test_missing_model_file(self, tmp_path):
        write_bundle(build_bundle(m=2), tmp_path / "b")
        (tmp_path / "b" / "model_m1_source.csv").unlink()
        with pytest.raises(MissingFile, match="model_m1_source"):
            load_bundle(tmp_path / "b")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_bundle(tmp_path)

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(DimensionMismatch, match="unique"):
            build_bundle(m=2).__class__(
                model_names=("a", "a"),
                source_preds=np.zeros((2, 3, 1)),
                target_preds=np.zeros((2, 4, 1)),
                source=SourceDataset(labels=np.zeros((3, 1))),
                target=TargetDataset(n_samples_hint=4),
            )

    def test_feature_label_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SourceDataset(labels=np.zeros((3, 1)), features=np.zeros((4, 2)))

    def test_feature_width_mismatch_across_domains(self):
        with pytest.raises(DimensionMismatch, match="columns"):
            PredictionBundle(
                model_names=("a",),
                source_preds=np.zeros((1, 3, 1)),
                target_preds=np.zeros((1, 4, 1)),
                source=SourceDataset(
                    labels=np.zeros((3, 1)), features=np.zeros((3, 2))
                ),
                target=TargetDataset(features=np.zeros((4, 3))),
            )

    def test_arrays_are_immutable(self):
        bundle = build_bundle()
        with pytest.raises(ValueError):
            bundle.source_preds[0, 0, 0] = 1.0

    def test_one_dimensional_labels_mean_column(self):
        ds = SourceDataset(labels=[1.0, 2.0, 3.0])
        assert ds.labels.shape == (3, 1)
        assert ds.n_samples == 3


_Y = np.arange(3.0)[:, None]
_X = np.arange(6.0).reshape(3, 2)


class TestEquality:
    @pytest.mark.parametrize(
        "bare, full",
        [
            (SourceDataset(labels=_Y), SourceDataset(labels=_Y, features=_X)),
            (TargetDataset(features=_X), TargetDataset(features=_X, oracle_labels=_Y)),
            (TargetDataset(oracle_labels=_Y), TargetDataset(features=_X, oracle_labels=_Y)),
        ],
        ids=["source-features", "target-labels", "target-features"],
    )
    def test_none_field_is_unequal_to_an_array(self, bare, full):
        for a, b in ((bare, full), (full, bare)):
            assert not a == b
            assert a != b
        assert bare == replace(bare) and full == replace(full)

    def test_equal_values_in_distinct_arrays(self):
        assert SourceDataset(labels=_Y, features=_X) == SourceDataset(
            labels=_Y.copy(), features=_X.copy()
        )
        assert SourceDataset(labels=_Y) != SourceDataset(labels=_Y + 1.0)
        assert SourceDataset(labels=_Y) != TargetDataset(oracle_labels=_Y)


class TestEmbeddingDump:
    def test_two_layer_load(self, tmp_path):
        doc = {
            "layers": [
                {"l": 2, "p": [[0.0] * 8] * 3, "q": [[1.0] * 8] * 2},
                {"l": 1, "p": [[0.0] * 4] * 3, "q": [[1.0] * 4] * 2},
            ],
        }
        write_json(tmp_path / "emb.json", doc)
        emb = load_embeddings(tmp_path / "emb.json")
        assert emb.layer_indices == (1, 2)  # sorted ascending
        assert emb.layers[0].source_vecs.shape == (3, 4)
        assert emb.layers[1].target_vecs.shape == (2, 8)

    def test_ragged_rows_rejected(self, tmp_path):
        doc = {"layers": [{"l": 1, "p": [[0.0, 1.0], [0.0]], "q": [[0.0, 1.0]]}]}
        write_json(tmp_path / "emb.json", doc)
        with pytest.raises(DimensionMismatch):
            load_embeddings(tmp_path / "emb.json")

    def test_pairing_out_of_range_is_malformed(self, tmp_path):
        doc = {
            "layers": [{"l": 1, "p": [[0.0], [1.0]], "q": [[0.0]]}],
            "pairing": [[2, 0]],  # p has h_p = 2, index 2 is out of range
        }
        write_json(tmp_path / "emb.json", doc)
        with pytest.raises(MalformedFile):
            load_embeddings(tmp_path / "emb.json")

    def test_round_trip_with_pairing(self, tmp_path):
        emb = LayerEmbeddingSet(
            layers=(
                LayerEmbeddings(1, np.arange(6.0).reshape(2, 3), np.ones((2, 3))),
                LayerEmbeddings(2, np.ones((2, 5)), np.zeros((2, 5))),
            ),
            pairing=((0, 1), (1, 0)),
            provenance="probe dump",
        )
        write_embeddings(emb, tmp_path / "emb.json")
        assert load_embeddings(tmp_path / "emb.json") == emb

    def test_inconsistent_sample_counts_across_layers(self):
        with pytest.raises(DimensionMismatch):
            LayerEmbeddingSet(
                layers=(
                    LayerEmbeddings(1, np.zeros((2, 3)), np.zeros((2, 3))),
                    LayerEmbeddings(2, np.zeros((3, 4)), np.zeros((2, 4))),
                )
            )
