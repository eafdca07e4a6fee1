"""Semantic-distance probe: exact small cases and structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftagg.data import LayerEmbeddings, LayerEmbeddingSet
from shiftagg.errors import MissingPairing, NonPositiveConstant
from shiftagg.probe import (
    argmax_agreement,
    epsilon_close,
    lipschitz_propagated_bound,
    semantic_distance,
    with_epsilon,
    with_lipschitz,
)


def layer(l, p, q):
    return LayerEmbeddings(l, np.asarray(p, float), np.asarray(q, float))


def embset(layers, pairing=None):
    return LayerEmbeddingSet(layers=tuple(layers), pairing=pairing)


class TestSemanticDistance:
    def test_identical_sets_with_identity_pairing(self):
        vecs = np.arange(12.0).reshape(3, 4)
        emb = embset([layer(1, vecs, vecs)], pairing=((0, 0), (1, 1), (2, 2)))
        report = semantic_distance(emb)
        assert report.d_sem == 0.0
        assert report.mode == "paired"

    def test_three_four_five_triangle(self):
        emb = embset([layer(1, [[0.0, 0.0]], [[3.0, 4.0]])])
        report = semantic_distance(emb)
        assert report.d_sem == 5.0
        assert report.mode == "cross_product"

    def test_min_of_maxima_picks_smaller_layer(self):
        emb = embset(
            [
                layer(1, [[0.0]], [[5.0]]),
                layer(2, [[0.0]], [[2.0]]),
            ]
        )
        report = semantic_distance(emb)
        assert report.d_sem == 2.0
        assert report.argmin_layer == 2

    def test_lowest_index_tie_break(self):
        emb = embset([layer(1, [[0.0]], [[2.0]]), layer(2, [[0.0]], [[2.0]])])
        assert semantic_distance(emb).argmin_layer == 1

    def test_encoder_layer_flagged_out_of_definition_range(self):
        emb = embset([layer(1, [[0.0]], [[1.0]]), layer(2, [[0.0]], [[1.0]])])
        flags = {l: flag for (l, _, flag) in semantic_distance(emb).per_layer_max_dist}
        assert flags == {1: False, 2: True}

    def test_pairing_restricts_the_max(self):
        p = [[0.0], [10.0]]
        q = [[0.0], [1.0]]
        cross = semantic_distance(embset([layer(1, p, q)]))
        paired = semantic_distance(
            embset([layer(1, p, q)], pairing=((0, 0), (1, 1)))
        )
        assert cross.d_sem == 10.0
        assert paired.d_sem == 9.0
        assert paired.per_layer_max_dist_cross[0][1] == 10.0

    def test_report_json_layout(self):
        p = [[0.0], [10.0]]
        q = [[0.0], [1.0]]
        emb = embset([layer(1, p, q), layer(2, p, p)], pairing=((0, 0), (1, 1)))
        report = with_lipschitz(with_epsilon(semantic_distance(emb), 1.0), [2.0])
        doc = report.to_json_dict()
        assert list(doc) == [
            "d_sem", "argmin_layer", "mode", "per_layer_max_dist",
            "per_layer_max_dist_cross", "epsilon", "is_epsilon_close",
            "lipschitz_constants", "propagated_bound", "provenance",
        ]
        assert doc["per_layer_max_dist"] == [
            {"l": 1, "max_dist": 9.0, "in_definition_range": False},
            {"l": 2, "max_dist": 0.0, "in_definition_range": True},
        ]
        assert doc["per_layer_max_dist_cross"] == [
            {"l": 1, "max_dist": 10.0},
            {"l": 2, "max_dist": 10.0},
        ]
        assert doc["lipschitz_constants"] == [2.0]

    def test_symmetry_under_domain_swap(self):
        rng = np.random.Generator(np.random.Philox(50))
        p1, q1 = rng.standard_normal((4, 3)), rng.standard_normal((6, 3))
        p2, q2 = rng.standard_normal((4, 5)), rng.standard_normal((6, 5))
        pairing = ((0, 1), (2, 3), (3, 5))
        fwd = semantic_distance(
            embset([layer(1, p1, q1), layer(2, p2, q2)], pairing=pairing)
        )
        swapped = semantic_distance(
            embset(
                [layer(1, q1, p1), layer(2, q2, p2)],
                pairing=tuple((j, i) for i, j in pairing),
            )
        )
        assert fwd.d_sem == swapped.d_sem

    def test_adding_a_layer_never_increases(self):
        rng = np.random.Generator(np.random.Philox(51))
        layers = [layer(l, rng.standard_normal((3, 4)), rng.standard_normal((5, 4)))
                  for l in range(1, 5)]
        prev = None
        for upto in range(1, 5):
            d = semantic_distance(embset(layers[:upto])).d_sem
            if prev is not None:
                assert d <= prev
            prev = d

    def test_scale_covariance(self):
        rng = np.random.Generator(np.random.Philox(52))
        p, q = rng.standard_normal((3, 4)), rng.standard_normal((4, 4))
        base = semantic_distance(embset([layer(1, p, q)])).d_sem
        s = 3.25
        scaled = semantic_distance(embset([layer(1, s * p, s * q)])).d_sem
        np.testing.assert_allclose(scaled, s * base, rtol=1e-12)


class TestEpsilonClose:
    def test_boundary_inclusive_at_zero(self):
        emb = embset([layer(1, [[0.0]], [[0.0]])])
        assert epsilon_close(semantic_distance(emb), 0.0) is True

    def test_strictly_below(self):
        emb = embset([layer(1, [[0.0]], [[2.0]])])
        report = semantic_distance(emb)
        assert epsilon_close(report, 1.9) is False
        assert epsilon_close(report, 2.0) is True

    def test_with_epsilon_populates_fields(self):
        emb = embset([layer(1, [[0.0]], [[2.0]])])
        report = with_epsilon(semantic_distance(emb), 2.0)
        assert report.epsilon == 2.0 and report.is_epsilon_close is True


class TestLipschitzBound:
    def test_identity_constants(self):
        assert lipschitz_propagated_bound(2.0, (1.0, 1.0, 1.0)) == 2.0

    def test_product(self):
        assert lipschitz_propagated_bound(0.5, (2.0, 3.0)) == 3.0

    def test_empty_constants(self):
        assert lipschitz_propagated_bound(1.7, ()) == 1.7

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveConstant):
            lipschitz_propagated_bound(1.0, (2.0, 0.0))

    @given(
        st.floats(0.0, 100.0),
        st.lists(st.floats(0.01, 10.0), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sequential_product(self, eps, ks):
        expected = eps
        for k in ks:
            expected *= k
        assert lipschitz_propagated_bound(eps, ks) == expected

    def test_with_lipschitz_populates_report(self):
        emb = embset([layer(1, [[0.0]], [[2.0]])])
        report = with_lipschitz(with_epsilon(semantic_distance(emb), 0.5), (2.0, 3.0))
        assert report.propagated_bound == 3.0
        assert report.lipschitz_constants == (2.0, 3.0)


class TestArgmaxAgreement:
    def test_identical_logits(self):
        logits = np.random.Generator(np.random.Philox(53)).standard_normal((4, 7))
        pairing = tuple((i, i) for i in range(4))
        assert argmax_agreement(logits, logits, pairing) == 1.0

    def test_opposing_argmax(self):
        p = [[0.1, 0.9]]
        q = [[0.9, 0.1]]
        assert argmax_agreement(p, q, ((0, 0),)) == 0.0

    def test_two_of_three_agree(self):
        p = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        q = [[2.0, 1.0], [1.0, 3.0], [0.0, 5.0]]
        assert argmax_agreement(p, q, ((0, 0), (1, 1), (2, 2))) == pytest.approx(2 / 3)

    def test_missing_pairing(self):
        with pytest.raises(MissingPairing):
            argmax_agreement([[1.0]], [[1.0]], None)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.Generator(np.random.Philox(54))
        p = rng.standard_normal((5, 6))
        q = rng.standard_normal((5, 6))
        pairing = tuple((i, i) for i in range(5))
        base = argmax_agreement(p, q, pairing)
        assert argmax_agreement(np.exp(p), np.exp(q), pairing) == base
        assert argmax_agreement(3.0 * p + 7.0, 3.0 * q + 7.0, pairing) == base
