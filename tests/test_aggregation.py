"""Aggregation core against brute-force and dense linear-algebra oracles."""

import numpy as np
import pytest

from shiftagg.aggregation import (
    aggregate_predict,
    compute_g_vector,
    compute_gram,
    empirical_risk,
    importance_weighted_risk,
    model_risks,
    oracle_aggregate,
    run_aggregation,
    solve_coefficients,
)
from shiftagg.data import PredictionBundle, SourceDataset, TargetDataset
from shiftagg.errors import (
    IllConditioned,
    MissingOracleLabels,
    NegativeWeight,
    NonSymmetric,
)

from conftest import build_bundle


def gram_loop(preds):
    """Scalar triple-loop reference for the Gram matrix."""
    m, n, d2 = preds.shape
    G = np.zeros((m, m))
    for k in range(m):
        for u in range(m):
            acc = 0.0
            for i in range(n):
                for j in range(d2):
                    acc += preds[k, i, j] * preds[u, i, j]
            G[k, u] = acc / n
    return G


def g_loop(preds, labels, beta):
    m, n, d2 = preds.shape
    g = np.zeros(m)
    for k in range(m):
        acc = 0.0
        for i in range(n):
            inner = 0.0
            for j in range(d2):
                inner += labels[i, j] * preds[k, i, j]
            acc += beta[i] * inner
        g[k] = acc / n
    return g


def risk_loop(preds, labels, beta=None):
    n, d2 = preds.shape
    acc = 0.0
    for i in range(n):
        sq = 0.0
        for j in range(d2):
            sq += (preds[i, j] - labels[i, j]) ** 2
        acc += sq if beta is None else beta[i] * sq
    return acc / n


class TestComputeGram:
    def test_constant_single_model(self):
        preds = np.full((1, 3, 1), 2.0)
        np.testing.assert_array_equal(compute_gram(preds), [[4.0]])

    def test_orthonormal_constant_predictors(self):
        preds = np.zeros((2, 5, 2))
        preds[0, :, 0] = 1.0
        preds[1, :, 1] = 1.0
        np.testing.assert_array_equal(compute_gram(preds), np.eye(2))

    def test_matches_triple_loop(self):
        rng = np.random.Generator(np.random.Philox(10))
        for _ in range(20):
            m, n, d2 = rng.integers(1, 6), rng.integers(1, 51), rng.integers(1, 4)
            preds = rng.standard_normal((m, n, d2))
            np.testing.assert_allclose(
                compute_gram(preds), gram_loop(preds), rtol=0, atol=1e-12
            )

    def test_symmetry_and_psd(self):
        rng = np.random.Generator(np.random.Philox(11))
        preds = rng.standard_normal((6, 40, 2))
        G = compute_gram(preds)
        assert float(np.max(np.abs(G - G.T))) <= 1e-12
        for _ in range(100):
            v = rng.standard_normal(6)
            assert float(v @ G @ v) >= -1e-10


class TestComputeGVector:
    def test_perfect_model_gives_label_norm(self):
        rng = np.random.Generator(np.random.Philox(12))
        y = rng.standard_normal((9, 2))
        preds = y[None, :, :]
        expected = float(np.mean(np.sum(y * y, axis=1)))
        np.testing.assert_allclose(
            compute_g_vector(preds, y, np.ones(9)), [expected], rtol=1e-15
        )

    def test_zero_beta_annihilates(self):
        rng = np.random.Generator(np.random.Philox(13))
        preds = rng.standard_normal((3, 5, 2))
        y = rng.standard_normal((5, 2))
        np.testing.assert_array_equal(
            compute_g_vector(preds, y, np.zeros(5)), np.zeros(3)
        )

    def test_matches_loop(self):
        rng = np.random.Generator(np.random.Philox(14))
        preds = rng.standard_normal((2, 4, 1))
        y = rng.standard_normal((4, 1))
        beta = rng.uniform(0.0, 3.0, 4)
        np.testing.assert_allclose(
            compute_g_vector(preds, y, beta), g_loop(preds, y, beta),
            rtol=0, atol=1e-14,
        )

    def test_negative_beta_rejected(self):
        with pytest.raises(NegativeWeight):
            compute_g_vector(np.zeros((1, 2, 1)), np.zeros((2, 1)), [-0.1, 1.0])


class TestSolveCoefficients:
    def test_identity(self):
        np.testing.assert_array_equal(
            solve_coefficients(np.eye(3), np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0]
        )

    def test_scalar(self):
        np.testing.assert_allclose(
            solve_coefficients(np.array([[4.0]]), np.array([2.0]), 0.0), [0.5]
        )

    def test_matches_dense_solve(self):
        rng = np.random.Generator(np.random.Philox(15))
        for _ in range(50):
            m = int(rng.integers(1, 8))
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            G = Q @ np.diag(rng.uniform(0.5, 30.0, m)) @ Q.T
            G = (G + G.T) / 2
            g = rng.standard_normal(m)
            c = solve_coefficients(G, g, 1e-6)
            ref = np.linalg.solve(G + 1e-6 * np.eye(m), g)
            assert np.linalg.norm(c - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(NonSymmetric):
            solve_coefficients(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    def test_singular_at_lam_zero(self):
        G = np.ones((2, 2))
        with pytest.raises(IllConditioned):
            solve_coefficients(G, np.ones(2), 0.0)

    def test_residual_contract(self):
        rng = np.random.Generator(np.random.Philox(16))
        for _ in range(20):
            m = int(rng.integers(2, 7))
            A = rng.standard_normal((m, 3 * m))
            G = A @ A.T / (3 * m)
            g = rng.standard_normal(m)
            lam = float(rng.uniform(1e-8, 1e-2))
            c = solve_coefficients(G, g, lam)
            resid = np.max(np.abs((G + lam * np.eye(m)) @ c - g))
            assert resid <= 1e-8 * max(1.0, float(np.max(np.abs(g))))


class TestAggregatePredict:
    def test_basis_vector_selects_model(self):
        rng = np.random.Generator(np.random.Philox(17))
        preds = rng.standard_normal((3, 6, 2))
        out = aggregate_predict(preds, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out, preds[1])

    def test_zero_coefficients(self):
        preds = np.ones((2, 3, 1))
        np.testing.assert_array_equal(
            aggregate_predict(preds, np.zeros(2)), np.zeros((3, 1))
        )

    def test_mean_of_two(self):
        preds = np.array([[[1.0]], [[3.0]]])
        np.testing.assert_array_equal(
            aggregate_predict(preds, np.array([0.5, 0.5])), [[2.0]]
        )


class TestRisks:
    def test_zero_when_exact(self):
        y = np.arange(6.0).reshape(3, 2)
        assert empirical_risk(y, y) == 0.0

    def test_unit_errors(self):
        assert empirical_risk(np.zeros((2, 1)), np.ones((2, 1))) == 1.0

    def test_multi_output_sum(self):
        assert empirical_risk(np.array([[1.0, 2.0]]), np.zeros((1, 2))) == 5.0

    def test_beta_one_reduction_bitwise(self):
        rng = np.random.Generator(np.random.Philox(18))
        preds = rng.standard_normal((30, 3))
        labels = rng.standard_normal((30, 3))
        assert importance_weighted_risk(preds, labels, np.ones(30)) == empirical_risk(
            preds, labels
        )

    def test_zero_beta(self):
        rng = np.random.Generator(np.random.Philox(19))
        preds = rng.standard_normal((5, 1))
        assert importance_weighted_risk(preds, np.zeros((5, 1)), np.zeros(5)) == 0.0

    def test_matches_loop(self):
        rng = np.random.Generator(np.random.Philox(20))
        preds = rng.standard_normal((12, 2))
        labels = rng.standard_normal((12, 2))
        beta = rng.uniform(0, 2, 12)
        assert abs(
            importance_weighted_risk(preds, labels, beta)
            - risk_loop(preds, labels, beta)
        ) <= 1e-14

    @pytest.mark.parametrize("d2", [1, 3])
    def test_model_risks_equal_single_model_evaluators(self, d2):
        rng = np.random.Generator(np.random.Philox(21))
        preds = rng.standard_normal((4, 25, d2))
        labels = rng.standard_normal((25, d2))
        beta = rng.uniform(0, 3, 25)
        plain = model_risks(preds, labels)
        weighted = model_risks(preds, labels, beta)
        assert plain.shape == weighted.shape == (4,)
        for k in range(4):
            assert plain[k] == empirical_risk(preds[k], labels)
            assert weighted[k] == importance_weighted_risk(preds[k], labels, beta)


class TestRunAggregation:
    def test_single_model_closed_form(self):
        bundle = build_bundle(m=1, n_s=20, n_t=25, seed=3)
        result = run_aggregation(bundle, np.ones(20))
        G = compute_gram(bundle.target_preds)
        g = compute_g_vector(bundle.source_preds, bundle.source.labels, np.ones(20))
        expected = g[0] / (G[0, 0] + result.tikhonov)
        np.testing.assert_allclose(result.coefficients, [expected], rtol=1e-12)

    def test_duplicate_models(self):
        base = build_bundle(m=1, n_s=15, n_t=15, seed=4)
        dup = PredictionBundle(
            model_names=("a", "b"),
            source_preds=np.repeat(base.source_preds, 2, axis=0),
            target_preds=np.repeat(base.target_preds, 2, axis=0),
            source=base.source,
            target=base.target,
        )
        with pytest.raises(IllConditioned):
            run_aggregation(dup, np.ones(15), lam=0.0)
        result = run_aggregation(dup, np.ones(15))  # default policy regularizes
        assert abs(result.coefficients[0] - result.coefficients[1]) <= 1e-8

    def test_permutation_equivariance(self):
        bundle = build_bundle(m=4, n_s=40, n_t=40, seed=5)
        beta = np.random.Generator(np.random.Philox(6)).uniform(0.2, 2.0, 40)
        res = run_aggregation(bundle, beta)
        perm = [2, 0, 3, 1]
        permuted = PredictionBundle(
            model_names=tuple(bundle.model_names[p] for p in perm),
            source_preds=bundle.source_preds[perm],
            target_preds=bundle.target_preds[perm],
            source=bundle.source,
            target=bundle.target,
        )
        res_p = run_aggregation(permuted, beta)
        np.testing.assert_allclose(
            res_p.coefficients, res.coefficients[perm], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            aggregate_predict(permuted.target_preds, res_p.coefficients),
            aggregate_predict(bundle.target_preds, res.coefficients),
            rtol=0,
            atol=1e-12,
        )

    def test_scaling_covariance_at_lam_zero(self):
        bundle = build_bundle(m=3, n_s=50, n_t=50, seed=7)
        beta = np.ones(50)
        res = run_aggregation(bundle, beta, lam=0.0)
        s = 3.7
        scaled_sp = bundle.source_preds.copy()
        scaled_tp = bundle.target_preds.copy()
        scaled_sp[1] *= s
        scaled_tp[1] *= s
        scaled = PredictionBundle(
            model_names=bundle.model_names,
            source_preds=scaled_sp,
            target_preds=scaled_tp,
            source=bundle.source,
            target=bundle.target,
        )
        res_s = run_aggregation(scaled, beta, lam=0.0)
        expected = res.coefficients.copy()
        expected[1] /= s
        np.testing.assert_allclose(res_s.coefficients, expected, rtol=1e-8)
        np.testing.assert_allclose(
            aggregate_predict(scaled.target_preds, res_s.coefficients),
            aggregate_predict(bundle.target_preds, res.coefficients),
            rtol=1e-8,
        )

    def test_diagnostics_populated(self):
        bundle = build_bundle(m=2, n_s=10, n_t=10, seed=8)
        res = run_aggregation(bundle, np.ones(10))
        for key in (
            "condition_estimate",
            "beta_saturation_fraction",
            "lambda_escalations",
            "residual_inf",
        ):
            assert key in res.diagnostics


class TestOracleAggregate:
    def test_requires_oracle_labels(self):
        with pytest.raises(MissingOracleLabels):
            oracle_aggregate(build_bundle(with_oracle=False))

    def test_single_model_projection(self):
        bundle = build_bundle(m=1, n_t=30, with_oracle=True, seed=9)
        res = oracle_aggregate(bundle)
        f = bundle.target_preds[0]
        y = bundle.target.oracle_labels
        expected = float(np.mean(np.sum(y * f, axis=1))) / float(
            np.mean(np.sum(f * f, axis=1))
        )
        np.testing.assert_allclose(res.coefficients, [expected], rtol=1e-12)

    def test_perfect_model_in_span(self):
        rng = np.random.Generator(np.random.Philox(22))
        y = rng.standard_normal((40, 1))
        preds = np.stack([y, rng.standard_normal((40, 1)), y + rng.standard_normal((40, 1))])
        bundle = PredictionBundle(
            model_names=("exact", "junk", "noisy"),
            source_preds=rng.standard_normal((3, 10, 1)),
            target_preds=preds,
            source=SourceDataset(labels=rng.standard_normal((10, 1))),
            target=TargetDataset(oracle_labels=y),
        )
        res = oracle_aggregate(bundle)
        agg = aggregate_predict(preds, res.coefficients)
        assert empirical_risk(agg, y) <= 1e-12

    def test_beats_every_model_and_random_combinations(self):
        rng = np.random.Generator(np.random.Philox(23))
        bundle = build_bundle(m=3, n_s=10, n_t=50, with_oracle=True, seed=24)
        res = oracle_aggregate(bundle)
        y = bundle.target.oracle_labels
        agg_risk = empirical_risk(
            aggregate_predict(bundle.target_preds, res.coefficients), y
        )
        for k in range(3):
            assert agg_risk <= empirical_risk(bundle.target_preds[k], y) + 1e-9
        for _ in range(100):
            w = rng.uniform(0.0, 1.0, 3)
            w /= w.sum()
            other = empirical_risk(aggregate_predict(bundle.target_preds, w), y)
            assert agg_risk <= other + 1e-9
