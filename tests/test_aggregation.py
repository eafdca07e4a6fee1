"""Aggregation core against brute-force and dense linear-algebra oracles."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftagg import aggregation
from shiftagg.aggregation import (
    RiskReport,
    aggregate_predict,
    compute_g_vector,
    compute_gram,
    empirical_risk,
    importance_weighted_risk,
    make_risk_report,
    model_risks,
    oracle_aggregate,
    resolve_beta,
    run_aggregation,
    solve_aggregation,
    solve_coefficients,
)
from shiftagg.data import (
    PredictionBundle,
    SourceDataset,
    TargetDataset,
    as_label_matrix,
)
from shiftagg.errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyInput,
    IllConditioned,
    MissingOracleLabels,
    NegativeWeight,
    NonFiniteValue,
    NonSymmetric,
    SingularSystem,
)
from shiftagg.ratio import RatioModel, evaluate_ratio

from conftest import (
    build_bundle,
    count_factorizations,
    count_solves,
    count_weight_scans,
)


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


def reference_compute_gram(preds):
    """The pre-BLAS ``compute_gram``: one pairwise-summed inner product per
    upper-triangle entry, mirrored."""
    m, n, _ = preds.shape
    flat = preds.reshape(m, -1)
    G = np.empty((m, m))
    for k in range(m):
        for u in range(k, m):
            v = float(np.sum(flat[k] * flat[u])) / n
            G[k, u] = v
            G[u, k] = v
    return G


def reference_compute_g_vector(preds, labels, beta):
    """The pre-BLAS ``compute_g_vector``: one pairwise sum per model."""
    m, n, _ = preds.shape
    g = np.empty(m)
    for k in range(m):
        inner = np.einsum("nd,nd->n", labels, preds[k], optimize=False)
        g[k] = float(np.sum(beta * inner)) / n
    return g


# Shapes where BLAS blocks and threads its products, as (m, n, d2, scale);
# the 1e150 cases keep every Gram entry finite (at most ~1e305).
BLAS_CASES = [
    (m, n, d2, 1.0) for m in (1, 57, 300) for n in (1, 3001, 10_000) for d2 in (1, 3)
] + [(57, 3001, 3, 1e150), (300, 10_000, 1, 1e150)]


def blas_inputs(m, n, d2, scale, seed=0):
    """Seeded predictions (one all-zero model when m > 1), labels and beta."""
    rng = np.random.Generator(np.random.Philox(seed))
    preds = rng.standard_normal((m, n, d2)) * scale
    if m > 1:
        preds[m // 2] = 0.0
    labels = rng.standard_normal((n, d2)) * scale
    return preds, labels, rng.uniform(0.0, 3.0, n)


def assert_close_to_max(actual, reference):
    """Agreement within 1e-12 of the largest reference magnitude."""
    err = float(np.max(np.abs(actual - reference)))
    assert err <= 1e-12 * float(np.max(np.abs(reference)))


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
        for m, n, d2, scale in BLAS_CASES:
            preds, _, _ = blas_inputs(m, n, d2, scale)
            G = compute_gram(preds)
            # Exact symmetry: a fall-back from syrk to gemm would break it.
            assert np.array_equal(G, G.T), (m, n, d2, scale)
            assert_close_to_max(G, reference_compute_gram(preds))

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
        for m, n, d2, scale in BLAS_CASES:
            preds, y, beta = blas_inputs(m, n, d2, scale)
            assert_close_to_max(
                compute_g_vector(preds, y, beta),
                reference_compute_g_vector(preds, y, beta),
            )

    def test_negative_beta_rejected(self):
        with pytest.raises(NegativeWeight):
            compute_g_vector(np.zeros((1, 2, 1)), np.zeros((2, 1)), [-0.1, 1.0])


def test_moments_are_byte_identical_under_concurrent_calls():
    inputs = [blas_inputs(300, 10_000, 1, 1.0, seed=s) for s in range(4)]

    def moments(args):
        preds, y, beta = args
        return compute_gram(preds).tobytes(), compute_g_vector(preds, y, beta).tobytes()

    serial = [moments(args) for args in inputs]
    for workers in (2, 4, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            assert list(pool.map(moments, inputs, timeout=120)) == serial, workers


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

    def test_is_the_explicit_lam_solve_read_only(self):
        rng = np.random.Generator(np.random.Philox(17))
        A = rng.standard_normal((4, 12))
        G, g = A @ A.T / 12, rng.standard_normal(4)
        for lam in (0.0, 1e-6):
            c = solve_coefficients(G, g, lam)
            assert c.tobytes() == solve_aggregation(G, g, lam).coefficients.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                c[0] = 0.0
        # The result freezes views: the caller's arrays stay writable.
        assert G.flags.writeable and g.flags.writeable

    def test_nonsymmetric_rejected(self):
        with pytest.raises(NonSymmetric):
            solve_coefficients(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    def test_singular_at_lam_zero(self):
        G = np.ones((2, 2))
        with pytest.raises(IllConditioned):
            solve_coefficients(G, np.ones(2), 0.0)

    def test_overflowing_system_is_refused(self):
        # G and lam are finite, but G + lam*I is not.
        with np.errstate(over="ignore"), pytest.raises(
            IllConditioned, match="factorization failed"
        ):
            solve_coefficients(np.diag([1e308, 1.0]), np.ones(2), 1e308)

    def test_overflowing_solution_is_refused(self):
        # A tiny explicit lam skips the condition check; the solution
        # overflows and its residual is NaN, which no contract accepts.
        with pytest.raises(IllConditioned, match="residual nan"):
            solve_coefficients(np.diag([1.0, 1e-300]), np.array([1.0, 1e10]), 1e-300)

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

    @pytest.mark.parametrize(
        "solve", [solve_coefficients, solve_aggregation],
        ids=["coefficients", "aggregation"],
    )
    def test_non_finite_residual_is_refused(self, solve):
        # The solve holds every solution to the residual contract; the result
        # record does not check it again. Here the solution overflows, and a
        # NaN residual is no smaller than any tolerance.
        with pytest.raises(IllConditioned, match="residual nan exceeds contract"):
            solve(np.diag([1.0, 1e-300]), np.array([1.0, 1e10]), 1e-300)


def reference_check_symmetric(G):
    """The symmetry test with no exact-equality fast path."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(G), initial=0.0)))
    return not float(np.max(np.abs(G - G.T), initial=0.0)) > tol


class TestCheckSymmetric:
    def _cases(self):
        rng = np.random.Generator(np.random.Philox(18))
        A = rng.standard_normal((6, 9))
        exact = compute_gram(A[:, :, None])
        within = exact.copy()
        within[0, 1] += 5e-13
        beyond = exact.copy()
        beyond[0, 1] += 1e-9
        nan = exact.copy()
        nan[2, 3] = np.nan
        both_nan = nan.copy()
        both_nan[3, 2] = np.nan
        return {"exact": exact, "within": within, "beyond": beyond, "nan": nan,
                "both_nan": both_nan}

    def test_decisions_match_the_tolerance_test(self):
        decisions = {}
        for name, G in self._cases().items():
            try:
                aggregation._check_symmetric(G)
            except NonSymmetric:
                decisions[name] = False
            else:
                decisions[name] = True
            assert decisions[name] == reference_check_symmetric(G), name
        assert decisions == {"exact": True, "within": True, "beyond": False,
                             "nan": True, "both_nan": True}

    def test_exactly_symmetric_gram_takes_the_fast_path(self):
        class NoArithmetic(np.ndarray):
            def __sub__(self, other):
                raise AssertionError("the tolerance test ran")

        cases = self._cases()
        aggregation._check_symmetric(cases["exact"].view(NoArithmetic))
        with pytest.raises(AssertionError, match="tolerance test"):
            aggregation._check_symmetric(cases["within"].view(NoArithmetic))


class TestAutoLambdaScale:
    @pytest.mark.parametrize("diag", [0.0, -0.0, 1e-320], ids=["zero", "minus_zero", "underflow"])
    def test_zero_trace_is_ill_conditioned(self, diag):
        with pytest.raises(IllConditioned, match="zero trace"):
            solve_aggregation(np.diag([diag, diag]), np.zeros(2))

    @pytest.mark.parametrize("diag", [np.inf, np.nan, -np.inf])
    def test_non_finite_trace_is_config_invalid(self, diag):
        with pytest.raises(ConfigInvalid, match="must be finite"):
            solve_aggregation(np.diag([diag, 1.0]), np.zeros(2))

    def test_all_zero_target_predictions(self):
        bundle = build_bundle(m=3, n_s=8, n_t=6, seed=19)
        bundle = replace(bundle, target_preds=np.zeros_like(bundle.target_preds))
        with pytest.raises(IllConditioned, match="zero trace"):
            run_aggregation(bundle, np.ones(8))
        # An explicit value is used as given.
        assert run_aggregation(bundle, np.ones(8), lam=1.0).tikhonov == 1.0


class TestLambdaRefusals:
    def test_rank_deficient_gram_records_each_refusal(self):
        # A rank-3 Gram of 20 models and a moment vector off its range: the
        # solution grows like 1/lam, and the first lam's residual misses the
        # contract.
        rng = np.random.Generator(np.random.Philox(30))
        A = rng.standard_normal((20, 3))
        G = compute_gram(A[:, :, None])
        g = 10.0 * rng.standard_normal(20)
        assert np.linalg.matrix_rank(G) == 3
        res = solve_aggregation(G, g)
        refusals = res.diagnostics["lambda_refusals"]
        assert res.diagnostics["lambda_escalations"] == len(refusals) >= 1
        base = 1e-8 * float(np.trace(G)) / 20
        ladder = [base]
        for _ in refusals:
            ladder.append(ladder[-1] * 10.0)
        assert [lam for lam, _ in refusals] + [res.tikhonov] == ladder
        for lam, reason in refusals:
            assert reason.startswith("residual ") and f"at lam={lam!r}" in reason

    def test_all_refused_names_every_lambda(self):
        # Indefinite: G + lam*I has a negative pivot for every candidate.
        G = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(IllConditioned) as info:
            solve_aggregation(G, np.ones(3))
        message = str(info.value)
        ladder = [1e-8 / 3]
        while ladder[-1] * 10.0 <= 1e-2 / 3:
            ladder.append(ladder[-1] * 10.0)
        assert message.count("factorization failed") == len(ladder) >= 6
        for lam in ladder:
            assert f"lam={lam!r}: factorization failed at lam={lam!r}" in message


class TestCheckedSystem:
    @pytest.mark.parametrize("lam", [None, 0.0, 1.0], ids=["auto", "zero", "one"])
    @pytest.mark.parametrize(
        "G, g, error",
        [
            (np.zeros((0, 0)), np.zeros(0), EmptyInput),
            (np.ones(3), np.zeros(3), DimensionMismatch),
            (np.eye(2), np.array([1.0, np.nan]), ConfigInvalid),
        ],
        ids=["empty", "one_dimensional", "nan_moment"],
    )
    def test_malformed_system_raises_typed_error(self, G, g, error, lam):
        with pytest.raises(error):
            solve_aggregation(G, g, lam)

    def test_overflowing_trace_is_config_invalid(self):
        # Every entry is finite, but trace(G)/m is not.
        with np.errstate(over="ignore"), pytest.raises(
            ConfigInvalid, match="overflows"
        ):
            solve_aggregation(np.diag([1e308, 1e308]), np.zeros(2))


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


def reference_weighted_sq_risk(preds, labels, weights) -> float:
    """The per-model evaluator that ``model_risks`` called once per model
    before the blocked kernel, kept verbatim as the bitwise reference."""
    p = as_label_matrix(preds)
    y = as_label_matrix(labels)
    if p.shape != y.shape:
        raise DimensionMismatch(f"predictions {p.shape} vs labels {y.shape}")
    diff = p - y
    row = np.einsum("nd,nd->n", diff, diff, optimize=False)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (p.shape[0],):
            raise DimensionMismatch(
                f"weights have shape {w.shape}, expected ({p.shape[0]},)"
            )
        if np.any(w < 0):
            raise NegativeWeight("weights contain negative entries")
        row = row * w
    return float(np.sum(row)) / p.shape[0]


def reference_model_risks(preds, labels, weights=None) -> np.ndarray:
    return np.array(
        [reference_weighted_sq_risk(p, labels, weights) for p in preds]
    )


def _block_step(n, d2):
    return max(1, aggregation._RISK_BLOCK_VALUES // (n * d2))


def _risk_inputs(m, n, d2, weight_kind, seed):
    """Seeded predictions whose last model copies the first, labels, weights."""
    rng = np.random.Generator(np.random.Philox(seed))
    preds = rng.standard_normal((m, n, d2)) * rng.uniform(0.1, 100.0, (m, 1, 1))
    preds[-1] = preds[0]
    labels = rng.standard_normal((n, d2))
    weights = {
        "none": None,
        "ones": np.ones(n),
        "zeros": np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 3.0, n)),
    }[weight_kind]
    return preds, labels, weights


def assert_risks_match_reference(preds, labels, weights):
    risks = model_risks(preds, labels, weights)
    ref = reference_model_risks(preds, labels, weights)
    assert risks.dtype == np.float64 and risks.shape == ref.shape
    assert risks.tobytes() == ref.tobytes()
    assert risks[-1] == risks[0]  # the copied model ties exactly
    single = (
        empirical_risk(preds[0], labels)
        if weights is None
        else importance_weighted_risk(preds[0], labels, weights)
    )
    assert single == ref[0]


class TestRiskKernelParity:
    """``model_risks`` scores models in blocks, bit for bit as the
    per-model loop did, on both sides of every block edge."""

    @given(
        n=st.sampled_from([1, 2, 127, 10_000]),
        d2=st.sampled_from([1, 2, 3]),
        step=st.integers(1, 6),
        m_of_step=st.sampled_from(["1", "s-1", "s", "s+1", "3s+1"]),
        weight_kind=st.sampled_from(["none", "ones", "zeros"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_per_model_loop(
        self, n, d2, step, m_of_step, weight_kind, seed
    ):
        m = max(1, {"1": 1, "s-1": step - 1, "s": step, "s+1": step + 1,
                    "3s+1": 3 * step + 1}[m_of_step])
        preds, labels, weights = _risk_inputs(m, n, d2, weight_kind, seed)
        with pytest.MonkeyPatch.context() as mp:
            # Blocks of exactly ``step`` models at this shape.
            mp.setattr(aggregation, "_RISK_BLOCK_VALUES", step * n * d2)
            assert _block_step(n, d2) == step
            assert_risks_match_reference(preds, labels, weights)

    @pytest.mark.parametrize("weight_kind", ["none", "ones", "zeros"])
    @pytest.mark.parametrize("n, d2", [(127, 1), (10_000, 1), (10_000, 2), (10_000, 3)])
    def test_shipped_block_size_edges(self, n, d2, weight_kind):
        step = _block_step(n, d2)
        for m in sorted({max(1, step - 1), step, step + 1, 3 * step + 1}):
            preds, labels, weights = _risk_inputs(m, n, d2, weight_kind, seed=m)
            assert_risks_match_reference(preds, labels, weights)

    def test_one_dimensional_labels(self):
        preds, labels, weights = _risk_inputs(9, 50, 1, "zeros", seed=3)
        assert model_risks(preds, labels[:, 0], weights).tobytes() == (
            reference_model_risks(preds, labels[:, 0], weights).tobytes()
        )

    def test_concurrent_calls_are_byte_identical(self):
        inputs = [_risk_inputs(40, 10_000, 1, "zeros", seed=s) for s in range(4)]
        serial = [model_risks(*args).tobytes() for args in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(
                pool.map(lambda a: model_risks(*a).tobytes(), inputs, timeout=120)
            )
        assert got == serial

    @pytest.mark.parametrize(
        "preds, labels, weights",
        [
            (np.zeros((2, 5, 1)), np.zeros((4, 1)), None),
            (np.zeros((2, 5, 2)), np.zeros((5, 1)), None),
            (np.zeros((2, 5, 1)), np.zeros(5), np.ones(4)),
            (np.zeros((2, 5, 1)), np.zeros(5), np.ones((5, 1))),
            (np.zeros((2, 5, 1)), np.zeros(5), np.array([1.0, -1.0, 0, 0, 0])),
        ],
    )
    def test_errors_keep_type_and_message(self, preds, labels, weights):
        with pytest.raises((DimensionMismatch, NegativeWeight)) as ref:
            reference_model_risks(preds, labels, weights)
        for call in (
            lambda: model_risks(preds, labels, weights),
            lambda: importance_weighted_risk(preds[0], labels, weights)
            if weights is not None
            else empirical_risk(preds[0], labels),
        ):
            with pytest.raises(type(ref.value)) as got:
                call()
            assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_raise_config_invalid(self, bad):
        preds, labels, _ = _risk_inputs(3, 6, 1, "none", seed=5)
        weights = np.ones(6)
        weights[2] = bad
        for call in (
            lambda: model_risks(preds, labels, [bad] * 6),
            lambda: model_risks(preds, labels, weights),
            lambda: importance_weighted_risk(preds[0], labels, weights),
            lambda: compute_g_vector(preds, labels, weights),
        ):
            with pytest.raises(ConfigInvalid, match="non-finite"):
                call()

    def test_zero_samples_raise_empty_input(self):
        with pytest.raises(ZeroDivisionError):
            reference_weighted_sq_risk(np.zeros((0, 1)), np.zeros((0, 1)), None)
        with pytest.raises(EmptyInput):
            empirical_risk(np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(EmptyInput):
            importance_weighted_risk(np.zeros((0, 2)), np.zeros((0, 2)), np.ones(0))
        with pytest.raises(EmptyInput):
            model_risks(np.zeros((3, 0, 1)), np.zeros((0, 1)))


class TestOverflowingRisk:
    """A risk that overflows float64 is refused, never returned as inf."""

    @pytest.mark.parametrize("d2", [1, 3])
    def test_names_the_first_model_whose_risk_overflows(self, d2):
        preds = np.zeros((3, 4, d2))
        preds[1, 3, 0] = preds[2, 0, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="risk of model 1 is inf"):
                model_risks(preds, np.zeros((4, d2)))

    @pytest.mark.parametrize(
        "weights, value",
        [([1.0, 1.0, 1e300, 1.0], "inf"), ([1.0, 0.0, 1.0, 1.0], "nan")],
        ids=["huge_weight", "zero_weight_on_overflow"],
    )
    def test_single_risk(self, weights, value):
        preds = np.array([[1e10], [1e200], [1e10], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=f"the risk is {value}"):
                importance_weighted_risk(preds, np.zeros((4, 1)), weights)


class TestRiskReport:
    """The pick is derived from the per-model risks, never passed in."""

    def test_selected_risk_is_the_lowest_index_argmin(self):
        report = RiskReport(
            risk_kind="source", per_model_risk=(3.0, 0.5, 0.5, 2.0), aggregated_risk=0.4
        )
        assert report.selected_index == 1
        assert report.selected_risk == report.per_model_risk[report.selected_index]

    def test_made_report_derives_its_pick(self):
        bundle = build_bundle(m=5, n_s=20, seed=46)
        report = make_risk_report(bundle, np.full(5, 0.2), "source")
        risks = model_risks(bundle.source_preds, bundle.source.labels)
        assert report.per_model_risk == tuple(risks.tolist())
        assert report.selected_index == int(np.argmin(risks))
        assert report.selected_risk == report.per_model_risk[report.selected_index]

    def test_each_kind_scores_its_own_sample(self):
        bundle = build_bundle(m=4, n_s=20, n_t=15, d2=2, with_oracle=True, seed=47)
        c = np.array([0.4, -0.1, 0.3, 0.2])
        beta = np.linspace(0.1, 2.0, 20)
        cases = {
            "source": (bundle.source_preds, bundle.source.labels, None),
            "importance_weighted": (bundle.source_preds, bundle.source.labels, beta),
            "target_oracle": (bundle.target_preds, bundle.target.oracle_labels, None),
        }
        for kind, (preds, labels, weights) in cases.items():
            report = make_risk_report(bundle, c, kind, beta)
            assert report.risk_kind == kind
            assert report.per_model_risk == tuple(
                model_risks(preds, labels, weights).tolist()
            )
            assert report.aggregated_risk == float(
                model_risks(aggregate_predict(preds, c)[None], labels, weights)[0]
            )

    def test_missing_inputs_are_refused(self):
        bundle = build_bundle(m=2, n_s=6, seed=48)
        with pytest.raises(MissingOracleLabels):
            make_risk_report(bundle, np.ones(2), "target_oracle")
        with pytest.raises(ConfigInvalid, match="needs beta"):
            make_risk_report(bundle, np.ones(2), "importance_weighted")

    @pytest.mark.parametrize("field", ["selected_index", "selected_risk"])
    def test_pick_is_not_a_parameter(self, field):
        with pytest.raises(TypeError):
            RiskReport(
                risk_kind="source",
                per_model_risk=(1.0, 2.0),
                aggregated_risk=0.5,
                **{field: 0},
            )


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

    def test_nan_ratio_model_is_rejected(self):
        bundle = build_bundle(m=2, n_s=6, n_t=6, seed=9)
        alpha = np.ones(6)
        alpha[2] = np.nan
        model = RatioModel(
            kind="ulsif",
            bound=20.0,
            centers=bundle.target.features,
            alpha=alpha,
            kernel_width=1.0,
        )
        with pytest.raises(ConfigInvalid, match="non-finite"):
            resolve_beta(bundle, model)

    def test_builds_no_oracle_part(self, monkeypatch):
        calls = []
        real = aggregation.compute_g_vector

        def counting(preds, labels, beta):
            calls.append(preds)
            return real(preds, labels, beta)

        monkeypatch.setattr(aggregation, "compute_g_vector", counting)
        bundle = build_bundle(m=3, n_s=10, n_t=12, with_oracle=True, seed=7)
        run_aggregation(bundle, np.ones(10))
        assert len(calls) == 1 and calls[0] is bundle.source_preds
        moments = aggregation.target_moments(bundle)
        assert "oracle_moment" not in vars(moments)
        # The oracle part is built on its first request, on the kept G.
        G = moments.gram
        oracle = aggregation.oracle_aggregate(bundle)
        assert oracle.gram is G and len(calls) == 2
        assert calls[1] is bundle.target_preds

    def test_diagnostics_populated(self):
        bundle = build_bundle(m=2, n_s=10, n_t=10, seed=8)
        res = run_aggregation(bundle, np.ones(10))
        for key in (
            "condition_estimate",
            "beta_saturation_fraction",
            "lambda_escalations",
            "lambda_refusals",
            "residual_inf",
        ):
            assert key in res.diagnostics
        assert res.diagnostics["lambda_refusals"] == ()

    @pytest.mark.parametrize(
        "beta, ess",
        [
            (np.eye(10)[3] * 7.5, 1.0),  # one sample carries all the weight
            (np.full(10, 0.25), 10.0),  # equal weights
            (np.zeros(10), 0.0),
        ],
        ids=["one_hot", "equal", "all_zero"],
    )
    def test_kish_effective_sample_size(self, beta, ess):
        bundle = build_bundle(m=2, n_s=10, n_t=10, seed=8)
        diag = run_aggregation(bundle, beta).diagnostics
        assert diag["beta_effective_sample_size"] == ess
        assert diag["beta_effective_fraction"] == ess / 10
        keys = list(diag)
        at = keys.index("beta_saturation_fraction")
        assert keys[at + 1 : at + 3] == [
            "beta_effective_sample_size", "beta_effective_fraction"
        ]

    def test_effective_sample_size_of_huge_weights_is_finite(self):
        # Their squares overflow; the ratio of the scaled weights does not.
        beta = np.array([1e300, 1e300, 0.0, 5e299])
        diag = aggregation.Weights(beta).diagnostics
        assert diag["beta_effective_sample_size"] == 2.5**2 / 2.25


class TestWeights:
    """One checked :class:`aggregation.Weights` record per weight source."""

    def test_each_public_call_scans_a_vector_once(self, monkeypatch):
        bundle = build_bundle(m=4, n_s=12, n_t=9, seed=70)
        beta = np.linspace(0.1, 2.0, 12)
        scans = count_weight_scans(monkeypatch)
        run_aggregation(bundle, beta)
        assert scans == [12]
        make_risk_report(bundle, np.full(4, 0.25), "importance_weighted", beta)
        assert scans == [12, 12]
        weights = resolve_beta(bundle, beta)
        assert scans == [12, 12, 12]
        # A record is only length-checked.
        run_aggregation(bundle, weights)
        make_risk_report(bundle, np.full(4, 0.25), "importance_weighted", weights)
        assert resolve_beta(bundle, weights) is weights
        assert scans == [12, 12, 12]

    def test_record_of_wrong_length_is_refused(self):
        bundle = build_bundle(m=2, n_s=6, seed=71)
        weights = aggregation.Weights(np.ones(5))
        preds, labels = bundle.source_preds, bundle.source.labels
        for call in (
            lambda: resolve_beta(bundle, weights),
            lambda: run_aggregation(bundle, weights),
            lambda: make_risk_report(bundle, np.ones(2), "importance_weighted", weights),
            lambda: compute_g_vector(preds, labels, weights),
            lambda: model_risks(preds, labels, weights),
        ):
            with pytest.raises(DimensionMismatch, match=r"\(5,\), expected \(6,\)"):
                call()

    def test_record_keeps_its_own_read_only_copy(self):
        bundle = build_bundle(m=2, n_s=6, seed=72)
        beta = np.linspace(0.5, 1.5, 6)
        expected = beta.copy()
        weights = resolve_beta(bundle, beta)
        assert beta.flags.writeable and not weights.beta.flags.writeable
        beta[:] = -1.0
        assert weights.beta.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            weights.beta[0] = 2.0
        with pytest.raises(FrozenInstanceError):
            weights.saturation = 0.5

    def test_empty_vector_is_refused(self):
        # Its diagnostics would have no maximum and no mean.
        with pytest.raises(EmptyInput):
            aggregation.Weights(np.array([]))

    def test_ratio_model_vector_and_record_solve_alike(self):
        bundle = build_bundle(m=3, n_s=10, n_t=8, seed=73)
        model = RatioModel(
            kind="ulsif",
            bound=1.5,
            centers=bundle.target.features,
            alpha=np.full(8, 0.5),
            kernel_width=1.0,
        )
        weights = resolve_beta(bundle, model)
        beta, saturation = weights
        assert beta is weights.beta
        evaluated = evaluate_ratio(model, bundle.source.features)
        assert beta.tobytes() == evaluated.tobytes()
        assert saturation == float(np.mean(evaluated >= 1.5))
        assert 0.0 < saturation < 1.0
        by_model, by_vector, by_record = (
            run_aggregation(bundle, w) for w in (model, evaluated, weights)
        )
        assert by_vector.diagnostics["beta_saturation_fraction"] is None
        assert by_model.diagnostics == by_record.diagnostics == {
            **by_vector.diagnostics, "beta_saturation_fraction": saturation
        }
        assert by_model.diagnostics.items() >= weights.diagnostics.items()
        for res in (by_vector, by_record):
            assert res.coefficients.tobytes() == by_model.coefficients.tobytes()


def _rank_three_bundle():
    """Twenty models whose target predictions span three directions, and a
    source side that puts ``g`` off the range of ``G``: the base rung's
    residual misses the contract (compare ``TestLambdaRefusals``)."""
    rng = np.random.Generator(np.random.Philox(30))
    return PredictionBundle(
        model_names=tuple(f"m{k}" for k in range(20)),
        source_preds=10.0 * rng.standard_normal((20, 1, 1)),
        target_preds=rng.standard_normal((20, 3, 1)),
        source=SourceDataset(labels=np.ones((1, 1))),
        target=TargetDataset(n_samples_hint=3),
    )


class TestKeptFactors:
    """Each automatic rung's factor of ``G + lam*I`` is kept on the
    bundle's record; ``g``, the solve and the residual are per call."""

    def test_second_call_factors_nothing_to_the_same_bits(self, monkeypatch):
        lams = count_factorizations(monkeypatch)
        bundle = build_bundle(m=5, n_s=12, n_t=9, seed=90)
        beta = np.linspace(0.5, 1.5, 12)
        first = run_aggregation(bundle, beta)
        assert lams == [first.tikhonov]
        second = run_aggregation(bundle, beta)
        assert lams == [first.tikhonov]
        assert second.coefficients.tobytes() == first.coefficients.tobytes()
        assert second.diagnostics == first.diagnostics
        # A new beta reuses the factor too.
        run_aggregation(bundle, beta[::-1])
        assert len(lams) == 1

    def test_replace_copy_factors_its_own(self, monkeypatch):
        bundle = build_bundle(m=5, n_s=12, n_t=9, seed=91)
        beta = np.linspace(0.5, 1.5, 12)
        warm = run_aggregation(bundle, beta)
        lams = count_factorizations(monkeypatch)
        copy = replace(bundle)
        cold = run_aggregation(copy, beta)
        assert lams == [warm.tikhonov]
        assert cold.coefficients.tobytes() == warm.coefficients.tobytes()
        kept = [vars(aggregation.target_moments(b))["_factors"] for b in (bundle, copy)]
        (L_warm, cond_warm), (L_cold, cond_cold) = (k[warm.tikhonov] for k in kept)
        assert L_cold is not L_warm and cond_cold == cond_warm
        assert L_cold.tobytes() == L_warm.tobytes()

    def test_factorization_refusal_is_kept(self, monkeypatch):
        bundle = build_bundle(m=4, n_s=10, n_t=8, seed=92)
        base = 1e-8 * float(np.trace(compute_gram(bundle.target_preds))) / 4
        lams = []
        real = aggregation._cho_factor

        def refuse_base(G, lam, check_finite=True):
            lams.append(lam)
            if lam == base:
                raise SingularSystem("not positive definite")
            return real(G, lam, check_finite)

        monkeypatch.setattr(aggregation, "_cho_factor", refuse_base)
        results = [run_aggregation(bundle, np.ones(10)) for _ in range(3)]
        assert lams == [base, base * 10.0]
        refused = ((base, f"factorization failed at lam={base!r}; supply a larger value"),)
        for res in results:
            assert res.tikhonov == base * 10.0
            assert res.diagnostics["lambda_refusals"] == refused
            assert res.diagnostics["lambda_escalations"] == 1

    def test_residual_refusal_escalates_on_every_call(self, monkeypatch):
        bundle = _rank_three_bundle()
        factors = count_factorizations(monkeypatch)
        solves = count_solves(monkeypatch)
        first = run_aggregation(bundle, np.ones(1))
        refusals = first.diagnostics["lambda_refusals"]
        assert len(refusals) >= 1
        assert all(reason.startswith("residual ") for _, reason in refusals)
        ladder = [lam for lam, _ in refusals] + [first.tikhonov]
        assert factors == solves == ladder
        second = run_aggregation(bundle, np.ones(1))
        assert factors == ladder and solves == ladder + ladder
        assert second.diagnostics["lambda_refusals"] == refusals
        assert second.coefficients.tobytes() == first.coefficients.tobytes()

    def test_explicit_lambda_is_factored_on_every_call(self, monkeypatch):
        lams = count_factorizations(monkeypatch)
        bundle = build_bundle(m=3, n_s=10, n_t=8, seed=93)
        for _ in range(2):
            assert run_aggregation(bundle, np.ones(10), 1e-3).tikhonov == 1e-3
        assert lams == [1e-3, 1e-3]
        assert vars(aggregation.target_moments(bundle))["_factors"] == {}

    def test_kept_gram_is_checked_once(self, monkeypatch):
        bundle = build_bundle(m=3, n_s=10, n_t=8, seed=94)
        checks = []
        real = aggregation._check_symmetric
        monkeypatch.setattr(
            aggregation, "_check_symmetric", lambda G: checks.append(G) or real(G)
        )
        for lam in (None, None, 1e-3):
            run_aggregation(bundle, np.ones(10), lam)
        assert len(checks) == 1
        # A caller's own G is checked on every solve.
        G = compute_gram(bundle.target_preds)
        for _ in range(2):
            solve_aggregation(G, np.ones(3))
        assert len(checks) == 3

    def test_non_finite_kept_gram_is_refused_on_every_call(self):
        # Finite predictions whose squares overflow: G holds inf.
        bundle = build_bundle(m=2, n_s=4, n_t=3, seed=95)
        bundle = replace(bundle, target_preds=bundle.target_preds * 1e200)
        for _ in range(2):
            with np.errstate(over="ignore"), pytest.raises(
                ConfigInvalid, match="must be finite"
            ):
                run_aggregation(bundle, np.ones(4))

    def test_concurrent_calls_on_a_new_bundle_are_byte_identical(self):
        base = build_bundle(m=40, n_s=200, n_t=150, seed=96)
        beta = np.linspace(0.2, 2.0, 200)
        expected = run_aggregation(replace(base), beta)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                bundle = replace(base)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(
                        lambda _: run_aggregation(bundle, beta), range(16), timeout=120
                    ))
                for res in results:
                    assert res.coefficients.tobytes() == expected.coefficients.tobytes()
                    assert res.diagnostics == expected.diagnostics
                kept = vars(aggregation.target_moments(bundle))["_factors"]
                assert list(kept) == [expected.tikhonov]
        finally:
            sys.setswitchinterval(interval)


class TestOracleAggregate:
    def test_requires_oracle_labels(self):
        with pytest.raises(MissingOracleLabels):
            oracle_aggregate(build_bundle(with_oracle=False))

    def test_has_no_weight_diagnostics(self):
        diag = oracle_aggregate(build_bundle(with_oracle=True, seed=9)).diagnostics
        for key in (
            "beta_saturation_fraction",
            "beta_effective_sample_size",
            "beta_effective_fraction",
        ):
            assert diag[key] is None

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
