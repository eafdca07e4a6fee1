"""Synthetic task generation: analytic ratios, determinism, family behavior."""

import numpy as np
import pytest

from shiftagg.errors import ConfigInvalid
from shiftagg.ratio import RatioFitConfig, evaluate_ratio
from shiftagg.serialize import dumps_canonical
from shiftagg.synth import (
    SuiteConfig,
    SynthTaskConfig,
    fit_model_family,
    generate_task,
    run_suite,
)


class TestAnalyticRatio:
    def test_no_shift_means_unit_ratio(self):
        task = generate_task(
            SynthTaskConfig(n_s=50, n_t=50, target_mean=(0.0,) * 5, seed=1)
        )
        beta = evaluate_ratio(task.analytic_ratio, task.bundle.source.features)
        np.testing.assert_array_equal(beta, np.ones(50))

    def test_point_value_matches_formula(self):
        # 1-D, means 0 and 0.5, unit variance, at x = 0:
        # exp((0 - 0.25) / 2) = exp(-0.125).
        task = generate_task(
            SynthTaskConfig(
                d1=1, n_s=5, n_t=5, source_mean=(0.0,), target_mean=(0.5,), seed=2
            )
        )
        beta = evaluate_ratio(task.analytic_ratio, np.array([[0.0]]))
        np.testing.assert_allclose(beta[0], np.exp(-0.125), rtol=1e-15)
        assert abs(beta[0] - 0.8825) < 5e-5

    def test_ratio_times_source_density_is_target_density(self):
        cfg = SynthTaskConfig(n_s=30, n_t=30, shared_cov_scale=2.0, seed=3)
        task = generate_task(cfg)
        rng = np.random.Generator(np.random.Philox(4))
        x = rng.normal(0.0, 1.5, (100, cfg.d1))
        mu_p = np.asarray(cfg.source_mean)
        mu_q = np.asarray(cfg.target_mean)
        s = cfg.shared_cov_scale

        def iso_gauss_pdf(x, mu):
            z = (2 * np.pi * s) ** (-cfg.d1 / 2)
            return z * np.exp(-np.sum((x - mu) ** 2, axis=1) / (2 * s))

        # Pre-truncation ratio from the model parameters.
        p = task.analytic_ratio.params
        raw = np.exp(
            (
                np.sum((x - np.asarray(p["source_mean"])) ** 2, axis=1)
                - np.sum((x - np.asarray(p["target_mean"])) ** 2, axis=1)
            )
            / (2 * p["cov_scale"])
        )
        np.testing.assert_allclose(
            raw * iso_gauss_pdf(x, mu_p), iso_gauss_pdf(x, mu_q), rtol=1e-10
        )


class TestGenerateTask:
    def test_same_label_function_both_domains(self):
        # Covariate shift by construction: regenerating target labels with
        # the source labeler reproduces them bitwise when noise is off.
        task = generate_task(SynthTaskConfig(n_s=40, n_t=40, noise_std=0.0, seed=5))
        regen = task.bayes_model.predict(task.bundle.target.features)
        np.testing.assert_array_equal(regen, task.bundle.target.oracle_labels)

    def test_noiseless_realizable_ridge_reaches_bayes(self):
        task = generate_task(
            SynthTaskConfig(
                noise_std=0.0,
                bayes_kind="linear",
                model_family="ridge_grid",
                family_size=3,
                ridge_grid=(1e-8, 1e-2, 1.0),
                seed=6,
            )
        )
        assert task.true_model_risks[0] <= 1e-6

    def test_bayes_dominates_noiseless(self):
        task = generate_task(SynthTaskConfig(noise_std=0.0, seed=7))
        assert task.bayes_target_risk <= min(task.true_model_risks) + 1e-12

    def test_deterministic_bundles(self):
        cfg = SynthTaskConfig(n_s=60, n_t=60, seed=8)
        a, b = generate_task(cfg), generate_task(cfg)
        assert a.bundle == b.bundle
        assert a.true_model_risks == b.true_model_risks

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            SynthTaskConfig(n_s=0)
        with pytest.raises(ConfigInvalid):
            SynthTaskConfig(shared_cov_scale=0.0)
        with pytest.raises(ConfigInvalid):
            SynthTaskConfig(source_mean=(0.0, 0.0))  # wrong length
        with pytest.raises(ConfigInvalid):
            SynthTaskConfig(bayes_kind="cubic")

    @pytest.mark.parametrize(
        "config, field, value",
        [
            (RatioFitConfig, "ridge_strengths", (np.nan,)),
            (RatioFitConfig, "ridge_strengths", (np.inf, 1.0)),
            (RatioFitConfig, "kernel_widths", (np.nan,)),
            (RatioFitConfig, "kernel_widths", (np.inf,)),
            (RatioFitConfig, "bound", np.inf),
            (SynthTaskConfig, "noise_std", np.nan),
            (SynthTaskConfig, "noise_std", np.inf),
            (SynthTaskConfig, "shared_cov_scale", np.inf),
            (SynthTaskConfig, "source_mean", (0.0, np.nan, 0.0, 0.0, 0.0)),
            (SynthTaskConfig, "target_mean", (-np.inf, 0.0, 0.0, 0.0, 0.0)),
            (SynthTaskConfig, "ridge_grid", (1e-2, np.nan)),
        ],
    )
    def test_non_finite_floats_are_refused(self, config, field, value):
        # JSON configs refuse these in decode_value; the Python API does here.
        with pytest.raises(ConfigInvalid, match=f"^{field} must be finite"):
            config(**{field: value})


class TestModelFamily:
    def test_huge_ridge_gives_near_constant_predictor(self):
        cfg = SynthTaskConfig(
            model_family="ridge_grid",
            family_size=1,
            ridge_grid=(1e6,),
            noise_std=0.0,
            bayes_kind="linear",
            seed=9,
        )
        task = generate_task(cfg)
        preds = task.bundle.source_preds[0]
        labels = task.bundle.source.labels
        assert float(np.var(preds)) < float(np.var(labels)) / 100.0

    def test_decreasing_regularizers_weakly_decreasing_risk(self):
        grid = (1e2, 1.0, 1e-2, 1e-4, 1e-6, 1e-8)
        task = generate_task(
            SynthTaskConfig(
                model_family="ridge_grid",
                bayes_kind="linear",
                noise_std=0.0,
                family_size=len(grid),
                ridge_grid=grid,
                seed=10,
            )
        )
        risks = task.true_model_risks
        for a, b in zip(risks, risks[1:]):
            assert b <= a + 1e-12

    def test_same_seed_bitwise_identical(self):
        cfg = SynthTaskConfig(n_s=30, n_t=30, seed=11)
        rng_inputs = np.random.Generator(np.random.Philox(12))
        xs = rng_inputs.standard_normal((30, 5))
        ys = rng_inputs.standard_normal((30, 1))
        xt = rng_inputs.standard_normal((30, 5))
        _, sp1, tp1 = fit_model_family(cfg, xs, ys, xt)
        _, sp2, tp2 = fit_model_family(cfg, xs, ys, xt)
        assert np.array_equal(sp1, sp2) and np.array_equal(tp1, tp2)

    def test_predictions_match_predictors(self):
        # Bit for bit: the source predictions reuse the fit's features.
        for family in ("random_features", "ridge_grid"):
            cfg = SynthTaskConfig(
                n_s=20, n_t=20, family_size=3, model_family=family, seed=13
            )
            task = generate_task(cfg)
            b = task.bundle
            for k, model in enumerate(task.predictors):
                for x, preds in (
                    (b.source.features, b.source_preds),
                    (b.target.features, b.target_preds),
                ):
                    assert model.predict(x).tobytes() == preds[k].tobytes()


class TestRunSuite:
    def test_single_trial_reproducible_bitwise(self):
        cfg = SuiteConfig(task=SynthTaskConfig(n_s=80, n_t=80), estimator=None)
        a = run_suite(cfg, 1, 21)
        b = run_suite(cfg, 1, 21)
        assert dumps_canonical(a.to_json_dict()) == dumps_canonical(b.to_json_dict())

    def test_both_aggregation_rows_present_with_estimator(self):
        cfg = SuiteConfig(task=SynthTaskConfig(n_s=80, n_t=80))
        rep = run_suite(cfg, 2, 23)
        names = rep.per_trial[0].row("aggregate_analytic").method
        assert names == "aggregate_analytic"
        assert rep.per_trial[0].row("aggregate_ulsif") is not None

    def test_poor_ratio_fit_degrades_aggregation(self):
        # A deliberately coarse kernel grid produces bad weights; the
        # resulting aggregation should lose to the analytic-ratio one in
        # every trial here (estimation error is not free).
        cfg = SuiteConfig(
            task=SynthTaskConfig(n_s=150, n_t=150),
            ratio=RatioFitConfig(kernel_widths=(0.25,), ridge_strengths=(1e-3,)),
        )
        rep = run_suite(cfg, 10, 24)
        diffs = [
            t.row("aggregate_ulsif").true_target_risk
            - t.row("aggregate_analytic").true_target_risk
            for t in rep.per_trial
        ]
        assert float(np.median(diffs)) >= 0.0

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_bad_lambda_refused_by_the_config(self, lam):
        with pytest.raises(
            ConfigInvalid, match="^tikhonov value must be finite and nonnegative"
        ):
            SuiteConfig(lam=lam)

    @pytest.mark.parametrize("lam", [None, 0.0, 1e-6, 1e300])
    def test_good_lambda_kept(self, lam):
        assert SuiteConfig(lam=lam).lam == lam

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_suite(SuiteConfig(), 0, 1)

    def test_explicit_seed_list(self):
        cfg = SuiteConfig(task=SynthTaskConfig(n_s=50, n_t=50), estimator=None)
        rep = run_suite(cfg, 2, [5, 9])
        assert rep.per_trial[0].task_seed == 5
        assert rep.per_trial[1].task_seed == 9
