"""Selection baselines and the method comparison report."""

from dataclasses import replace

import numpy as np
import pytest

from shiftagg import aggregation, selection
from shiftagg.aggregation import (
    aggregate_predict,
    compute_g_vector,
    compute_gram,
    empirical_risk,
    importance_weighted_risk,
    model_risks,
    resolve_beta,
    solve_aggregation,
)
from shiftagg.data import PredictionBundle, SourceDataset, TargetDataset
from shiftagg.errors import IllConditioned
from shiftagg.ratio import RatioFitConfig, evaluate_ratio, fit_ratio
from shiftagg.selection import (
    RESERVED_METHOD_NAMES,
    MethodRow,
    build_method_rows,
    compare_methods,
    select_iwv,
    select_source_risk,
)
from shiftagg.serialize import dumps_canonical
from shiftagg.synth import SuiteConfig, SynthTaskConfig, generate_task, run_suite

from conftest import build_bundle


def bundle_with_perfect_model(idx=0, m=3, n_s=12, seed=31):
    rng = np.random.Generator(np.random.Philox(seed))
    y = rng.standard_normal((n_s, 1))
    preds = rng.standard_normal((m, n_s, 1))
    preds[idx] = y
    return PredictionBundle(
        model_names=tuple(f"m{k}" for k in range(m)),
        source_preds=preds,
        target_preds=rng.standard_normal((m, 5, 1)),
        source=SourceDataset(labels=y),
        target=TargetDataset(n_samples_hint=5),
    )


class TestSelectSourceRisk:
    def test_perfect_model_selected(self):
        out = select_source_risk(bundle_with_perfect_model(idx=0))
        assert out.selected_index == 0
        assert not out.tie_broken

    def test_identical_models_tie_break_low_index(self):
        base = build_bundle(m=1, n_s=10, n_t=5, seed=32)
        dup = PredictionBundle(
            model_names=("a", "b"),
            source_preds=np.repeat(base.source_preds, 2, axis=0),
            target_preds=np.repeat(base.target_preds, 2, axis=0),
            source=base.source,
            target=base.target,
        )
        out = select_source_risk(dup)
        assert out.selected_index == 0
        assert out.tie_broken

    def test_matches_brute_force(self):
        bundle = build_bundle(m=3, n_s=25, seed=33)
        out = select_source_risk(bundle)
        risks = [
            empirical_risk(bundle.source_preds[k], bundle.source.labels)
            for k in range(3)
        ]
        assert out.selected_index == int(np.argmin(risks))
        np.testing.assert_array_equal(out.scores, risks)


class TestSelectIwv:
    def test_beta_one_reduces_to_source_selection(self):
        bundle = build_bundle(m=4, n_s=20, seed=34)
        a = select_source_risk(bundle)
        b = select_iwv(bundle, np.ones(20))
        assert a.selected_index == b.selected_index
        assert a.scores == b.scores  # bitwise
        assert a.tie_broken == b.tie_broken

    def test_point_mass_selects_pointwise_best(self):
        bundle = build_bundle(m=3, n_s=6, seed=35)
        beta = np.zeros(6)
        beta[2] = 6.0
        out = select_iwv(bundle, beta)
        pointwise = [
            float(np.sum((bundle.source_preds[k, 2] - bundle.source.labels[2]) ** 2))
            for k in range(3)
        ]
        assert out.selected_index == int(np.argmin(pointwise))

    def test_score_isolation_under_model_scaling(self):
        # Scaling one model's predictions must leave every other score alone.
        bundle = build_bundle(m=3, n_s=15, seed=36)
        beta = np.random.Generator(np.random.Philox(37)).uniform(0.1, 2.0, 15)
        before = select_iwv(bundle, beta).scores
        scaled_preds = bundle.source_preds.copy()
        scaled_preds[1] *= 2.5
        scaled = PredictionBundle(
            model_names=bundle.model_names,
            source_preds=scaled_preds,
            target_preds=bundle.target_preds,
            source=bundle.source,
            target=bundle.target,
        )
        after = select_iwv(scaled, beta).scores
        assert after[0] == before[0] and after[2] == before[2]
        assert after[1] != before[1]

    def test_shifted_tasks_iwv_beats_source_selection(self):
        # Monte Carlo: with the exact ratio, importance-weighted selection
        # should pick a model at least as good on the target as the naive
        # source-risk pick in the vast majority of shifted tasks.
        wins = 0
        trials = 100
        seeds = np.random.SeedSequence(77).generate_state(trials, dtype=np.uint64)
        for s in seeds:
            task = generate_task(
                SynthTaskConfig(target_mean=(1.2, 0, 0, 0, 0), seed=int(s))
            )
            beta = evaluate_ratio(
                task.analytic_ratio, task.bundle.source.features
            )
            iwv = select_iwv(task.bundle, beta)
            src = select_source_risk(task.bundle)
            if (
                task.true_model_risks[iwv.selected_index]
                <= task.true_model_risks[src.selected_index]
            ):
                wins += 1
        assert wins >= 80


class TestCompareMethods:
    def test_single_model_methods_coincide(self):
        bundle = build_bundle(m=1, n_s=30, n_t=30, with_oracle=True, seed=38)
        report = compare_methods(bundle, np.ones(30))
        sel = report.row("select_source").detail["selected_index"]
        iwv = report.row("select_iwv").detail["selected_index"]
        assert sel == iwv == 0
        # The lone coefficient is the ratio-weighted projection, shrunk by
        # the default regularizer.
        agg = report.row("aggregate")
        assert len(agg.detail["coefficients"]) == 1

    def test_bayes_model_in_bundle_oracle_dominates(self):
        rng = np.random.Generator(np.random.Philox(39))
        y_t = rng.standard_normal((40, 1))
        target_preds = np.stack([y_t, rng.standard_normal((40, 1))])
        bundle = PredictionBundle(
            model_names=("bayes", "other"),
            source_preds=rng.standard_normal((2, 20, 1)),
            target_preds=target_preds,
            source=SourceDataset(labels=rng.standard_normal((20, 1))),
            target=TargetDataset(oracle_labels=y_t),
        )
        report = compare_methods(bundle, np.ones(20))
        assert (
            report.row("aggregate_oracle").true_target_risk
            <= report.row("model:bayes").true_target_risk + 1e-9
        )

    def test_rows_sorted_and_ratios_vs_oracle(self):
        task = generate_task(SynthTaskConfig(n_s=80, n_t=80, family_size=3, seed=40))
        beta = evaluate_ratio(task.analytic_ratio, task.bundle.source.features)
        report = compare_methods(task.bundle, beta)
        names = report.method_names()
        assert list(names) == sorted(names)
        oracle = report.row("aggregate_oracle").true_target_risk
        row = report.row("model:m00")
        np.testing.assert_allclose(
            row.risk_ratio_vs_oracle, row.true_target_risk / oracle, rtol=1e-12
        )

    def test_without_ratio_only_ratio_free_rows(self):
        bundle = build_bundle(m=2, with_oracle=True, seed=41)
        names = compare_methods(bundle).method_names()
        assert "select_iwv" not in names and "aggregate" not in names
        assert "select_source" in names and "aggregate_oracle" in names

    def test_reserved_method_slots_stay_free(self):
        bundle = build_bundle(m=2, seed=42)
        names = compare_methods(bundle, np.ones(3)).method_names()
        for reserved in RESERVED_METHOD_NAMES:
            assert reserved not in names

    def test_table_renders(self):
        bundle = build_bundle(m=2, with_oracle=True, seed=43)
        table = compare_methods(bundle, np.ones(3)).format_table()
        assert "method" in table and "select_source" in table


def test_target_gram_is_built_once_per_comparison(monkeypatch):
    calls = []
    real = aggregation.compute_gram

    def counting(preds):
        calls.append(1)
        return real(preds)

    for module in (aggregation, selection):
        monkeypatch.setattr(module, "compute_gram", counting)
    bundle = build_bundle(m=3, n_s=6, n_t=5, with_oracle=True, seed=44)
    rows = build_method_rows(
        bundle, {"a": np.ones(6), "b": np.linspace(0.5, 1.5, 6)}, None
    )
    assert {"aggregate_oracle", "aggregate_a", "aggregate_b"} <= {
        r.method for r in rows
    }
    assert len(calls) == 1

    calls.clear()
    cfg = SuiteConfig(
        task=SynthTaskConfig(n_s=60, n_t=60, family_size=3),
        ratio=RatioFitConfig(n_centers=20, cv_folds=2),
    )
    run_suite(cfg, trials=1, seeds=0)
    assert len(calls) == 1


def reference_build_method_rows(bundle, beta_by_name, lam):
    """Two-pass table builder: its own ones-weighted oracle solve, then a
    second pass over every row to set the oracle ratio."""
    labels_t = bundle.target.oracle_labels
    sel = select_source_risk(bundle)
    true_risks = (
        [None] * bundle.model_count
        if labels_t is None
        else model_risks(bundle.target_preds, labels_t).tolist()
    )
    needs_gram = labels_t is not None or beta_by_name
    G = compute_gram(bundle.target_preds) if needs_gram else None

    def true_risk_of(coefficients):
        if labels_t is None:
            return None
        return empirical_risk(
            aggregate_predict(bundle.target_preds, coefficients), labels_t
        )

    rows = [
        MethodRow(
            method=f"model:{name}",
            estimated_score=sel.scores[k],
            true_target_risk=true_risks[k],
        )
        for k, name in enumerate(bundle.model_names)
    ]
    rows.append(
        MethodRow(
            method="select_source",
            estimated_score=sel.scores[sel.selected_index],
            true_target_risk=true_risks[sel.selected_index],
            detail={"selected_index": sel.selected_index, "tie_broken": sel.tie_broken},
        )
    )

    oracle_true = None
    if labels_t is not None:
        ones = np.ones(bundle.target.n_samples)
        g_oracle = compute_g_vector(bundle.target_preds, labels_t, ones)
        try:
            ores = solve_aggregation(G, g_oracle, 0.0)
            oracle_true = true_risk_of(ores.coefficients)
            rows.append(
                MethodRow(
                    method="aggregate_oracle",
                    true_target_risk=oracle_true,
                    detail={
                        "coefficients": list(ores.coefficients),
                        "tikhonov": ores.tikhonov,
                        "condition_estimate": ores.condition_estimate,
                    },
                )
            )
        except IllConditioned as exc:
            rows.append(
                MethodRow(method="aggregate_oracle", detail={"error": str(exc)})
            )

    for suffix, ratio in beta_by_name.items():
        tag = f"_{suffix}" if suffix else ""
        beta, _ = resolve_beta(bundle, ratio)
        sel_iwv = select_iwv(bundle, beta)
        rows.append(
            MethodRow(
                method=f"select_iwv{tag}",
                estimated_score=sel_iwv.scores[sel_iwv.selected_index],
                true_target_risk=true_risks[sel_iwv.selected_index],
                detail={
                    "selected_index": sel_iwv.selected_index,
                    "tie_broken": sel_iwv.tie_broken,
                },
            )
        )
        g = compute_g_vector(bundle.source_preds, bundle.source.labels, beta)
        result = solve_aggregation(G, g, lam)
        est = importance_weighted_risk(
            aggregate_predict(bundle.source_preds, result.coefficients),
            bundle.source.labels,
            beta,
        )
        rows.append(
            MethodRow(
                method=f"aggregate{tag}",
                estimated_score=est,
                true_target_risk=true_risk_of(result.coefficients),
                detail={
                    "coefficients": list(result.coefficients),
                    "tikhonov": result.tikhonov,
                    "condition_estimate": result.condition_estimate,
                    "lambda_escalations": result.diagnostics["lambda_escalations"],
                },
            )
        )

    rows.sort(key=lambda r: r.method)
    if oracle_true is not None and oracle_true > 0:
        rows = [
            replace(
                r,
                risk_ratio_vs_oracle=(
                    None
                    if r.true_target_risk is None
                    else r.true_target_risk / oracle_true
                ),
            )
            for r in rows
        ]
    return rows


def _table_text(rows):
    return dumps_canonical([r.to_json_dict() for r in rows])


class TestMatchesReferenceBuilder:
    @pytest.mark.parametrize("estimator", ["ulsif", "logistic"])
    def test_synth_task_with_fitted_ratio(self, estimator):
        task = generate_task(SynthTaskConfig(n_s=80, n_t=80, family_size=4, seed=45))
        fitted = fit_ratio(
            task.bundle.source.features,
            task.bundle.target.features,
            RatioFitConfig(estimator=estimator, n_centers=20, cv_folds=2, seed=3),
        )
        betas = {"analytic": task.analytic_ratio, estimator: fitted}
        for lam in (None, 1e-6):
            rows = build_method_rows(task.bundle, betas, lam)
            assert {f"aggregate_{estimator}", "aggregate_oracle"} <= {
                r.method for r in rows
            }
            assert _table_text(rows) == _table_text(
                reference_build_method_rows(task.bundle, betas, lam)
            )

    def test_bundle_without_oracle_labels(self):
        bundle = build_bundle(m=3, n_s=8, n_t=6, seed=46)
        for betas in ({}, {"": np.linspace(0.5, 1.5, 8)}):
            rows = build_method_rows(bundle, betas, None)
            assert all(r.risk_ratio_vs_oracle is None for r in rows)
            assert _table_text(rows) == _table_text(
                reference_build_method_rows(bundle, betas, None)
            )

    def test_refused_oracle_keeps_error_row(self):
        base = build_bundle(m=1, n_s=8, n_t=6, with_oracle=True, seed=47)
        dup = PredictionBundle(
            model_names=("a", "b"),
            source_preds=np.repeat(base.source_preds, 2, axis=0),
            target_preds=np.repeat(base.target_preds, 2, axis=0),
            source=base.source,
            target=base.target,
        )
        betas = {"": np.linspace(0.5, 1.5, 8)}
        rows = build_method_rows(dup, betas, None)
        oracle = next(r for r in rows if r.method == "aggregate_oracle")
        assert "lam=0.0" in oracle.detail["error"]
        assert oracle.true_target_risk is None
        assert all(r.risk_ratio_vs_oracle is None for r in rows)
        assert _table_text(rows) == _table_text(
            reference_build_method_rows(dup, betas, None)
        )
