"""Selection baselines and the method comparison report."""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from shiftagg.errors import (
    ConfigInvalid,
    DimensionMismatch,
    IllConditioned,
    NegativeWeight,
    NonFiniteValue,
)
from shiftagg.ratio import RatioFitConfig, evaluate_ratio, fit_ratio
from shiftagg.selection import (
    MethodRow,
    SelectionOutcome,
    build_method_rows,
    compare_methods,
    select_iwv,
    select_source_risk,
)
from shiftagg.serialize import dumps_canonical
from shiftagg.synth import SuiteConfig, SynthTaskConfig, generate_task, run_suite

from conftest import (
    build_bundle,
    count_factorizations,
    count_solves,
    count_weight_scans,
)


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


def bundle_with_copied_best(m):
    """A bundle whose best model is copied into the last slot, and that
    model's lower index. For m=2 the two models are one model repeated; for
    larger m model 7 is the labels plus small noise, best under any
    positive weights."""
    if m == 2:
        base = build_bundle(m=1, n_s=10, n_t=5, seed=32)
        best, source_preds, target_preds = (
            0, np.repeat(base.source_preds, 2, axis=0),
            np.repeat(base.target_preds, 2, axis=0),
        )
    else:
        base = build_bundle(m=m, n_s=40, n_t=400, seed=44)
        best = 7
        source_preds, target_preds = base.source_preds.copy(), base.target_preds.copy()
        source_preds[best] = base.source.labels + 0.1 * source_preds[best]
        source_preds[-1], target_preds[-1] = source_preds[best], target_preds[best]
    bundle = PredictionBundle(
        model_names=tuple(f"m{k}" for k in range(m)),
        source_preds=source_preds,
        target_preds=target_preds,
        source=base.source,
        target=base.target,
    )
    return bundle, best


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

    @pytest.mark.parametrize("m", [2, 300])
    def test_copied_best_model_tie_break_low_index(self, m):
        bundle, best = bundle_with_copied_best(m)
        n_s = bundle.source.n_samples
        beta = np.random.Generator(np.random.Philox(45)).uniform(0.1, 2.0, n_s)
        for out in (select_source_risk(bundle), select_iwv(bundle, beta)):
            assert out.selected_index == best
            assert out.tie_broken
            assert out.scores[best] == out.scores[-1]
        report = compare_methods(bundle, beta)
        for method in ("select_source", "select_iwv"):
            detail = report.row(method).detail
            assert detail == {"selected_index": best, "tie_broken": True}

    def test_matches_brute_force(self):
        bundle = build_bundle(m=3, n_s=25, seed=33)
        out = select_source_risk(bundle)
        risks = [
            empirical_risk(bundle.source_preds[k], bundle.source.labels)
            for k in range(3)
        ]
        assert out.selected_index == int(np.argmin(risks))
        np.testing.assert_array_equal(out.scores, risks)


class TestSelectionOutcome:
    """The pick is derived from the scores, never passed in."""

    def test_lowest_index_argmin_and_tie(self):
        out = SelectionOutcome(method="source_risk", scores=(2.0, 1.0, 1.0))
        assert out.selected_index == 1
        assert out.tie_broken
        assert not SelectionOutcome(method="source_risk", scores=(2.0, 1.0)).tie_broken

    @pytest.mark.parametrize("field", ["selected_index", "tie_broken"])
    def test_pick_is_not_a_parameter(self, field):
        with pytest.raises(TypeError):
            SelectionOutcome(method="source_risk", scores=(2.0, 1.0), **{field: 1})


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

    @pytest.mark.parametrize(
        "weights, error",
        [
            ([np.nan] * 6, ConfigInvalid),
            ([1.0, 1.0, np.inf, 1.0, 1.0, 1.0], ConfigInvalid),
            ([1.0, -1.0, 1.0, 1.0, 1.0, 1.0], NegativeWeight),
            (np.ones(5), DimensionMismatch),
            (aggregation.Weights(np.ones(5)), DimensionMismatch),
        ],
    )
    def test_bad_weights_raise_typed_errors(self, weights, error):
        bundle = build_bundle(m=3, n_s=6, seed=51)
        with pytest.raises(error):
            select_iwv(bundle, weights)

    def test_ratio_model_scores_as_its_weights(self):
        task = generate_task(SynthTaskConfig(n_s=60, n_t=60, family_size=3, seed=52))
        beta = evaluate_ratio(task.analytic_ratio, task.bundle.source.features)
        assert select_iwv(task.bundle, task.analytic_ratio) == select_iwv(
            task.bundle, beta
        )

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

    # target_moments calls compute_gram through aggregation's global.
    monkeypatch.setattr(aggregation, "compute_gram", counting)
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

    # A refused oracle solve shares the Gram matrix too.
    calls.clear()
    base = build_bundle(m=1, n_s=6, n_t=5, with_oracle=True, seed=47)
    dup = replace(
        base,
        model_names=("a", "b"),
        source_preds=np.repeat(base.source_preds, 2, axis=0),
        target_preds=np.repeat(base.target_preds, 2, axis=0),
    )
    report = compare_methods(dup, np.ones(6))
    assert "error" in report.row("aggregate_oracle").detail
    assert len(calls) == 1

    # The moments are kept on the bundle: the three public calls on one
    # bundle build one Gram, and a replace() copy builds its own.
    calls.clear()
    bundle = build_bundle(m=3, n_s=6, n_t=5, with_oracle=True, seed=45)
    beta = np.linspace(0.5, 1.5, 6)
    warm = aggregation.run_aggregation(bundle, beta)
    warm_report = compare_methods(bundle, beta)
    warm_oracle = aggregation.oracle_aggregate(bundle)
    assert len(calls) == 1
    fresh = replace(bundle)
    cold_report = compare_methods(fresh, beta)  # this copy's first Gram
    cold = aggregation.run_aggregation(fresh, beta)
    cold_oracle = aggregation.oracle_aggregate(fresh)
    assert len(calls) == 2
    assert warm.coefficients.tobytes() == cold.coefficients.tobytes()
    assert warm_oracle.coefficients.tobytes() == cold_oracle.coefficients.tobytes()
    assert dumps_canonical(warm_report.to_json_dict()) == dumps_canonical(
        cold_report.to_json_dict()
    )

    moments = aggregation.target_moments(bundle)
    assert moments is aggregation.target_moments(bundle) and len(calls) == 2
    assert moments.gram.tobytes() == real(bundle.target_preds).tobytes()
    for arr in (moments.gram, moments.oracle_moment):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0

    # Threads on one new bundle may each build its moments; every table they
    # make has the same bytes.
    shared = replace(bundle)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            docs = set(
                pool.map(
                    lambda _: dumps_canonical(compare_methods(shared, beta).to_json_dict()),
                    range(8),
                    timeout=60,
                )
            )
    finally:
        sys.setswitchinterval(interval)
    assert docs == {dumps_canonical(warm_report.to_json_dict())}


def _count_passes(monkeypatch, bundle) -> list:
    """Record ``(sample, function, detail)`` for every pass a call makes
    over the bundle's source or target predictions, through the module
    globals the library calls: ``model_risks`` in both modules (detail:
    whether it is unweighted), and ``compute_gram`` and
    ``compute_g_vector``."""
    passes = []
    arrays = {id(bundle.source_preds): "source", id(bundle.target_preds): "target"}

    def spy(module, name, detail):
        real = getattr(module, name)

        def counting(preds, *args):
            if id(preds) in arrays:
                passes.append((arrays[id(preds)], name, detail(*args)))
            return real(preds, *args)

        monkeypatch.setattr(module, name, counting)

    def unweighted(labels, weights=None):
        return weights is None

    spy(aggregation, "model_risks", unweighted)
    spy(selection, "model_risks", unweighted)
    spy(aggregation, "compute_gram", lambda: None)
    spy(aggregation, "compute_g_vector", lambda labels, beta: None)
    return passes


class TestOneRecordPerWeightSource:
    """Each weight source is resolved to one record, scanned once, and the
    record serves the IWV scores, ``g`` and the aggregate's weighted risk."""

    def test_warm_comparison_scans_the_weights_once(self, monkeypatch):
        bundle = build_bundle(m=4, n_s=9, n_t=7, with_oracle=True, seed=85)
        beta = np.linspace(0.5, 1.5, 9)
        compare_methods(bundle, beta)
        scans = count_weight_scans(monkeypatch)
        compare_methods(bundle, beta)
        assert scans == [9]
        weights = resolve_beta(bundle, beta)
        compare_methods(bundle, weights)
        select_iwv(bundle, weights)
        assert scans == [9, 9]

    def test_ratio_model_is_evaluated_and_scanned_once(self, monkeypatch):
        task = generate_task(SynthTaskConfig(n_s=60, n_t=60, family_size=3, seed=86))
        betas = {"analytic": task.analytic_ratio, "uniform": np.ones(60)}
        build_method_rows(task.bundle, betas, None)
        calls = []
        real = aggregation.evaluate_ratio
        monkeypatch.setattr(
            aggregation, "evaluate_ratio", lambda *a: calls.append(1) or real(*a)
        )
        scans = count_weight_scans(monkeypatch)
        build_method_rows(task.bundle, betas, None)
        assert len(calls) == 1
        assert scans == [60, 60]

    def test_ratio_model_vector_and_record_give_equal_rows(self):
        task = generate_task(SynthTaskConfig(n_s=60, n_t=60, family_size=3, seed=87))
        model = task.analytic_ratio
        sources = (
            model,
            evaluate_ratio(model, task.bundle.source.features),
            resolve_beta(task.bundle, model),
        )
        docs = set()
        for w in sources:
            rows = build_method_rows(replace(task.bundle), {"": w}, None)
            docs.add(dumps_canonical([r.to_json_dict() for r in rows]))
        assert len(docs) == 1


class TestBundleCache:
    """The per-model risks and moments kept on a bundle object."""

    def test_warm_comparison_does_only_the_beta_work(self, monkeypatch):
        bundle = build_bundle(m=4, n_s=9, n_t=7, with_oracle=True, seed=81)
        beta = np.linspace(0.5, 1.5, 9)
        passes = _count_passes(monkeypatch, bundle)
        compare_methods(bundle, beta)
        # Cold: G, g' and the true risks pass over the target; the plain
        # source risks and the IWV scores pass over the source once each.
        assert [p for p in passes if p[1] == "model_risks"] == [
            ("target", "model_risks", True),
            ("source", "model_risks", True),
            ("source", "model_risks", False),
        ]
        assert sum(kind == "target" for kind, *_ in passes) == 3

        passes.clear()
        compare_methods(bundle, beta)
        assert passes == [
            ("source", "model_risks", False),
            ("source", "compute_g_vector", None),
        ]

        # Selection alone reads the kept plain risks; IWV passes over its
        # weights only.
        passes.clear()
        select_source_risk(bundle)
        assert passes == []
        select_iwv(bundle, beta)
        assert passes == [("source", "model_risks", False)]

    def test_fresh_iwv_makes_one_weighted_pass(self, monkeypatch):
        bundle = build_bundle(m=3, n_s=8, n_t=5, seed=82)
        passes = _count_passes(monkeypatch, bundle)
        iwv = select_iwv(bundle, np.linspace(0.5, 1.5, 8))
        assert passes == [("source", "model_risks", False)]
        passes.clear()
        select_source_risk(bundle)
        assert passes == [("source", "model_risks", True)]
        assert iwv.scores == select_iwv(replace(bundle), np.linspace(0.5, 1.5, 8)).scores

    @pytest.mark.parametrize("oracle", [True, False])
    def test_warm_and_cold_tables_are_byte_identical(self, oracle):
        bundle = build_bundle(m=24, n_s=40, n_t=30, d2=2, with_oracle=oracle, seed=83)
        betas = {"a": np.linspace(0.2, 2.0, 40), "b": np.ones(40)}

        def doc(b, **kw):
            return dumps_canonical(
                [r.to_json_dict() for r in build_method_rows(b, betas, None, **kw)]
            )

        cold = doc(replace(bundle))
        select_iwv(bundle, betas["a"])  # keeps the plain source risks first
        assert doc(bundle) == cold
        assert doc(bundle) == cold  # every quantity kept
        warm_report = compare_methods(bundle, betas["a"])
        cold_report = compare_methods(replace(bundle), betas["a"])
        assert dumps_canonical(warm_report.to_json_dict()) == dumps_canonical(
            cold_report.to_json_dict()
        )

    def test_source_risk_selection_is_model_risks_bit_for_bit(self):
        bundle = build_bundle(m=21, n_s=33, n_t=12, d2=2, with_oracle=True, seed=84)
        expected = model_risks(bundle.source_preds, bundle.source.labels).tolist()
        assert list(select_source_risk(bundle).scores) == expected
        fresh = replace(bundle)
        compare_methods(fresh, np.linspace(0.1, 3.0, 33))
        assert list(select_source_risk(fresh).scores) == expected
        assert list(select_source_risk(bundle).scores) == expected

    def test_kept_arrays_are_read_only(self):
        bundle = build_bundle(m=3, n_s=6, n_t=5, with_oracle=True, seed=85)
        fields = set(vars(bundle))
        compare_methods(bundle, np.ones(6))
        added = set(vars(bundle)) - fields
        assert added == {"_moments"}
        moments = vars(bundle)["_moments"]
        assert moments is aggregation.target_moments(bundle)
        held = vars(moments)
        assert {"gram", "oracle_moment", "true_risks", "source_risks"} <= set(held)
        factors = list(held["_factors"].values())
        assert len(factors) == 1 and isinstance(factors[0][1], float)
        arrays = [v for v in held.values() if isinstance(v, np.ndarray)]
        arrays.append(factors[0][0])  # the kept factor of G + lam*I
        assert len(arrays) == 9
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0.0
        with pytest.raises(AttributeError):
            moments.gram = moments.gram.copy()


def _duplicated_models(seed):
    """A two-model bundle whose models are one model twice: G is singular."""
    base = build_bundle(m=1, n_s=6, n_t=5, with_oracle=True, seed=seed)
    return replace(
        base,
        model_names=("a", "b"),
        source_preds=np.repeat(base.source_preds, 2, axis=0),
        target_preds=np.repeat(base.target_preds, 2, axis=0),
    )


class TestKeptOracleSolve:
    """The ``lam=0`` oracle solve is bundle-only: made once, then read."""

    def test_warm_op_makes_two_solves(self, monkeypatch):
        lams = count_solves(monkeypatch)
        bundle = build_bundle(m=4, n_s=9, n_t=7, with_oracle=True, seed=87)
        beta = np.linspace(0.5, 1.5, 9)
        counts = []
        for _ in range(3):
            lams.clear()
            aggregation.run_aggregation(bundle, beta)
            compare_methods(bundle, beta)
            counts.append(len(lams))
        # The first op also solves the oracle system, at lam=0; later ops
        # solve the two beta-dependent systems only.
        assert counts == [3, 2, 2]
        lams.clear()
        oracle = aggregation.oracle_aggregate(bundle)
        assert lams == []
        # A replace() copy solves its own, to the same bits.
        cold = aggregation.oracle_aggregate(replace(bundle))
        assert oracle.coefficients.tobytes() == cold.coefficients.tobytes()
        assert lams == [0.0]
        # An explicit nonzero lam is solved on every call.
        for _ in range(2):
            assert aggregation.oracle_aggregate(bundle, 1e-3).tikhonov == 1e-3
        assert lams == [0.0, 1e-3, 1e-3]

    def test_refused_oracle_gives_one_error_row(self, monkeypatch):
        lams = count_solves(monkeypatch)
        bundle = _duplicated_models(seed=47)
        rows = [compare_methods(bundle, np.ones(6)).row("aggregate_oracle")
                for _ in range(3)]
        message = rows[0].detail["error"]
        assert "lam=0" in message
        assert rows[1] == rows[0] and rows[2] == rows[0]
        assert rows[1].detail is not rows[0].detail
        raised = []
        for _ in range(2):
            with pytest.raises(IllConditioned) as info:
                aggregation.oracle_aggregate(bundle)
            assert str(info.value) == message
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert lams.count(0.0) == 1

    def test_callers_cannot_change_the_kept_record(self):
        bundle = build_bundle(m=3, n_s=6, n_t=5, with_oracle=True, seed=88)
        beta = np.linspace(0.5, 1.5, 6)
        first = compare_methods(bundle, beta)
        expected = dumps_canonical(first.to_json_dict())
        detail = first.row("aggregate_oracle").detail
        detail["coefficients"][0] = 99.0
        detail["tikhonov"] = 1.0
        detail["extra"] = True
        result = aggregation.oracle_aggregate(bundle)
        expected_diag = dict(result.diagnostics)
        result.diagnostics["lambda_policy"] = "changed"
        result.diagnostics.pop("residual_inf")
        with pytest.raises(ValueError, match="read-only"):
            result.coefficients[0] = 0.0
        assert dumps_canonical(compare_methods(bundle, beta).to_json_dict()) == expected
        assert aggregation.oracle_aggregate(bundle).diagnostics == expected_diag


class TestKeptFactorsInTables:
    """A warm table factors nothing: each automatic rung's factor of
    ``G + lam*I`` is kept on the bundle's record."""

    def test_warm_op_factors_nothing(self, monkeypatch):
        solves = count_solves(monkeypatch)
        factors = count_factorizations(monkeypatch)
        bundle = build_bundle(m=4, n_s=9, n_t=7, with_oracle=True, seed=97)
        beta = np.linspace(0.5, 1.5, 9)
        counts = []
        for _ in range(3):
            solves.clear()
            factors.clear()
            result = aggregation.run_aggregation(bundle, beta)
            compare_methods(bundle, beta)
            counts.append((len(factors), len(solves)))
        # The first op factors the automatic rung and the lam=0 oracle system.
        assert counts == [(2, 3), (0, 2), (0, 2)]
        assert solves == [result.tikhonov, result.tikhonov]

    def test_two_weight_sources_factor_once(self, monkeypatch):
        solves = count_solves(monkeypatch)
        factors = count_factorizations(monkeypatch)
        bundle = build_bundle(m=6, n_s=20, n_t=15, seed=98)
        betas = {"a": np.linspace(0.2, 2.0, 20), "b": np.ones(20)}
        rows = build_method_rows(bundle, betas, None)
        tikhonov = {r.detail["tikhonov"] for r in rows if r.method.startswith("aggregate")}
        assert len(factors) == 1 and tikhonov == set(factors)
        assert len(solves) == 2
        # An explicit lam is factored for each source, on every table.
        factors.clear()
        build_method_rows(bundle, betas, 1e-3)
        build_method_rows(bundle, betas, 1e-3)
        assert factors == [1e-3] * 4


def test_moments_keep_no_dropped_bundle_alive():
    bundle = build_bundle(m=3, n_s=6, n_t=5, with_oracle=True, seed=86)
    gc.disable()
    try:
        compare_methods(bundle, np.ones(6))
        ref = weakref.ref(bundle)
        del bundle
        assert ref() is None
    finally:
        gc.enable()


def reference_build_method_rows(bundle, beta_by_name, lam):
    """Two-pass table builder: separate selection calls, its own
    ones-weighted oracle moments and solve, then a second pass over every
    row to set the oracle ratio. Aggregate true risks use the moment form
    ``||y'||^2 / n_t - 2 c.g' + c'Gc`` with that one oracle moment vector."""
    labels_t = bundle.target.oracle_labels
    sel = select_source_risk(bundle)
    true_risks = (
        [None] * bundle.model_count
        if labels_t is None
        else model_risks(bundle.target_preds, labels_t).tolist()
    )
    needs_gram = labels_t is not None or beta_by_name
    G = compute_gram(bundle.target_preds) if needs_gram else None
    if labels_t is not None:
        ones = np.ones(bundle.target.n_samples)
        g_oracle = compute_g_vector(bundle.target_preds, labels_t, ones)
        yy = float(np.sum(labels_t * labels_t)) / len(labels_t)

    def true_risk_of(c):
        if labels_t is None:
            return None
        return max(0.0, yy - 2.0 * float(c @ g_oracle) + float(c @ G @ c))

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
            RatioFitConfig(n_centers=20, cv_folds=2, seed=3),
            estimator,
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


class TestFusedSourcePass:
    """A table's selection rows equal separate selection calls, bit for bit,
    with the models scored over several blocks."""

    @pytest.mark.parametrize("d2", [1, 2])
    def test_rows_equal_separate_selection_calls(self, monkeypatch, d2):
        m, n_s, best = 10, 40, 4
        base = build_bundle(m=m, n_s=n_s, n_t=30, d2=d2, with_oracle=True, seed=53)
        source_preds, target_preds = base.source_preds.copy(), base.target_preds.copy()
        source_preds[best] = base.source.labels + 0.1 * source_preds[best]
        source_preds[-1], target_preds[-1] = source_preds[best], target_preds[best]
        bundle = replace(base, source_preds=source_preds, target_preds=target_preds)
        rng = np.random.Generator(np.random.Philox(54))
        betas = {
            "a": rng.uniform(0.1, 2.0, n_s),
            "b": np.where(rng.random(n_s) < 0.3, 0.0, rng.uniform(0.1, 3.0, n_s)),
        }
        # Blocks of three models, so the ten models span four blocks.
        monkeypatch.setattr(aggregation, "_RISK_BLOCK_VALUES", 3 * n_s * d2)
        rows = {r.method: r for r in build_method_rows(bundle, betas, None)}

        sel = select_source_risk(bundle)
        separate = {"select_source": sel}
        separate.update(
            (f"select_iwv_{s}", select_iwv(bundle, beta)) for s, beta in betas.items()
        )
        for method, outcome in separate.items():
            assert outcome.selected_index == best and outcome.tie_broken
            assert rows[method].detail == {"selected_index": best, "tie_broken": True}
            assert rows[method].estimated_score == outcome.scores[best]
        for k, name in enumerate(bundle.model_names):
            assert rows[f"model:{name}"].estimated_score == sel.scores[k]


class TestOverflowingRisks:
    """A table refuses a risk that overflows float64 instead of showing inf,
    or a silent 0.0 for the moment-formed aggregate risks."""

    def test_oracle_label(self):
        base = build_bundle(m=3, n_s=20, n_t=15, with_oracle=True, seed=55)
        labels = base.target.oracle_labels.copy()
        labels[2, 0] = 1e200
        bundle = replace(base, target=replace(base.target, oracle_labels=labels))
        with pytest.raises(NonFiniteValue, match="risk of model 0 is inf"):
            compare_methods(bundle, np.ones(20))

    def test_weight_that_overflows_the_aggregate(self):
        # The weight makes g, and so the coefficients, about 1e300: the
        # models' weighted risks stay finite, the aggregate's does not.
        bundle = build_bundle(m=3, n_s=20, n_t=15, with_oracle=True, seed=56)
        beta = np.ones(20)
        beta[5] = 1e300
        assert np.isfinite(select_iwv(bundle, beta).scores).all()
        with pytest.raises(NonFiniteValue, match="the risk is inf"):
            compare_methods(bundle, beta)


def _bundle_with_oracle(m, n_s, n_t, d2, rng, copied=False):
    source_preds = rng.standard_normal((m, n_s, d2))
    target_preds = rng.standard_normal((m, n_t, d2))
    if copied and m > 1:
        source_preds[-1], target_preds[-1] = source_preds[0], target_preds[0]
    return PredictionBundle(
        model_names=tuple(f"m{k}" for k in range(m)),
        source_preds=source_preds,
        target_preds=target_preds,
        source=SourceDataset(labels=rng.standard_normal((n_s, d2))),
        target=TargetDataset(oracle_labels=rng.standard_normal((n_t, d2))),
    )


def _moment_risk_gaps(bundle, rows) -> dict[str, float]:
    """Relative gap, per solved aggregate row, between its moment-formed
    true risk and the risk of its predictions evaluated sample by sample."""
    gaps = {}
    for r in rows:
        if r.method.startswith("aggregate") and "coefficients" in r.detail:
            direct = empirical_risk(
                aggregate_predict(bundle.target_preds, r.detail["coefficients"]),
                bundle.target.oracle_labels,
            )
            gaps[r.method] = abs(r.true_target_risk - direct) / direct
    return gaps


class TestMomentRisks:
    """Aggregate and oracle true risks are ``||y'||^2/n_t - 2 c.g' + c'Gc``."""

    @given(
        m=st.integers(1, 12),
        d2=st.integers(1, 3),
        copied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_direct_evaluation(self, m, d2, copied, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        bundle = _bundle_with_oracle(m, 30, 60, d2, rng, copied)
        rows = build_method_rows(bundle, {"": rng.uniform(0.2, 2.0, 30)}, None)
        gaps = _moment_risk_gaps(bundle, rows)
        assert "aggregate" in gaps
        if not (copied and m > 1):  # a copied model can make the oracle refuse
            assert "aggregate_oracle" in gaps
        assert max(gaps.values()) <= 1e-10

    # Among these seeds the moment form rounds both to 0.0 and to a few ulps
    # above it (seeds 3 and 5); both must read 0.0.
    @pytest.mark.parametrize("seed", range(8))
    def test_labels_equal_to_one_model(self, seed):
        base = build_bundle(m=4, n_s=20, n_t=50, with_oracle=True, seed=60 + seed)
        bundle = replace(
            base,
            target=replace(base.target, oracle_labels=base.target_preds[2]),
        )
        rows = build_method_rows(bundle, {"": np.ones(20)}, None)
        oracle = next(r for r in rows if r.method == "aggregate_oracle")
        assert oracle.true_target_risk == 0.0
        assert all(r.risk_ratio_vs_oracle is None for r in rows)

    def test_near_collinear_family_at_lambda_zero(self):
        rng = np.random.Generator(np.random.Philox(70))
        m, n = 20, 5000
        bundle = _bundle_with_oracle(m, n, n, 1, rng)
        # The last model is the first plus a small perturbation.
        source_preds = bundle.source_preds.copy()
        target_preds = bundle.target_preds.copy()
        source_preds[-1] = source_preds[0] + 5e-6 * rng.standard_normal((n, 1))
        target_preds[-1] = target_preds[0] + 5e-6 * rng.standard_normal((n, 1))
        bundle = replace(bundle, source_preds=source_preds, target_preds=target_preds)
        rows = build_method_rows(bundle, {"": rng.uniform(0.5, 1.5, n)}, 0.0)
        for r in rows:
            if r.method in ("aggregate", "aggregate_oracle"):
                assert r.detail["tikhonov"] == 0.0
                assert r.detail["condition_estimate"] >= 1e10
        gaps = _moment_risk_gaps(bundle, rows)
        assert set(gaps) == {"aggregate", "aggregate_oracle"}
        assert max(gaps.values()) <= 1e-6
