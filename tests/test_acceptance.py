"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS line on success; a pytest failure marks the
criterion red. Criteria are numbered for traceability in the run log.
"""

import time

import numpy as np

from shiftagg.aggregation import (
    aggregate_predict,
    compute_g_vector,
    compute_gram,
    empirical_risk,
    importance_weighted_risk,
    oracle_aggregate,
    run_aggregation,
    solve_coefficients,
)
from shiftagg.cli import main
from shiftagg.data import PredictionBundle
from shiftagg.probe import (
    argmax_agreement,
    epsilon_close,
    lipschitz_propagated_bound,
    semantic_distance,
)
from shiftagg.ratio import (
    RatioFitConfig,
    evaluate_ratio,
    fit_logistic_ratio,
    fit_ulsif,
)
from shiftagg.serialize import write_json
from shiftagg.synth import SuiteConfig, SynthTaskConfig, generate_task, run_suite

from test_aggregation import g_loop, gram_loop
from test_probe import embset, layer


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_oracle_dominance():
    """Oracle aggregation never loses to the best single model (100/100)."""
    t0 = time.time()
    seeds = np.random.SeedSequence(42).generate_state(100, dtype=np.uint64)
    wins = 0
    for s in seeds:
        task = generate_task(SynthTaskConfig(seed=int(s)))
        res = oracle_aggregate(task.bundle)
        agg = aggregate_predict(task.bundle.target_preds, res.coefficients)
        risk = empirical_risk(agg, task.bundle.target.oracle_labels)
        if risk <= min(task.true_model_risks) + 1e-9:
            wins += 1
    elapsed = time.time() - t0
    assert wins == 100, f"oracle dominance {wins}/100"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, f"oracle dominance {wins}/100 in {elapsed:.1f}s")


def test_criterion_2_estimated_beta_dominance():
    """Aggregation beats IWV selection: >=90/100 analytic, >=75/100 uLSIF."""
    t0 = time.time()
    report = run_suite(SuiteConfig(), trials=100, seeds=42)
    elapsed = time.time() - t0
    wins = report.aggregate["win_counts"]
    analytic = wins["aggregate_analytic_le_select_iwv_analytic"]
    ulsif = wins["aggregate_ulsif_le_select_iwv_ulsif"]
    assert analytic >= 90, f"analytic-beta dominance {analytic}/100 < 90"
    assert ulsif >= 75, f"ulsif-beta dominance {ulsif}/100 < 75"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    _report(
        2,
        f"estimated-beta dominance analytic {analytic}/100, "
        f"ulsif {ulsif}/100 in {elapsed:.1f}s",
    )


def test_criterion_3_linear_solve_oracle():
    """solve_coefficients matches a dense solve within 1e-10 relative."""
    rng = np.random.Generator(np.random.Philox(1000))
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        G = Q @ np.diag(rng.uniform(0.1, 10.0, m)) @ Q.T
        G = (G + G.T) / 2
        g = rng.standard_normal(m)
        lam = float(rng.choice([0.0, 1e-8, 1e-4]))
        c = solve_coefficients(G, g, lam)
        ref = np.linalg.solve(G + lam * np.eye(m), g)
        denom = max(float(np.linalg.norm(ref)), 1e-300)
        worst = max(worst, float(np.linalg.norm(c - ref)) / denom)
    assert worst < 1e-10, f"worst relative error {worst:.3e}"
    _report(3, f"linear-solve oracle, worst rel err {worst:.2e} over 1000")


def test_criterion_4_gram_brute_force():
    """Gram and moment estimators match scalar triple loops within 1e-12."""
    rng = np.random.Generator(np.random.Philox(2000))
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 51))
        d2 = int(rng.integers(1, 4))
        preds = rng.standard_normal((m, n, d2))
        labels = rng.standard_normal((n, d2))
        beta = rng.uniform(0.0, 3.0, n)
        dg = float(np.max(np.abs(compute_gram(preds) - gram_loop(preds))))
        dv = float(
            np.max(np.abs(compute_g_vector(preds, labels, beta) - g_loop(preds, labels, beta)))
        )
        worst = max(worst, dg, dv)
    assert worst < 1e-12, f"worst deviation {worst:.3e}"
    _report(4, f"brute-force equivalence, worst dev {worst:.2e} over 100")


def test_criterion_5_density_ratio_recovery():
    """Both estimators reach MSE < 0.05 against the exact Gaussian ratio."""
    rng = np.random.Generator(np.random.Philox(99))
    xs = rng.normal(0.0, 1.0, (2000, 1))
    xt = rng.normal(0.5, 1.0, (2000, 1))
    grid = np.linspace(-2.0, 2.0, 81)[:, None]
    true = np.exp(0.5 * grid[:, 0] - 0.125)

    results = {}
    model_u = fit_ulsif(xs, xt, RatioFitConfig(seed=3))
    beta_u = evaluate_ratio(model_u, grid)
    results["ulsif"] = float(np.mean((beta_u - true) ** 2))
    assert np.all(beta_u >= 0) and np.all(beta_u <= model_u.bound)

    model_l = fit_logistic_ratio(xs, xt, RatioFitConfig(seed=3))
    beta_l = evaluate_ratio(model_l, grid)
    results["logistic"] = float(np.mean((beta_l - true) ** 2))
    assert np.all(beta_l >= 0) and np.all(beta_l <= model_l.bound)

    for kind, mse in results.items():
        assert mse < 0.05, f"{kind} MSE {mse:.4f} >= 0.05"
    _report(
        5,
        "ratio recovery MSE ulsif {ulsif:.4f}, logistic {logistic:.4f}".format(
            **results
        ),
    )


def test_criterion_6_invariance_suite():
    """Permutation equivariance, scaling covariance, reductions, Gram PSD."""
    rng = np.random.Generator(np.random.Philox(3000))
    task = generate_task(SynthTaskConfig(n_s=60, n_t=60, family_size=4, seed=77))
    bundle = task.bundle
    beta = evaluate_ratio(task.analytic_ratio, bundle.source.features)

    # Permutation equivariance.
    res = run_aggregation(bundle, beta)
    perm = [3, 1, 0, 2]
    permuted = PredictionBundle(
        model_names=tuple(bundle.model_names[p] for p in perm),
        source_preds=bundle.source_preds[perm],
        target_preds=bundle.target_preds[perm],
        source=bundle.source,
        target=bundle.target,
    )
    res_p = run_aggregation(permuted, beta)
    assert float(np.max(np.abs(res_p.coefficients - res.coefficients[perm]))) <= 1e-12
    assert float(
        np.max(
            np.abs(
                aggregate_predict(permuted.target_preds, res_p.coefficients)
                - aggregate_predict(bundle.target_preds, res.coefficients)
            )
        )
    ) <= 1e-12

    # Scaling covariance at lam = 0.
    res0 = run_aggregation(bundle, beta, lam=0.0)
    s = 2.5
    sp, tp = bundle.source_preds.copy(), bundle.target_preds.copy()
    sp[2] *= s
    tp[2] *= s
    scaled = PredictionBundle(
        model_names=bundle.model_names,
        source_preds=sp,
        target_preds=tp,
        source=bundle.source,
        target=bundle.target,
    )
    res_s = run_aggregation(scaled, beta, lam=0.0)
    expected = res0.coefficients.copy()
    expected[2] /= s
    np.testing.assert_allclose(res_s.coefficients, expected, rtol=1e-8)

    # beta == 1 reductions are bitwise.
    ones = np.ones(bundle.source.n_samples)
    for k in range(bundle.model_count):
        a = importance_weighted_risk(bundle.source_preds[k], bundle.source.labels, ones)
        b = empirical_risk(bundle.source_preds[k], bundle.source.labels)
        assert a == b

    # Gram symmetry and positive semidefiniteness.
    G = compute_gram(bundle.target_preds)
    assert float(np.max(np.abs(G - G.T))) <= 1e-12
    for _ in range(100):
        v = rng.standard_normal(bundle.model_count)
        assert float(v @ G @ v) >= -1e-10

    _report(6, "invariance suite green")


def test_criterion_7_probe_correctness():
    """Exact probe arithmetic on the documented cases."""
    vecs = np.arange(12.0).reshape(3, 4)
    assert (
        semantic_distance(
            embset([layer(1, vecs, vecs)], pairing=((0, 0), (1, 1), (2, 2)))
        ).d_sem
        == 0.0
    )
    assert semantic_distance(embset([layer(1, [[0.0, 0.0]], [[3.0, 4.0]])])).d_sem == 5.0
    rep = semantic_distance(
        embset([layer(1, [[0.0]], [[5.0]]), layer(2, [[0.0]], [[2.0]])])
    )
    assert rep.d_sem == 2.0 and rep.argmin_layer == 2

    assert epsilon_close(rep, 2.0) is True
    assert epsilon_close(rep, 1.9) is False
    zero = semantic_distance(embset([layer(1, [[1.0]], [[1.0]])]))
    assert epsilon_close(zero, 0.0) is True

    assert lipschitz_propagated_bound(2.0, (1.0, 1.0, 1.0)) == 2.0
    assert lipschitz_propagated_bound(0.5, (2.0, 3.0)) == 3.0
    assert lipschitz_propagated_bound(1.25, ()) == 1.25

    assert argmax_agreement([[0.1, 0.9]], [[0.9, 0.1]], ((0, 0),)) == 0.0
    p = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    q = [[2.0, 1.0], [1.0, 3.0], [0.0, 5.0]]
    assert abs(argmax_agreement(p, q, ((0, 0), (1, 1), (2, 2))) - 2 / 3) < 1e-15

    _report(7, "probe arithmetic exact")


def test_criterion_8_bench_determinism(tmp_path):
    """bench --seed 42: identical bytes across runs and thread counts."""
    cfg = tmp_path / "suite.json"
    write_json(
        cfg,
        {
            "trials": 12,
            "seed": 42,
            "estimator": "ulsif",
            "task": {"n_s": 120, "n_t": 120},
            "ratio": {"n_centers": 40, "cv_folds": 3},
        },
    )
    outputs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / name
        code = main(
            ["bench", "--config", str(cfg), "--output", str(out),
             "--seed", "42", "--threads", threads]
        )
        assert code == 0
        outputs.append(
            (out / "suite.json").read_bytes() + (out / "suite.txt").read_bytes()
        )
    assert outputs[0] == outputs[1], "repeat run differs"
    assert outputs[0] == outputs[2], "thread count changed the report"
    _report(8, "bench determinism byte-identical (repeat + threads 1 vs 8)")
