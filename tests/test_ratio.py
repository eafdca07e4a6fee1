"""Density-ratio estimators against the closed-form Gaussian oracle."""

import math
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftagg import ratio
from shiftagg.errors import (
    AllZeroWeights,
    ConfigInvalid,
    DimensionMismatch,
    EmptyInput,
    MalformedFile,
    NonConvergence,
    NonFiniteValue,
    NumericalError,
    SingularSystem,
)
from shiftagg.ratio import (
    RatioFitConfig,
    RatioModel,
    analytic_gaussian_ratio,
    evaluate_ratio,
    fit_logistic_ratio,
    fit_ratio,
    fit_ulsif,
    load_ratio_model,
    ratio_model_from_dict,
    ratio_model_to_dict,
    save_ratio_model,
    self_normalize,
)
from shiftagg.synth import SynthTaskConfig, generate_task


def gaussian_pair(n=2000, shift=0.5, seed=99):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.normal(0.0, 1.0, (n, 1)), rng.normal(shift, 1.0, (n, 1))


GRID = np.linspace(-2.0, 2.0, 81)[:, None]
# Exact ratio of N(0.5, 1) to N(0, 1) densities on the grid.
TRUE_RATIO = np.exp(0.5 * GRID[:, 0] - 0.125)


class TestUlsif:
    def test_identical_samples_mean_one_after_normalization(self):
        rng = np.random.Generator(np.random.Philox(1))
        x = rng.standard_normal((400, 2))
        model = fit_ulsif(x, x, RatioFitConfig(seed=2))
        beta = self_normalize(evaluate_ratio(model, x))
        assert abs(float(np.mean(beta)) - 1.0) < 1e-6

    def test_gaussian_recovery(self):
        xs, xt = gaussian_pair()
        model = fit_ulsif(xs, xt, RatioFitConfig(seed=3))
        beta = evaluate_ratio(model, GRID)
        assert float(np.mean((beta - TRUE_RATIO) ** 2)) < 0.05
        assert np.all(beta >= 0.0) and np.all(beta <= model.bound)

    def test_too_many_centers_rejected(self):
        xs, xt = gaussian_pair(n=50)
        with pytest.raises(ConfigInvalid):
            fit_ulsif(xs, xt, RatioFitConfig(n_centers=51))

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            fit_ulsif(np.empty((0, 1)), np.ones((5, 1)), RatioFitConfig())
        with pytest.raises(EmptyInput):
            fit_logistic_ratio(np.ones((5, 0)), np.ones((5, 0)), RatioFitConfig())

    @pytest.mark.parametrize("estimator", ["ulsif", "logistic"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_feature_whose_square_overflows_is_refused(self, estimator, side):
        x = [np.zeros((20, 2)), np.ones((20, 2))]
        x[side][5, 0] = -1e200
        with pytest.raises(NonFiniteValue, match="squared norm overflows"):
            ratio.fit_ratio(x[0], x[1], RatioFitConfig(), estimator)

    @pytest.mark.parametrize("estimator", ["bogus", "ULSIF", None])
    def test_unknown_estimator_is_refused(self, estimator):
        xs, xt = gaussian_pair(n=50)
        with pytest.raises(ConfigInvalid, match="unknown estimator"):
            ratio.fit_ratio(xs, xt, RatioFitConfig(), estimator)

    def test_solve_matches_dense_oracle(self):
        # Rebuild the kernel system by brute force and solve it generically;
        # the fitted alpha must match to near machine precision.
        xs, xt = gaussian_pair(n=300, seed=5)
        cfg = RatioFitConfig(
            kernel_widths=(0.7,), ridge_strengths=(0.05,), n_centers=40, seed=11
        )
        model = fit_ulsif(xs, xt, cfg)
        c = model.centers
        K_s = np.exp(
            -((xs[:, None, :] - c[None, :, :]) ** 2).sum(-1) / (2 * 0.7**2)
        )
        K_t = np.exp(
            -((xt[:, None, :] - c[None, :, :]) ** 2).sum(-1) / (2 * 0.7**2)
        )
        H = np.zeros((40, 40))
        for i in range(len(xs)):
            H += np.outer(K_s[i], K_s[i])
        H /= len(xs)
        h = K_t.mean(axis=0)
        alpha_ref = np.linalg.solve(H + 0.05 * np.eye(40), h)
        err = np.linalg.norm(model.alpha - alpha_ref) / np.linalg.norm(alpha_ref)
        assert err < 1e-10

    def test_deterministic_given_seed(self):
        xs, xt = gaussian_pair(n=300)
        cfg = RatioFitConfig(seed=21)
        a = fit_ulsif(xs, xt, cfg)
        b = fit_ulsif(xs, xt, cfg)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.centers, b.centers)
        assert a.kernel_width == b.kernel_width

    def test_swap_symmetry(self):
        xs, xt = gaussian_pair()
        fwd = evaluate_ratio(fit_ulsif(xs, xt, RatioFitConfig(seed=3)), GRID)
        bwd = evaluate_ratio(fit_ulsif(xt, xs, RatioFitConfig(seed=3)), GRID)
        assert abs(float(np.median(fwd * bwd)) - 1.0) < 0.15


def reference_sq_dists(x, c):
    return np.maximum(
        np.sum(x * x, axis=1)[:, None] + np.sum(c * c, axis=1)[None, :]
        - 2.0 * x @ c.T,
        0.0,
    )


def reference_kernel(x, c, width):
    return np.exp(reference_sq_dists(x, c) / (-2.0 * width * width))


def reference_median_pairwise_distance(x, rng):
    """The width heuristic as a gather of the upper triangle and ``np.median``."""
    n = x.shape[0]
    if n > ratio._WIDTH_SAMPLE:
        x = x[rng.choice(n, ratio._WIDTH_SAMPLE, replace=False)]
    vals = reference_sq_dists(x, x)[np.triu_indices(len(x), k=1)]
    vals = vals[vals > 0]
    if vals.size == 0:
        return 1.0
    return float(np.sqrt(np.median(vals)))


def reference_widths(xs, xt, cfg, rng):
    if cfg.kernel_widths is not None:
        return cfg.kernel_widths
    med = reference_median_pairwise_distance(np.vstack([xs, xt]), rng)
    med = max(med, np.finfo(float).tiny)
    return tuple(s * med for s in ratio.DEFAULT_WIDTH_SCALES)


def with_bias(z):
    """The logistic fit's design matrix: ``z`` and a column of ones."""
    return np.hstack([z, np.ones((len(z), 1))])


def reference_cho_solve(H, h, ridge):
    """``(H + ridge*I)^-1 h`` through scipy's Cholesky wrappers."""
    try:
        cf = scipy.linalg.cho_factor(H + ridge * np.eye(H.shape[0]), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"refused ridge={ridge!r}") from exc
    return scipy.linalg.cho_solve(cf, h)


def ulsif_solve(K_s, K_t, ridge, solve):
    """Solve ``(K_s^T K_s / n_s + ridge*I) alpha = mean(K_t)`` from the kernels."""
    H = (K_s.T @ K_s) / K_s.shape[0]
    return solve(H, np.mean(K_t, axis=0), ridge)


def reference_draws(xs, xt, cfg):
    """``fit_ulsif``'s seeded draws: the widths, the centers and each
    sample's fold ids."""
    rng = ratio._rng(cfg.seed)
    widths = reference_widths(xs, xt, cfg, rng)
    n_c = cfg.n_centers if cfg.n_centers is not None else min(100, xt.shape[0])
    centers = xt[np.sort(rng.choice(xt.shape[0], n_c, replace=False))]
    fold_s = ratio._fold_ids(xs.shape[0], cfg.cv_folds, rng)
    fold_t = ratio._fold_ids(xt.shape[0], cfg.cv_folds, rng)
    return widths, centers, fold_s, fold_t


def reference_fold_sums(xs, xt, centers, width, fold_s, fold_t):
    """The fold-contiguous sums: with the rows stably sorted by fold id, each
    fold's rows of both kernels, each source fold's Gram and each target
    fold's column sum, and ``H_tot``/``h_tot`` summed from them over every
    fold present. Returns ``(folds_s, folds_t, grams, col_sums, H_tot, h_tot)``.
    """
    sorted_fold_s, sorted_fold_t = np.sort(fold_s), np.sort(fold_t)
    K_s = reference_kernel(xs[np.argsort(fold_s, kind="stable")], centers, width)
    K_t = reference_kernel(xt[np.argsort(fold_t, kind="stable")], centers, width)
    folds_s = [K_s[sorted_fold_s == f] for f in range(sorted_fold_s[-1] + 1)]
    folds_t = [K_t[sorted_fold_t == f] for f in range(sorted_fold_t[-1] + 1)]
    grams = [V.T @ V for V in folds_s]
    col_sums = [V.sum(axis=0) for V in folds_t]
    return folds_s, folds_t, grams, col_sums, sum(grams), sum(col_sums)


def reference_fit_ulsif(xs, xt, cfg, solve=reference_cho_solve):
    """The per-cell cross-validation loop that the fold-sum one replaced.

    Every (width, ridge, fold) cell builds its kernels and its training
    system from the training rows directly, with no code of ``ratio`` but
    its seeded draws. The chosen cell is refit on the fold-contiguous sums
    of ``reference_fold_sums``, as ``fit_ulsif`` does. Returns the chosen
    grid indices, the refit ``alpha`` and the score grid (NaN where a cell
    was refused).
    """
    widths, centers, fold_s, fold_t = reference_draws(xs, xt, cfg)
    folds = cfg.cv_folds
    grid = np.full((len(widths), len(cfg.ridge_strengths)), np.nan)
    best = None  # (score, width index, ridge index)
    for i, width in enumerate(widths):
        K_s = reference_kernel(xs, centers, width)
        K_t = reference_kernel(xt, centers, width)
        for j, ridge in enumerate(cfg.ridge_strengths):
            scores = []
            for f in range(folds):
                tr_s, va_s = K_s[fold_s != f], K_s[fold_s == f]
                tr_t, va_t = K_t[fold_t != f], K_t[fold_t == f]
                if min(len(tr_s), len(va_s), len(tr_t), len(va_t)) == 0:
                    continue
                try:
                    alpha = ulsif_solve(tr_s, tr_t, ridge, solve)
                except SingularSystem:
                    scores = None
                    break
                b_s = np.clip(va_s @ alpha, 0.0, cfg.bound)
                b_t = np.clip(va_t @ alpha, 0.0, cfg.bound)
                scores.append(0.5 * float(np.mean(b_s * b_s)) - float(np.mean(b_t)))
            if not scores:
                continue
            grid[i, j] = float(np.mean(scores))
            if best is None or grid[i, j] < best[0]:
                best = (grid[i, j], i, j)
    if best is None:
        raise SingularSystem("every (width, ridge) grid cell failed")
    _, i, j = best
    *_, H_tot, h_tot = reference_fold_sums(xs, xt, centers, widths[i], fold_s, fold_t)
    alpha = solve(H_tot / len(xs), h_tot / len(xt), cfg.ridge_strengths[j])
    return (i, j), alpha, grid


def reference_fold_sum_scores(xs, xt, cfg):
    """The fold-sum score grid, each held-out fold scored with ``np.clip`` and
    ``np.mean`` as ``fit_ulsif`` once did; NaN where a cell was refused.

    Its systems are ``fit_ulsif``'s (the fold-contiguous whole-sample sums
    minus each fold's part, bitwise), so the grid must match
    ``cv["scores"]`` bit for bit.
    """
    widths, centers, fold_s, fold_t = reference_draws(xs, xt, cfg)
    n_folds = min(cfg.cv_folds, xs.shape[0], xt.shape[0])
    grid = np.full((len(widths), len(cfg.ridge_strengths)), np.nan)
    for i, width in enumerate(widths):
        folds_s, folds_t, grams, col_sums, H_tot, h_tot = reference_fold_sums(
            xs, xt, centers, width, fold_s, fold_t
        )
        for j, ridge in enumerate(cfg.ridge_strengths):
            scores = []
            try:
                for f in range(n_folds):
                    V_s, V_t = folds_s[f], folds_t[f]
                    H = (H_tot - grams[f]) / (len(xs) - len(V_s))
                    h = (h_tot - col_sums[f]) / (len(xt) - len(V_t))
                    alpha = reference_cho_solve(H, h, ridge)
                    b_s = np.clip(V_s @ alpha, 0.0, cfg.bound)
                    b_t = np.clip(V_t @ alpha, 0.0, cfg.bound)
                    scores.append(
                        0.5 * float(np.mean(b_s * b_s)) - float(np.mean(b_t))
                    )
            except SingularSystem:
                continue
            grid[i, j] = float(np.mean(scores))
    return grid


def suite_task_features(seed, n=500):
    task = generate_task(SynthTaskConfig(n_s=n, n_t=n, seed=seed))
    return task.bundle.source.features, task.bundle.target.features


def assert_matches_reference(xs, xt, cfg, solve=reference_cho_solve):
    model = fit_ulsif(xs, xt, cfg)
    chosen, alpha, grid = reference_fit_ulsif(xs, xt, cfg, solve)
    cv = model.cv
    assert (cv["width_index"], cv["ridge_index"]) == chosen
    widths, ridges = len(cv["widths"]), len(cv["ridges"])
    assert cv["width_on_edge"] == (chosen[0] in (0, widths - 1))
    assert cv["ridge_on_edge"] == (chosen[1] in (0, ridges - 1))
    assert cv["on_grid_edge"] == (cv["width_on_edge"] or cv["ridge_on_edge"])
    assert model.kernel_width == cv["widths"][chosen[0]]
    assert np.array_equal(model.alpha, alpha)
    scores = np.array(cv["scores"], dtype=float)
    assert np.array_equal(np.isnan(scores), np.isnan(grid))
    ok = ~np.isnan(grid)
    np.testing.assert_allclose(scores[ok], grid[ok], rtol=1e-12, atol=0)
    return model


class TestUlsifFoldSums:
    """The fold-sum cross-validation against the per-cell reference loop."""

    def test_suite_size_tasks(self):
        edges = set()
        for seed in range(50):
            xs, xt = suite_task_features(seed)
            model = assert_matches_reference(xs, xt, RatioFitConfig(seed=seed + 100))
            edges.add(model.cv["on_grid_edge"])
        assert edges == {True, False}

    def test_suite_size_scores_bitwise(self):
        # The in-place clipped scores against np.clip and np.mean, bit for bit
        # (assert_matches_reference allows rtol=1e-12 against per-cell systems).
        for seed in range(50):
            xs, xt = suite_task_features(seed)
            cfg = RatioFitConfig(seed=seed + 100)
            got = np.array(fit_ulsif(xs, xt, cfg).cv["scores"], dtype=float)
            want = reference_fold_sum_scores(xs, xt, cfg)
            assert got.tobytes() == want.tobytes(), seed

    def test_thousand_row_folds_scores_bitwise(self):
        # Folds of 1000 rows, where NumPy's pairwise sum splits each row sum
        # into halves: each stacked row sum must still be its row's own sum.
        xs, xt = suite_task_features(11, n=5000)
        cfg = RatioFitConfig(seed=12)
        got = np.array(fit_ulsif(xs, xt, cfg).cv["scores"], dtype=float)
        assert got.tobytes() == reference_fold_sum_scores(xs, xt, cfg).tobytes()

    def test_large_task(self):
        xs, xt = suite_task_features(3, n=5000)
        assert_matches_reference(xs, xt, RatioFitConfig(seed=4))

    def test_one_dimensional_task(self):
        xs, xt = gaussian_pair(n=400, seed=13)
        assert_matches_reference(xs, xt, RatioFitConfig(seed=5))

    def test_fewer_source_samples_than_folds(self):
        rng = np.random.Generator(np.random.Philox(14))
        xs, xt = rng.standard_normal((3, 2)), rng.normal(0.3, 1.0, (40, 2))
        model = assert_matches_reference(xs, xt, RatioFitConfig(seed=6))
        assert not np.isnan(np.array(model.cv["scores"], dtype=float)).any()

    def test_unscored_source_fold_enters_the_refit(self):
        # n_t < n_s < cv_folds: source fold 3 is never held out (only folds
        # 0-2 hold target samples), but its row is part of the whole sample.
        rng = np.random.Generator(np.random.Philox(15))
        xs, xt = rng.standard_normal((4, 2)), rng.normal(0.3, 1.0, (3, 2))
        cfg = RatioFitConfig(cv_folds=5, seed=7)
        model = assert_matches_reference(xs, xt, cfg)
        cv = model.cv
        assert len(cv["scores"]) == 5 and not np.isnan(
            np.array(cv["scores"], dtype=float)
        ).any()
        width, ridge = model.kernel_width, cv["ridges"][cv["ridge_index"]]
        alpha = ulsif_solve(
            reference_kernel(xs, model.centers, width),
            reference_kernel(xt, model.centers, width),
            ridge,
            reference_cho_solve,
        )
        np.testing.assert_allclose(model.alpha, alpha, rtol=1e-12, atol=0)

    def test_traced_peak_at_5000_rows(self):
        # The two 5000 x 100 distance arrays and two kernel buffers take
        # 15.3 MiB; gathering every held-out fold's rows took the peak to
        # 24.0 MiB, while slicing them leaves it at about 17.2 MiB.
        rng = np.random.Generator(np.random.Philox(9))
        xs, xt = rng.standard_normal((5000, 5)), rng.normal(0.5, 1.0, (5000, 5))
        tracemalloc.start()
        try:
            fit_ulsif(xs, xt, RatioFitConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 19 * 2**20

    @staticmethod
    def _refusing_solver(monkeypatch, refuse):
        """Route every Cholesky solve of ``fit_ulsif`` through ``refuse(ridge,
        nth call at that ridge)``. Returns the list of ridges solved for and
        the reference solver wrapped the same way, counting into that list."""
        calls = []

        def refusing(solve):
            def fake(H, h, ridge, **kwargs):
                calls.append(ridge)
                if refuse(ridge, calls.count(ridge)):
                    raise SingularSystem(f"refused ridge={ridge!r}")
                return solve(H, h, ridge, **kwargs)

            return fake

        monkeypatch.setattr(ratio, "_cho_solve_ridge", refusing(ratio._cho_solve_ridge))
        return calls, refusing(reference_cho_solve)

    @pytest.mark.parametrize("last_fold_only", [False, True])
    def test_refused_ridge_dropped_for_every_width(self, monkeypatch, last_fold_only):
        xs, xt = suite_task_features(21)
        cfg = RatioFitConfig(seed=22)
        widths = len(ratio.DEFAULT_WIDTH_SCALES)
        ridges, folds = len(cfg.ridge_strengths), cfg.cv_folds
        bad = cfg.ridge_strengths[0]

        def refuse(ridge, nth):
            return ridge == bad and (nth % folds == 0 or not last_fold_only)

        calls, reference_solve = self._refusing_solver(monkeypatch, refuse)
        model = fit_ulsif(xs, xt, cfg)
        assert [row[0] for row in model.cv["scores"]] == [None] * widths
        assert all(s is not None for row in model.cv["scores"] for s in row[1:])
        assert model.cv["ridge_index"] != 0
        # Solves for the refused ridge stop at the refusing fold.
        per_width = folds if last_fold_only else 1
        assert calls.count(bad) == widths * per_width
        assert len(calls) == widths * ((ridges - 1) * folds + per_width) + 1
        calls.clear()
        assert_matches_reference(xs, xt, cfg, reference_solve)

    def test_refusals_on_middle_folds_drop_only_their_cells(self, monkeypatch):
        xs, xt = suite_task_features(21)
        cfg = RatioFitConfig(seed=22)
        widths = len(ratio.DEFAULT_WIDTH_SCALES)
        ridges, folds = cfg.ridge_strengths, cfg.cv_folds
        # ridges[1] is refused on its 2nd solve and ridges[3] on its 4th: on
        # folds 1 and 3 of the first width. Counted modulo one fit's solves at
        # that ridge, so the reference fit run after fit_ulsif refuses the same.
        nth_refused = {ridges[1]: 2, ridges[3]: 4}
        per_fit = {r: nth + (widths - 1) * folds for r, nth in nth_refused.items()}

        def refuse(ridge, nth):
            return ridge in nth_refused and nth % per_fit[ridge] == nth_refused[ridge]

        calls, reference_solve = self._refusing_solver(monkeypatch, refuse)
        model = fit_ulsif(xs, xt, cfg)
        refused = [
            (i, j)
            for i, row in enumerate(model.cv["scores"])
            for j, s in enumerate(row)
            if s is None
        ]
        assert refused == [(0, 1), (0, 3)]
        assert model.cv["ridge_index"] not in (1, 3)  # so no refit solve counts
        assert {r: calls.count(r) for r in per_fit} == per_fit
        # A refused ridge is not solved on the first width's later folds.
        skipped = (folds - 2) + (folds - 4)
        assert len(calls) == widths * len(ridges) * folds - skipped + 1
        calls.clear()
        assert_matches_reference(xs, xt, cfg, reference_solve)

    def test_refusing_every_ridge_raises(self, monkeypatch):
        self._refusing_solver(monkeypatch, lambda ridge, nth: True)
        xs, xt = gaussian_pair(n=100)
        with pytest.raises(SingularSystem, match="every"):
            fit_ulsif(xs, xt, RatioFitConfig(seed=1))

    @pytest.mark.parametrize("n_s, n_t", [(1, 3), (3, 1), (1, 1)])
    def test_too_few_samples_for_cv_is_config_invalid(self, n_s, n_t):
        with pytest.raises(ConfigInvalid, match=f"n_s={n_s}, n_t={n_t}.*cv_folds=5"):
            fit_ulsif(np.zeros((n_s, 2)), np.ones((n_t, 2)), RatioFitConfig())

    def test_cv_block_grid_edge_flag(self):
        xs, xt = gaussian_pair()
        # Widths far below the data scale: the widest one wins, on the edge.
        widths = (1e-3, 2e-3, 4e-3)
        model = fit_ulsif(xs, xt, RatioFitConfig(kernel_widths=widths, seed=3))
        cv = model.cv
        assert cv["widths"] == list(widths)
        assert cv["ridges"] == list(RatioFitConfig().ridge_strengths)
        assert cv["width_index"] == 2 and cv["on_grid_edge"] is True
        assert cv["width_on_edge"] is True
        # A suite task whose choice lies inside both grids.
        xs, xt = suite_task_features(13)
        cv = fit_ulsif(xs, xt, RatioFitConfig(seed=13)).cv
        assert 0 < cv["width_index"] < 4 and 0 < cv["ridge_index"] < 3
        assert cv["on_grid_edge"] is False
        assert cv["width_on_edge"] is False and cv["ridge_on_edge"] is False
        scores = np.array(cv["scores"], dtype=float)
        assert scores[cv["width_index"], cv["ridge_index"]] == scores.min()


def _points(min_rows, max_rows):
    """Small point clouds with repeated coordinates, so some pairs coincide."""
    coord = st.one_of(st.sampled_from([0.0, 1.0, -2.5]), st.floats(-1e3, 1e3))
    return st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(coord, min_size=d, max_size=d),
            min_size=min_rows,
            max_size=max_rows,
        )
    )


# The block size the width tests patch in; n = 4, 5, 6 and 11 meet its edges.
_BLOCK = 5


@st.composite
def _blocked_points(draw):
    """Point clouds of n rows about the patched block edges, up to 64
    columns, with tied distances and duplicate rows across every edge."""
    n = draw(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 1000]))
    d = draw(st.integers(1, 64))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        x = rng.integers(-2, 3, (n, d)).astype(np.float64)  # many ties and zeros
    else:
        x = rng.standard_normal((n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        # The first row of every block repeats the last row of the one before.
        x[_BLOCK::_BLOCK] = x[_BLOCK - 1 : n - 1 : _BLOCK]
    return x


class TestSqDists:
    @pytest.mark.parametrize(
        "rows", [1, ratio._SQ_BLOCK - 1, ratio._SQ_BLOCK, 2 * ratio._SQ_BLOCK + 1]
    )
    def test_out_matches_whole_arrays(self, rows):
        # The width heuristic's squared distances are _sq_dists's bit for
        # bit only while its row blocks of sums give what whole arrays give.
        rng = np.random.Generator(np.random.Philox(rows))
        x, c = rng.standard_normal((rows, 5)), rng.standard_normal((30, 5))
        x[rows // 2] = c[3]  # a coincident pair, clamped to 0
        block = np.full((2, rows + 7, 30), np.nan)
        buf = block[1, 7:]
        assert ratio._sq_dists(x, c, out=buf) is buf
        want = reference_sq_dists(x, c)
        assert buf.tobytes() == want.tobytes()
        assert ratio._sq_dists(x, c).tobytes() == want.tobytes()
        assert np.isnan(block[0]).all() and np.isnan(block[1, :7]).all()


class TestWidthHeuristic:
    """``_median_pairwise_distance`` is bitwise the ``np.median`` body."""

    @staticmethod
    def assert_bitwise(x, seed=0):
        new_rng, old_rng = ratio._rng(seed), ratio._rng(seed)
        got = ratio._median_pairwise_distance(x, new_rng)
        want = reference_median_pairwise_distance(x, old_rng)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # The same draws were consumed.
        assert new_rng.integers(2**62) == old_rng.integers(2**62)
        return got

    @given(_points(2, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_median(self, rows):
        self.assert_bitwise(np.array(rows, dtype=np.float64))

    @given(_blocked_points())
    @settings(max_examples=100, deadline=None)
    def test_matches_median_across_block_edges(self, x):
        with mock.patch.object(ratio, "_WIDTH_BLOCK", _BLOCK):
            self.assert_bitwise(x)

    @pytest.mark.parametrize("offset", [-1, 0, 1, ratio._WIDTH_BLOCK + 1])
    def test_shipped_block_edges(self, offset):
        n = ratio._WIDTH_BLOCK + offset
        x = np.random.Generator(np.random.Philox(n)).standard_normal((n, 5))
        x[n // 2] = x[0]
        self.assert_bitwise(x)

    def test_traced_peak_at_1000_rows(self):
        # A 1000-row pool is cut to the drawn points, so the peak is their
        # product (which holds the packed values too) plus at most 512 KiB for
        # the draw, the block buffer and the masks.
        x = np.random.Generator(np.random.Philox(8)).standard_normal((1000, 5))
        tracemalloc.start()
        try:
            ratio._median_pairwise_distance(x, ratio._rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * ratio._WIDTH_SAMPLE**2 + 2**19

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_odd_and_even_pair_counts(self, n):
        # n points in general position give n(n-1)/2 distinct pairs:
        # 6, 10, 15, 21 -- both parities.
        x = np.random.Generator(np.random.Philox(n)).standard_normal((n, 2))
        self.assert_bitwise(x)

    def test_duplicates_drop_zero_distances(self):
        x = np.array([[0.0], [0.0], [3.0], [3.0], [7.0]])
        # Nonzero squared distances: 9 (x4), 16 (x2), 49 (x2); the two zero
        # ones are dropped, so the median of the eight is (9 + 16) / 2.
        assert self.assert_bitwise(x) == math.sqrt(12.5)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_identical_points_give_one(self, n):
        assert self.assert_bitwise(np.full((n, 3), 4.25)) == 1.0

    @pytest.mark.parametrize("extra", [0, 1, 98, 701])
    def test_subsampled_above_sample_cap(self, extra):
        # At the cap every point is used; one more and the cap is drawn.
        rng = np.random.Generator(np.random.Philox(extra))
        x = rng.standard_normal((ratio._WIDTH_SAMPLE + extra, 5))
        x[::7] = x[1::7][: len(x[::7])]  # some duplicate rows
        self.assert_bitwise(x, extra)


def run_fresh(*lines: str) -> str:
    """Run ``lines`` in a fresh interpreter with this package's sources on
    the path, after ``import sys`` and ``import numpy as np``; return its
    stdout."""
    src = str(pathlib.Path(ratio.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(["import sys", "import numpy as np", *lines])],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="counts glibc's heap reuse"
)
@pytest.mark.parametrize("n", [500, 5000])
def test_repeated_api_fit_does_not_fault(n):
    # Each fit's distances and kernels are one block: once a freed block has
    # raised glibc's dynamic mmap threshold, later fits reuse the heap with
    # no process-wide allocator setting (the CLI is never imported).
    out = run_fresh(
        "import resource",
        "from shiftagg.ratio import RatioFitConfig, evaluate_ratio, fit_ulsif",
        "rng = np.random.Generator(np.random.Philox(0))",
        f"xs, xt = rng.standard_normal(({n}, 5)), rng.normal(0.5, 1.0, ({n}, 5))",
        "faults = []",
        "for _ in range(3):",
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "    evaluate_ratio(fit_ulsif(xs, xt, RatioFitConfig()), xs)",
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        "assert 'shiftagg.cli' not in sys.modules",
        "print(faults[2])",
    )
    assert int(out) < 100, out


class TestCholeskySolve:
    def test_matches_scipy_bitwise(self):
        rng = np.random.Generator(np.random.Philox(41))
        K = np.exp(-rng.uniform(0.0, 4.0, (300, 60)))
        H, h = K.T @ K / 300, K.mean(axis=0)
        for ridge in (1e-3, 1e-2, 1.0):
            got = ratio._cho_solve_ridge(H, h, ridge)
            assert np.array_equal(got, reference_cho_solve(H, h, ridge))

    def test_not_positive_definite_is_singular_system(self):
        H = -np.eye(4)
        with pytest.raises(SingularSystem, match="ridge=0.5"):
            ratio._cho_solve_ridge(H, np.ones(4), 0.5)

    def test_rank_deficient_cells_are_dropped(self):
        # Identical source rows make every training system rank one, so the
        # tiny ridge is refused by LAPACK on every width; the fit goes on.
        rng = np.random.Generator(np.random.Philox(42))
        xs = np.tile(rng.standard_normal((1, 2)), (60, 1))
        xt = rng.standard_normal((60, 2))
        cfg = RatioFitConfig(ridge_strengths=(1e-300, 0.1), n_centers=30, seed=3)
        model = fit_ulsif(xs, xt, cfg)
        assert [row[0] for row in model.cv["scores"]] == [None] * 5
        assert model.cv["ridge_index"] == 1
        assert_matches_reference(xs, xt, cfg)

    def test_non_finite_system_is_refused(self, monkeypatch):
        with pytest.raises(NonFiniteValue):
            ratio._cho_solve_ridge(np.eye(3), np.array([1.0, np.nan, 0.0]), 0.1)
        H = np.eye(3)
        H[2, 1] = np.inf
        with pytest.raises(NonFiniteValue):
            ratio._cho_solve_ridge(H, np.ones(3), 0.1)

        # fit_ulsif checks each fold's system once, before any ridge's solve.
        kernel = ratio._gaussian_kernel

        def nan_kernel(d2, width, out=None):
            out = kernel(d2, width, out=out)
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(ratio, "_gaussian_kernel", nan_kernel)
        rng = np.random.Generator(np.random.Philox(43))
        xs, xt = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
        with pytest.raises(NonFiniteValue, match="fold 0"):
            fit_ulsif(xs, xt, RatioFitConfig(n_centers=10, seed=1))

    def test_illegal_argument_is_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(ratio, "_POTRF", lambda A, **kw: (A, -4))
        with pytest.raises(NumericalError, match="argument 4"):
            ratio._cho_solve_ridge(np.eye(3), np.ones(3), 0.1)

    @pytest.mark.parametrize(
        "imports",
        ["import shiftagg, scipy.linalg", "import scipy.linalg, shiftagg"],
        ids=["shiftagg_first", "scipy_first"],
    )
    def test_routines_are_scipys_own(self, imports):
        """In either import order, the pair is the very objects
        ``get_lapack_funcs`` returns, so every solve runs the same code."""
        out = run_fresh(
            imports,
            "from shiftagg import ratio",
            "pair = scipy.linalg.get_lapack_funcs(('potrf', 'potrs'), dtype=np.float64)",
            "print(pair[0] is ratio._POTRF, pair[1] is ratio._POTRS)",
        )
        assert out == "True True\n"

    @pytest.mark.parametrize("found", ["no_directory", "no_file", "unloadable_file"])
    def test_missing_module_falls_back_to_scipy_linalg(self, found, tmp_path):
        if found == "unloadable_file":
            (tmp_path / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a library")
        got = ratio._lapack_cholesky(None if found == "no_directory" else str(tmp_path))
        want = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
        assert got[0] is want[0] and got[1] is want[1]

    def test_process_loads_only_scipys_lapack_module(self):
        """Importing the package and its CLI and fitting both ratio
        estimators load one module of scipy, its compiled LAPACK wrappers,
        and leave no ``scipy*`` entry in ``sys.modules``: no ``scipy.linalg``
        package, no ``scipy._lib``, no ``scipy.special``, whose imports every
        process would pay for."""
        out = run_fresh(
            "import shiftagg, shiftagg.cli",
            "from shiftagg.ratio import RatioFitConfig, fit_logistic_ratio, fit_ulsif",
            "rng = np.random.Generator(np.random.Philox(0))",
            "xs, xt = rng.standard_normal((30, 2)), rng.normal(0.5, 1.0, (30, 2))",
            "fit_logistic_ratio(xs, xt, RatioFitConfig())",
            "fit_ulsif(xs, xt, RatioFitConfig())",
            "from shiftagg import ratio",
            "print([m for m in sys.modules if m.startswith('scipy')])",
            "print(type(ratio._POTRF).__name__, type(ratio._POTRS).__name__)",
        )
        assert out == "[]\nfortran fortran\n"

    def test_later_scipy_linalg_import_binds_flapack(self):
        """A ``scipy.linalg`` imported after the package has its ``_flapack``
        attribute, and that module holds the package's own routines."""
        out = run_fresh(
            "import shiftagg, scipy.linalg",
            "from shiftagg import ratio",
            "flapack = scipy.linalg._flapack",
            "print(flapack is sys.modules['scipy.linalg._flapack'])",
            "print(flapack.dpotrf is ratio._POTRF, flapack.dpotrs is ratio._POTRS)",
        )
        assert out == "True\nTrue True\n"

    def test_an_earlier_registration_is_kept(self):
        """Where ``scipy.linalg._flapack`` was registered before the load,
        the entry stays as it was."""
        out = run_fresh(
            "import os, scipy.linalg",
            "from shiftagg import ratio",
            "before = sys.modules['scipy.linalg._flapack']",
            "pair = ratio._lapack_cholesky(os.path.dirname(before.__file__))",
            "print(sys.modules['scipy.linalg._flapack'] is before)",
            "print(pair[0] is before.dpotrf, scipy.linalg._flapack is before)",
        )
        assert out == "True\nTrue True\n"


class TestLogistic:
    def test_identical_samples_near_chance(self):
        rng = np.random.Generator(np.random.Philox(8))
        x = rng.standard_normal((2000, 2))
        model = fit_logistic_ratio(x, x, RatioFitConfig(seed=4))
        beta = evaluate_ratio(model, x)
        assert abs(float(np.mean(beta)) - 1.0) < 0.05

    def test_gaussian_recovery(self):
        xs, xt = gaussian_pair()
        model = fit_logistic_ratio(xs, xt, RatioFitConfig(seed=3))
        beta = evaluate_ratio(model, GRID)
        assert float(np.mean((beta - TRUE_RATIO) ** 2)) < 0.05
        assert np.all(beta >= 0.0) and np.all(beta <= model.bound)

    def test_separable_domains_hit_truncation(self):
        rng = np.random.Generator(np.random.Philox(12))
        xs = rng.normal(-10.0, 0.3, (400, 1))
        xt = rng.normal(10.0, 0.3, (400, 1))
        model = fit_logistic_ratio(xs, xt, RatioFitConfig(seed=5))
        # Target side is forced onto the upper truncation bound; the source
        # side's odds collapse toward the lower bound.
        assert float(np.min(evaluate_ratio(model, xt))) == model.bound
        assert float(np.max(evaluate_ratio(model, xs))) < 0.05

    def test_swap_symmetry(self):
        xs, xt = gaussian_pair()
        cfg = RatioFitConfig(seed=3)
        fwd = evaluate_ratio(fit_logistic_ratio(xs, xt, cfg), GRID)
        bwd = evaluate_ratio(fit_logistic_ratio(xt, xs, cfg), GRID)
        assert abs(float(np.median(fwd * bwd)) - 1.0) < 0.15

    def test_iteration_cap_reports_gradient_norm(self):
        from shiftagg.ratio import _logistic_newton

        rng = np.random.Generator(np.random.Philox(31))
        X = with_bias(rng.standard_normal((100, 2)))
        y = (rng.uniform(size=100) < 0.5).astype(float)
        with pytest.raises(NonConvergence, match="gradient norm"):
            _logistic_newton(X, y, ridge=1e-3, tol=1e-15, max_iter=3, strict=True)

    def test_refused_hessian_takes_a_gradient_step(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(32))
        z = rng.standard_normal((200, 3))
        y = (rng.uniform(size=200) < 0.5 + 0.2 * np.tanh(z[:, 0])).astype(float)
        X = with_bias(z)
        want = ratio._logistic_newton(X, y, 1e-2, tol=1e-9, max_iter=100, strict=True)[0]
        solve, calls = ratio._cho_solve_ridge, []

        def refuse_first(H, h, r):
            calls.append(r)
            if len(calls) == 1:
                raise SingularSystem("refused")
            return solve(H, h, r)

        monkeypatch.setattr(ratio, "_cho_solve_ridge", refuse_first)
        got = ratio._logistic_newton(X, y, 1e-2, tol=1e-9, max_iter=100, strict=True)[0]
        assert len(calls) > 1
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    def test_newton_solution_has_zero_gradient(self):
        """The fit is the regularized optimum: its gradient, formed here with
        the textbook sigmoid, is below the refit tolerance."""
        rng = np.random.Generator(np.random.Philox(33))
        z = rng.standard_normal((500, 4))
        y = (rng.uniform(size=500) < 1 / (1 + np.exp(-2.0 * z[:, 1]))).astype(float)
        ridge = 1e-3
        X = with_bias(z)
        w, _, gnorm = ratio._logistic_newton(X, y, ridge, tol=1e-6, max_iter=100, strict=True)
        grad = X.T @ (1 / (1 + np.exp(-(X @ w))) - y) / 500
        grad[:-1] += ridge * w[:-1]
        assert float(np.linalg.norm(grad)) < 1e-6
        assert gnorm < 1e-6


def reference_logistic_cv(xs, xt, cfg):
    """Each ridge's mean held-out log-loss over the folds, and the refit's
    ``(w, steps, gradient_norm)`` at ``ridge``-grid index ``j`` of its
    lowest: the design, folds and fits of ``fit_logistic_ratio``, one fold
    at a time."""
    rng = ratio._rng(cfg.seed)
    pooled = np.vstack([xs, xt])
    sd = pooled.std(axis=0)
    z = (pooled - pooled.mean(axis=0)) / np.where(sd == 0, 1.0, sd)
    X, y = with_bias(z), np.repeat([0.0, 1.0], [len(xs), len(xt)])
    fold = np.concatenate([ratio._fold_ids(len(x), cfg.cv_folds, rng) for x in (xs, xt)])
    losses = []
    for f in range(cfg.cv_folds):
        tr, va = fold != f, fold == f
        row = []
        for ridge in cfg.ridge_strengths:
            w = ratio._logistic_newton(X[tr], y[tr], ridge, 1e-5, 100, strict=False)[0]
            s = z[va] @ w[:-1] + w[-1]
            row.append(float(np.mean(np.logaddexp(0.0, s) - y[va] * s)))
        losses.append(row)
    scores = np.mean(losses, axis=0).tolist()
    j = scores.index(min(scores))
    return scores, j, ratio._logistic_newton(X, y, cfg.ridge_strengths[j], 1e-6, 100, True)


class TestLogisticCV:
    """The logistic model's ``cv`` block: ridge grid, held-out log-loss per
    ridge, the chosen ridge and the refit's Newton steps and gradient."""

    def test_interior_ridge_with_newton_steps(self):
        rng = np.random.Generator(np.random.Philox(44))
        xs, xt = rng.normal(0.0, 1.0, (300, 2)), rng.normal(0.7, 1.0, (300, 2))
        cfg = RatioFitConfig(ridge_strengths=(1e-4, 1e-3, 1e-2, 1e-1, 1.0), seed=0)
        cv = fit_logistic_ratio(xs, xt, cfg).cv
        scores, j, (_, steps, gnorm) = reference_logistic_cv(xs, xt, cfg)
        assert list(cv) == ["ridges", "scores", "ridge_index", "ridge_on_edge",
                            "newton_steps", "gradient_norm"]
        assert cv["ridges"] == [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        assert cv["scores"] == scores
        assert cv["ridge_index"] == j and 0 < j < 4 and cv["ridge_on_edge"] is False
        assert cv["newton_steps"] == steps >= 2
        assert cv["gradient_norm"] == gnorm < 1e-6

    def test_identical_samples_take_no_step_and_the_largest_ridge(self):
        # Equal samples put the gradient at w = 0 at rounding level, and the
        # heaviest penalty holds out best.
        x = np.random.Generator(np.random.Philox(45)).standard_normal((200, 2))
        cv = fit_logistic_ratio(x, x, RatioFitConfig(seed=4)).cv
        assert cv["newton_steps"] == 0 and cv["gradient_norm"] < 1e-12
        assert cv["ridge_index"] == 3 and cv["ridge_on_edge"] is True
        assert min(cv["scores"]) == cv["scores"][3]

    @pytest.mark.parametrize("folds", [2, 5])
    def test_no_scored_fold_is_config_invalid(self, folds):
        # One sample per domain: every fold's training side has one class.
        with pytest.raises(
            ConfigInvalid, match=f"n_s=1, n_t=1 and cv_folds={folds}; a fold"
        ):
            fit_logistic_ratio(
                np.zeros((1, 2)), np.ones((1, 2)), RatioFitConfig(cv_folds=folds)
            )

    def test_one_sample_of_one_domain_still_scores(self):
        cv = fit_logistic_ratio(np.zeros((1, 2)), np.ones((3, 2)), RatioFitConfig()).cv
        assert None not in cv["scores"]

    def test_round_trip_and_a_file_without_cv(self, tmp_path):
        xs, xt = gaussian_pair(n=200)
        model = fit_logistic_ratio(xs, xt, RatioFitConfig(seed=2))
        save_ratio_model(model, tmp_path / "ratio.json")
        assert load_ratio_model(tmp_path / "ratio.json").cv == model.cv
        doc = ratio_model_to_dict(model)
        del doc["cv"]
        old = ratio_model_from_dict(doc)
        assert old.cv is None
        assert np.array_equal(evaluate_ratio(old, GRID), evaluate_ratio(model, GRID))


@pytest.mark.parametrize("estimator", ["ulsif", "logistic"])
@pytest.mark.parametrize("folds", [10**15, 10**29])
def test_huge_cv_folds_fit_as_one_sample_folds(estimator, folds, tmp_path):
    """A cv_folds at or above the larger sample's size gives one-sample
    folds, so a huge count fits at once, to the same bytes."""
    rng = np.random.Generator(np.random.Philox(16))
    xs, xt = rng.standard_normal((40, 2)), rng.normal(0.3, 1.0, (30, 2))
    for name, k in (("huge.json", folds), ("n.json", 40)):
        cfg = RatioFitConfig(cv_folds=k, seed=8)
        save_ratio_model(fit_ratio(xs, xt, cfg, estimator), tmp_path / name)
    assert (tmp_path / "huge.json").read_bytes() == (tmp_path / "n.json").read_bytes()


class TestEvaluateRatio:
    def test_analytic_identity_when_no_shift(self):
        model = analytic_gaussian_ratio([0.0, 0.0], [0.0, 0.0], 1.0)
        x = np.random.Generator(np.random.Philox(3)).standard_normal((50, 2))
        assert np.array_equal(evaluate_ratio(model, x), np.ones(50))

    def test_negative_raw_scores_clamp_to_zero(self):
        model = RatioModel(
            kind="ulsif",
            bound=5.0,
            centers=np.zeros((1, 1)),
            alpha=np.array([-2.0]),
            kernel_width=1.0,
        )
        assert float(evaluate_ratio(model, np.zeros((1, 1)))[0]) == 0.0

    def test_large_raw_scores_clamp_to_bound(self):
        model = RatioModel(
            kind="ulsif",
            bound=5.0,
            centers=np.zeros((1, 1)),
            alpha=np.array([15.0]),  # raw score 3B at the center
            kernel_width=1.0,
        )
        assert float(evaluate_ratio(model, np.zeros((1, 1)))[0]) == 5.0

    def test_logistic_saturates_both_bounds(self):
        model = RatioModel(
            kind="logistic",
            bound=20.0,
            classifier_weights=np.array([1000.0, 0.0]),
            ns_over_nt=1.0,
        )
        beta = evaluate_ratio(model, np.array([[-1.0], [1.0]]))
        assert float(beta[0]) == 0.0
        assert float(beta[1]) == 20.0

    def test_dimension_mismatch(self):
        model = analytic_gaussian_ratio([0.0], [0.5], 1.0)
        with pytest.raises(DimensionMismatch):
            evaluate_ratio(model, np.zeros((3, 2)))

    def test_range_property_random_models(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(20):
            model = RatioModel(
                kind="ulsif",
                bound=float(rng.uniform(0.5, 30.0)),
                centers=rng.standard_normal((5, 2)),
                alpha=rng.standard_normal(5) * 10.0,
                kernel_width=float(rng.uniform(0.2, 3.0)),
            )
            beta = evaluate_ratio(model, rng.standard_normal((40, 2)))
            assert np.all(beta >= 0.0) and np.all(beta <= model.bound)


class TestSelfNormalize:
    def test_constant_vector(self):
        np.testing.assert_array_equal(
            self_normalize([2.0, 2.0, 2.0]), np.ones(3)
        )

    def test_mean_forced_to_one(self):
        np.testing.assert_allclose(
            self_normalize([0.0, 1.0, 3.0]), [0.0, 0.75, 2.25], rtol=0, atol=0
        )

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroWeights):
            self_normalize([0.0, 0.0, 0.0])

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
            min_size=1,
            max_size=50,
        ).filter(lambda v: any(x > 0 for x in v))
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_one_and_proportional(self, values):
        w = np.asarray(values)
        out = self_normalize(w)
        assert abs(float(np.mean(out)) - 1.0) <= 1e-12
        np.testing.assert_allclose(out * float(np.mean(w)), w, rtol=1e-12, atol=0)


class TestModelSerialization:
    def test_ulsif_round_trip(self, tmp_path):
        xs, xt = gaussian_pair(n=200)
        model = fit_ulsif(xs, xt, RatioFitConfig(seed=6, n_centers=20))
        save_ratio_model(model, tmp_path / "ratio.json")
        loaded = load_ratio_model(tmp_path / "ratio.json")
        assert loaded.kind == "ulsif"
        assert np.array_equal(loaded.alpha, model.alpha)
        assert np.array_equal(loaded.centers, model.centers)
        assert loaded.kernel_width == model.kernel_width
        assert loaded.cv == model.cv
        x = xs[:17]
        assert np.array_equal(evaluate_ratio(loaded, x), evaluate_ratio(model, x))

    def test_model_without_cv_block_loads(self):
        xs, xt = gaussian_pair(n=200)
        doc = ratio_model_to_dict(fit_ulsif(xs, xt, RatioFitConfig(n_centers=20)))
        del doc["cv"]
        assert ratio_model_from_dict(doc).cv is None
        doc["cv"] = [1, 2]
        with pytest.raises(MalformedFile, match="cv block"):
            ratio_model_from_dict(doc)

    def test_analytic_round_trip(self, tmp_path):
        model = analytic_gaussian_ratio([0.0, 1.0], [0.5, 1.0], 2.0, bound=7.0)
        save_ratio_model(model, tmp_path / "ratio.json")
        loaded = load_ratio_model(tmp_path / "ratio.json")
        x = np.random.Generator(np.random.Philox(1)).standard_normal((20, 2))
        assert np.array_equal(evaluate_ratio(loaded, x), evaluate_ratio(model, x))
        assert loaded.params == model.params

    def test_analytic_construction_does_not_decode(self, monkeypatch):
        """In-memory params skip the JSON decoder, which only a loaded
        ``ratio.json`` needs."""
        monkeypatch.setattr(ratio, "decode_value", mock.Mock(side_effect=AssertionError))
        model = analytic_gaussian_ratio(np.array([0.0, 1.0]), [0.5, 1], 2)
        assert model.params == {
            "source_mean": (0.0, 1.0),
            "target_mean": (0.5, 1.0),
            "cov_scale": 2.0,
        }

    @pytest.mark.parametrize(
        "mu_p, mu_q, scale",
        [([0.0], [0.5, 0.0], 1.0), ([], [], 1.0), ([0.0], [0.5], 0.0),
         ([0.0], [0.5], math.nan)],
        ids=["length_mismatch", "empty_means", "zero_scale", "nan_scale"],
    )
    def test_bad_analytic_params_in_memory(self, mu_p, mu_q, scale):
        with pytest.raises(ConfigInvalid, match="analytic params"):
            analytic_gaussian_ratio(mu_p, mu_q, scale)
