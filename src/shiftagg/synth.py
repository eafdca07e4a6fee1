"""Synthetic covariate-shift tasks with analytic ratios and known optima.

Source inputs are drawn from ``N(mu_p, s*I)`` and target inputs from
``N(mu_q, s*I)``; labels come from one shared noisy labeling function, so
the shift is purely in the inputs and the exact density ratio is the
closed form ``beta(x) = exp((||x - mu_p||^2 - ||x - mu_q||^2) / (2 s))``.
A deterministic model family is fit on the source sample only, which makes
every quantity of interest -- true target risks, the best aggregation, the
Bayes risk -- directly computable at desk scale.

All randomness flows from counter-based Philox generators keyed by the
config seed; identical configs produce bitwise-identical tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import _check_tikhonov, empirical_risk, target_moments
from .data import PredictionBundle, SourceDataset, TargetDataset
from .errors import ConfigInvalid, SingularFit, SingularSystem
from .ratio import DEFAULT_BOUND, RatioFitConfig, RatioModel, analytic_gaussian_ratio
from .ratio import _cho_solve_ridge, fit_ratio
from .selection import ComparisonReport, MethodRow, build_method_rows
from .serialize import aligned_table, config_to_dict, fmt_float

__all__ = [
    "SynthTaskConfig",
    "SynthTask",
    "SuiteConfig",
    "TrialRecord",
    "SuiteReport",
    "generate_task",
    "fit_model_family",
    "run_suite",
]

# Family defaults, chosen so that no single family member can match the
# span: each model sees only a handful of random cosine features, narrow
# enough that its approximation error is substantial and draw-specific,
# while the labeling function (10 random waves) is rich enough that those
# errors stay complementary across models.
_RFF_FEATURES = 4
_RFF_RIDGE = 3e-3
_RFF_WIDTH_SPAN = (0.85, 1.0)
_BAYES_WAVES = 10


def _refuse_oversized(sizes: dict[str, int], *shapes) -> None:
    """Refuse, naming its largest key, the first shape whose array of
    8-byte values would exceed the bytes an index can address. A shape
    holds keys of ``sizes`` and integers."""
    limit = np.iinfo(np.intp).max
    for shape in shapes:
        dims = [sizes.get(d, d) for d in shape]
        if 8 * math.prod(dims) > limit:
            key = max((d for d in shape if d in sizes), key=sizes.__getitem__)
            raise ConfigInvalid(
                f"{key} = {sizes[key]} is too large: it implies an array of "
                f"{' x '.join(map(str, dims))} 8-byte values, over {limit} bytes"
            )


def _philox(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


@dataclass(frozen=True)
class SynthTaskConfig:
    """Shape, shift, noise, and model-family settings for one task."""

    d1: int = 5
    d2: int = 1
    n_s: int = 500
    n_t: int = 500
    source_mean: tuple[float, ...] | None = None
    target_mean: tuple[float, ...] | None = None
    shared_cov_scale: float = 1.0
    noise_std: float = 0.1
    bayes_kind: str = "fourier"
    model_family: str = "random_features"
    family_size: int = 10
    ridge_grid: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("d1", "d2", "n_s", "n_t", "family_size"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(f"{name} must be >= 1")
        if not 0 < self.shared_cov_scale < math.inf:
            raise ConfigInvalid(
                "shared_cov_scale must be finite and positive, got "
                f"{self.shared_cov_scale}"
            )
        if not 0 <= self.noise_std < math.inf:
            raise ConfigInvalid(
                f"noise_std must be finite and nonnegative, got {self.noise_std}"
            )
        if self.bayes_kind not in ("linear", "fourier"):
            raise ConfigInvalid(f"unknown bayes_kind {self.bayes_kind!r}")
        if self.model_family not in ("ridge_grid", "random_features"):
            raise ConfigInvalid(f"unknown model_family {self.model_family!r}")
        # Before the mean vectors below: the samples, the labeling
        # function's waves, the prediction tensors and the ridge_grid
        # family's normal matrix.
        _refuse_oversized(
            {k: getattr(self, k) for k in ("d1", "d2", "n_s", "n_t", "family_size")},
            ("n_s", "d1"),
            ("n_t", "d1"),
            ("d1", _BAYES_WAVES),
            ("family_size", "n_s", "d2"),
            ("family_size", "n_t", "d2"),
            *([("d1", "d1")] if self.model_family == "ridge_grid" else []),
        )
        mu_p = self.source_mean
        mu_p = tuple(0.0 for _ in range(self.d1)) if mu_p is None else tuple(
            float(v) for v in mu_p
        )
        mu_q = self.target_mean
        if mu_q is None:
            mu_q = (0.5,) + tuple(0.0 for _ in range(self.d1 - 1))
        else:
            mu_q = tuple(float(v) for v in mu_q)
        if len(mu_p) != self.d1 or len(mu_q) != self.d1:
            raise ConfigInvalid("mean vectors must have length d1")
        for name, mu in (("source_mean", mu_p), ("target_mean", mu_q)):
            if not all(map(math.isfinite, mu)):
                raise ConfigInvalid(f"{name} must be finite, got {mu}")
        object.__setattr__(self, "source_mean", mu_p)
        object.__setattr__(self, "target_mean", mu_q)
        if self.ridge_grid is not None:
            grid = tuple(float(v) for v in self.ridge_grid)
            if not all(0 < v < math.inf for v in grid):
                raise ConfigInvalid(
                    f"ridge_grid must be finite and positive, got {grid}"
                )
            object.__setattr__(self, "ridge_grid", grid)


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor ``x @ W + b`` with bias stored as the last row."""

    weights: np.ndarray  # (d1 + 1, d2)

    def predict(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x @ self.weights[:-1] + self.weights[-1]


@dataclass(frozen=True)
class CosineFeatureModel:
    """Ridge fit on random cosine features ``sqrt(2/D) cos(x @ P + phase)``."""

    projections: np.ndarray  # (d1, D)
    phases: np.ndarray       # (D,)
    weights: np.ndarray      # (D + 1, d2)

    def features(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d = self.projections.shape[1]
        return np.sqrt(2.0 / d) * np.cos(x @ self.projections + self.phases)

    def predict(self, x) -> np.ndarray:
        f = self.features(x)
        return f @ self.weights[:-1] + self.weights[-1]


@dataclass(frozen=True, eq=False)
class SynthTask:
    """A generated task: bundle, exact ratio, and ground-truth risks."""

    bundle: PredictionBundle
    analytic_ratio: RatioModel
    bayes_target_risk: float
    predictors: tuple
    bayes_model: object
    config: SynthTaskConfig

    def __post_init__(self):
        # Under label noise a family model can beat the labeling function on
        # a finite sample, so dominance is only checkable noiselessly.
        if self.config.noise_std == 0:
            if self.bayes_target_risk > min(self.true_model_risks) + 1e-12:
                raise ConfigInvalid(
                    "labeling function risk exceeds a family model risk on the "
                    "noiseless oracle sample"
                )

    @property
    def true_model_risks(self) -> tuple[float, ...]:
        """Each model's risk on the oracle-labeled target sample, read from
        the bundle's :func:`~shiftagg.aggregation.target_moments`."""
        return tuple(target_moments(self.bundle).true_risks.tolist())


def _ridge_solve_escalating(F, y, reg: float) -> np.ndarray:
    """Ridge regression weights by the uLSIF fit's Cholesky solve, the
    regularizer raised tenfold on each refusal, at most four tries."""
    H, h = F.T @ F, F.T @ y
    for _ in range(4):
        try:
            return _cho_solve_ridge(H, h, reg)
        except SingularSystem:
            reg = max(reg, np.finfo(float).tiny) * 10.0
    raise SingularFit(f"ridge fit failed up to reg={reg!r}")


def _make_bayes(cfg: SynthTaskConfig, rng: np.random.Generator):
    if cfg.bayes_kind == "linear":
        w = np.zeros((cfg.d1 + 1, cfg.d2))
        w[:-1] = rng.standard_normal((cfg.d1, cfg.d2)) / np.sqrt(cfg.d1)
        return LinearModel(weights=w)
    sigma0 = np.sqrt(cfg.d1 * cfg.shared_cov_scale)
    n_waves = _BAYES_WAVES
    proj = rng.standard_normal((cfg.d1, n_waves)) / sigma0
    phases = rng.uniform(0.0, 2.0 * np.pi, n_waves)
    w = np.zeros((n_waves + 1, cfg.d2))
    w[:-1] = rng.standard_normal((n_waves, cfg.d2))
    return CosineFeatureModel(projections=proj, phases=phases, weights=w)


def _task_seed_children(seed: int) -> list[np.random.SeedSequence]:
    # Fixed spawn order: source x, target x, bayes, source noise,
    # target noise, model family.
    return np.random.SeedSequence(int(seed)).spawn(6)


def fit_model_family(
    cfg: SynthTaskConfig, source_x, source_y, target_x
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Fit ``family_size`` deterministic models on the source sample.

    ``ridge_grid`` fits plain ridge regression over a log-spaced grid of
    regularizers; ``random_features`` fits ridge on per-model random cosine
    feature maps whose bandwidths sweep a log-spaced range (each model owns
    an independent draw, which keeps the family diverse). Returns the
    predictors plus prediction tensors on both samples, each filled in
    place; the source predictions come from the features each fit built.
    """
    xs = np.atleast_2d(np.asarray(source_x, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(source_y, dtype=np.float64))
    xt = np.atleast_2d(np.asarray(target_x, dtype=np.float64))
    m = cfg.family_size
    rng = _philox(_task_seed_children(cfg.seed)[5])

    predictors: list = []
    source_preds = np.empty((m, xs.shape[0], ys.shape[1]))
    if cfg.model_family == "ridge_grid":
        grid = cfg.ridge_grid
        if grid is None:
            grid = tuple(np.logspace(-4.0, 2.0, m))
        if len(grid) != m:
            raise ConfigInvalid(
                f"ridge_grid has {len(grid)} entries, family_size is {m}"
            )
        F = np.hstack([xs, np.ones((xs.shape[0], 1))])
        for k, lam in enumerate(grid):
            w = _ridge_solve_escalating(F, ys, lam * xs.shape[0])
            predictors.append(LinearModel(weights=w))
            source_preds[k] = predictors[k].predict(xs)
    else:
        sigma0 = np.sqrt(cfg.d1 * cfg.shared_cov_scale)
        lo, hi = _RFF_WIDTH_SPAN
        widths = np.logspace(np.log10(lo * sigma0), np.log10(hi * sigma0), m)
        for k, width in enumerate(widths):
            proj = rng.standard_normal((cfg.d1, _RFF_FEATURES)) / width
            phases = rng.uniform(0.0, 2.0 * np.pi, _RFF_FEATURES)
            feats = np.sqrt(2.0 / _RFF_FEATURES) * np.cos(xs @ proj + phases)
            F = np.hstack([feats, np.ones((xs.shape[0], 1))])
            w = _ridge_solve_escalating(F, ys, _RFF_RIDGE * xs.shape[0])
            predictors.append(
                CosineFeatureModel(projections=proj, phases=phases, weights=w)
            )
            # CosineFeatureModel.predict(xs), on the features already at hand.
            source_preds[k] = feats @ w[:-1] + w[-1]

    target_preds = np.empty((m, xt.shape[0], ys.shape[1]))
    for k, p in enumerate(predictors):
        target_preds[k] = p.predict(xt)
    return tuple(predictors), source_preds, target_preds


def generate_task(cfg: SynthTaskConfig) -> SynthTask:
    """Draw one task: samples, labels, model family, and ground truth."""
    children = _task_seed_children(cfg.seed)
    mu_p = np.asarray(cfg.source_mean, dtype=np.float64)
    mu_q = np.asarray(cfg.target_mean, dtype=np.float64)
    scale = np.sqrt(cfg.shared_cov_scale)

    xs = mu_p + scale * _philox(children[0]).standard_normal((cfg.n_s, cfg.d1))
    xt = mu_q + scale * _philox(children[1]).standard_normal((cfg.n_t, cfg.d1))
    bayes = _make_bayes(cfg, _philox(children[2]))

    ys = bayes.predict(xs)
    yt = bayes_t = bayes.predict(xt)  # noiseless, for the Bayes risk
    if cfg.noise_std > 0:
        ys = ys + cfg.noise_std * _philox(children[3]).standard_normal(ys.shape)
        yt = yt + cfg.noise_std * _philox(children[4]).standard_normal(yt.shape)

    predictors, source_preds, target_preds = fit_model_family(cfg, xs, ys, xt)
    bundle = PredictionBundle(
        model_names=tuple(f"m{k:02d}" for k in range(cfg.family_size)),
        source_preds=source_preds,
        target_preds=target_preds,
        source=SourceDataset(labels=ys, features=xs),
        target=TargetDataset(features=xt, oracle_labels=yt),
        provenance=f"synthetic task seed={cfg.seed}",
    )
    return SynthTask(
        bundle=bundle,
        analytic_ratio=analytic_gaussian_ratio(
            cfg.source_mean, cfg.target_mean, cfg.shared_cov_scale, DEFAULT_BOUND
        ),
        bayes_target_risk=empirical_risk(bayes_t, yt),
        predictors=predictors,
        bayes_model=bayes,
        config=cfg,
    )


# --- Monte Carlo suite -------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Task template plus ratio-estimation settings for a trial suite.

    ``estimator`` names the fitted ratio (``None``: the analytic one only);
    ``ratio`` holds the settings of that fit.
    """

    task: SynthTaskConfig = SynthTaskConfig()
    estimator: str | None = "ulsif"
    ratio: RatioFitConfig = RatioFitConfig()
    lam: float | None = field(default=None, metadata={"json_key": "lambda"})

    def __post_init__(self):
        if self.estimator not in (None, "ulsif", "logistic"):
            raise ConfigInvalid(f"unknown estimator {self.estimator!r}")
        if self.lam is not None:
            _check_tikhonov(self.lam)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    task_seed: int
    bayes_target_risk: float
    rows: tuple[MethodRow, ...]

    row = ComparisonReport.row
    to_json_dict = config_to_dict


@dataclass(frozen=True)
class SuiteReport:
    """Per-trial comparison rows plus cross-trial summary statistics."""

    config: SuiteConfig
    trials: int
    aggregate: dict
    per_trial: tuple[TrialRecord, ...]

    to_json_dict = config_to_dict

    def format_table(self) -> str:
        rows = [
            [method, fmt_float(self.aggregate["true_risk_mean"][method]),
             fmt_float(self.aggregate["true_risk_median"][method])]
            for method in self.aggregate["true_risk_mean"]
        ]
        out = aligned_table(["method", "mean_true_risk", "median_true_risk"], rows)
        out += "\nwin counts over " + str(self.trials) + " trials:\n"
        for key, val in self.aggregate["win_counts"].items():
            out += f"  {key}: {val}\n"
        return out


def _trial_seed_pairs(seeds, trials: int) -> list[tuple[int, int]]:
    if min(np.ravel(seeds), default=0) < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {seeds}")
    if isinstance(seeds, (int, np.integer)):
        state = np.random.SeedSequence(int(seeds)).generate_state(
            2 * trials, dtype=np.uint64
        )
        return [(int(state[2 * i]), int(state[2 * i + 1])) for i in range(trials)]
    seed_list = [int(s) for s in seeds]
    if len(seed_list) != trials:
        raise ConfigInvalid(
            f"{len(seed_list)} seeds provided for {trials} trials"
        )
    return [(s, s + 1) for s in seed_list]


def _run_trial(cfg: SuiteConfig, trial: int, task_seed: int, ratio_seed: int):
    task = generate_task(replace(cfg.task, seed=task_seed))
    betas: dict[str, object] = {"analytic": task.analytic_ratio}
    if cfg.estimator is not None:
        betas[cfg.estimator] = fit_ratio(
            task.bundle.source.features,
            task.bundle.target.features,
            replace(cfg.ratio, seed=ratio_seed),
            cfg.estimator,
        )
    rows = build_method_rows(task.bundle, betas, cfg.lam)
    return TrialRecord(
        trial=trial,
        task_seed=task_seed,
        bayes_target_risk=task.bayes_target_risk,
        rows=tuple(rows),
    )


def run_suite(cfg: SuiteConfig, trials: int, seeds) -> SuiteReport:
    """Monte Carlo comparison of aggregation against selection baselines.

    ``seeds`` is either a single integer (per-trial seeds are derived from
    it) or an explicit sequence of one seed per trial. Trials run in order,
    one at a time; a failed trial raises before the next one starts.
    """
    if trials < 1:
        raise ConfigInvalid("trials must be >= 1")
    _refuse_oversized({"trials": trials}, ("trials", 2))  # two seeds a trial
    pairs = _trial_seed_pairs(seeds, trials)
    records = [_run_trial(cfg, i, *pair) for i, pair in enumerate(pairs)]
    return SuiteReport(
        config=cfg,
        trials=trials,
        per_trial=tuple(records),
        aggregate=_aggregate_stats(records),
    )


def _aggregate_stats(records: list[TrialRecord]) -> dict:
    risks = [{r.method: r.true_target_risk for r in rec.rows} for rec in records]
    methods = list(risks[0])

    mean = {}
    median = {}
    for m in methods:
        vals = [r[m] for r in risks if r.get(m) is not None]
        if vals:
            mean[m] = float(np.mean(vals))
            median[m] = float(np.median(vals))

    model_methods = [m for m in methods if m.startswith("model:")]
    win_counts = {
        "aggregate_oracle_le_best_model": sum(
            1
            for r in risks
            if r.get("aggregate_oracle") is not None
            and r["aggregate_oracle"] <= min(r[m] for m in model_methods) + 1e-9
        )
    }
    # Each weight source wrote a select_iwv<tag> row and an aggregate<tag> row.
    for iwv_m in (m for m in methods if m.startswith("select_iwv")):
        agg_m = "aggregate" + iwv_m.removeprefix("select_iwv")
        win_counts[f"{agg_m}_le_{iwv_m}"] = sum(
            1 for r in risks if r[agg_m] is not None and r[agg_m] <= r[iwv_m]
        )
        win_counts[f"{iwv_m}_le_select_source"] = sum(
            1 for r in risks if r[iwv_m] <= r["select_source"]
        )

    return {
        "n_trials": len(records),
        "true_risk_mean": mean,
        "true_risk_median": median,
        "win_counts": win_counts,
    }
