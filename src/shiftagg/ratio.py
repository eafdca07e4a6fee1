"""Density-ratio estimation for covariate-shift reweighting.

Estimates ``beta(x) = dq_X/dp_X(x)``, the ratio of target to source input
densities, truncated to ``[0, B]``. Two estimators are provided:

* ``ulsif`` -- least-squares importance fitting with a Gaussian kernel
  basis centered on target samples. The coefficients have the closed form
  ``alpha = (H + lam*I)^-1 h`` with
  ``H[l,l'] = mean_i K(xs_i, c_l) K(xs_i, c_l')`` over source samples and
  ``h[l] = mean_j K(xt_j, c_l)`` over target samples. Kernel width and
  ridge strength are chosen on a grid by k-fold cross-validation of the
  squared-loss objective ``J = 0.5*mean_src(beta^2) - mean_tgt(beta)``
  (lower is better).

* ``logistic`` -- a regularized logistic classifier separating source from
  target samples; the ratio follows from the class odds,
  ``beta(x) = (n_s/n_t) * p(target|x) / (1 - p(target|x))``.

Both return a :class:`RatioModel` that evaluates deterministically; raw
scores are clamped into ``[0, B]`` at evaluation time only, so the fitted
coefficients stay exactly what the closed form / optimizer produced.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .errors import (
    AllZeroWeights,
    ConfigInvalid,
    DimensionMismatch,
    EmptyInput,
    MalformedFile,
    NegativeWeight,
    NonConvergence,
    NonFiniteValue,
    SingularSystem,
    ValidationError,
)
from .serialize import read_json, write_json

__all__ = [
    "RatioModel",
    "RatioFitConfig",
    "fit_ulsif",
    "fit_logistic_ratio",
    "fit_ratio",
    "evaluate_ratio",
    "self_normalize",
    "analytic_gaussian_ratio",
    "save_ratio_model",
    "load_ratio_model",
]

DEFAULT_BOUND = 20.0
DEFAULT_RIDGE_GRID = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_WIDTH_SCALES = (0.1, 0.3, 1.0, 3.0, 10.0)


def _finite_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class RatioModel:
    """A fitted (or analytic) density-ratio model.

    Only the fields of the matching ``kind`` are populated:
    ``ulsif`` uses ``centers``/``alpha``/``kernel_width``; ``logistic``
    uses ``classifier_weights`` (length ``d1 + 1``, bias last) and
    ``ns_over_nt``; ``analytic`` uses ``params`` (isotropic-Gaussian pair:
    ``source_mean``, ``target_mean``, ``cov_scale``). A fitted ``ulsif``
    model also carries ``cv``, its cross-validation record: the ``widths``
    and ``ridges`` grids, the ``scores`` grid (``None`` where a cell was
    refused), the chosen ``width_index`` and ``ridge_index``, and
    ``on_grid_edge``, true when either index is first or last in its grid.
    """

    kind: str
    bound: float
    centers: np.ndarray | None = None
    alpha: np.ndarray | None = None
    kernel_width: float | None = None
    classifier_weights: np.ndarray | None = None
    ns_over_nt: float | None = None
    params: dict | None = None
    cv: dict | None = None

    def __post_init__(self):
        if self.kind not in ("ulsif", "logistic", "analytic"):
            raise ConfigInvalid(f"unknown ratio model kind {self.kind!r}")
        if not self.bound > 0:
            raise ConfigInvalid(f"bound must be positive, got {self.bound}")
        if self.kind == "ulsif":
            if self.centers is None or self.alpha is None or self.kernel_width is None:
                raise ConfigInvalid("ulsif model needs centers, alpha, kernel_width")
            if not self.kernel_width > 0:
                raise ConfigInvalid("kernel width must be positive")
            c = np.ascontiguousarray(self.centers, dtype=np.float64)
            a = np.ascontiguousarray(self.alpha, dtype=np.float64)
            if c.ndim != 2 or a.shape != (c.shape[0],):
                raise DimensionMismatch(
                    f"centers {c.shape} and alpha {a.shape} are inconsistent"
                )
            c.setflags(write=False)
            a.setflags(write=False)
            object.__setattr__(self, "centers", c)
            object.__setattr__(self, "alpha", a)
        elif self.kind == "logistic":
            if self.classifier_weights is None or self.ns_over_nt is None:
                raise ConfigInvalid("logistic model needs weights and ns_over_nt")
            w = np.ascontiguousarray(self.classifier_weights, dtype=np.float64)
            if w.ndim != 1 or w.shape[0] < 2:
                raise DimensionMismatch("classifier weights must be a vector [d1+1]")
            w.setflags(write=False)
            object.__setattr__(self, "classifier_weights", w)
        else:
            p = self.params if isinstance(self.params, dict) else {}
            mu_p, mu_q, s = (p.get(k) for k in ("source_mean", "target_mean", "cov_scale"))
            means_ok = all(
                isinstance(v, (list, tuple)) and v and all(map(_finite_number, v))
                for v in (mu_p, mu_q)
            )
            if not (means_ok and len(mu_p) == len(mu_q) and _finite_number(s) and s > 0):
                raise ConfigInvalid(
                    "analytic params need source_mean and target_mean, non-empty "
                    "lists of finite numbers of equal length, and a finite "
                    f"cov_scale > 0; got {self.params!r}"
                )

    @property
    def feature_dim(self) -> int:
        if self.kind == "ulsif":
            return self.centers.shape[1]
        if self.kind == "logistic":
            return self.classifier_weights.shape[0] - 1
        return len(self.params["source_mean"])


@dataclass(frozen=True)
class RatioFitConfig:
    """Grid and bookkeeping for ratio fitting.

    ``kernel_widths=None`` selects the standard data-driven grid
    ``{0.1, 0.3, 1, 3, 10} * median pairwise distance``. ``n_centers=None``
    becomes ``min(100, n_t)``.
    """

    estimator: str = "ulsif"
    kernel_widths: tuple[float, ...] | None = None
    ridge_strengths: tuple[float, ...] = DEFAULT_RIDGE_GRID
    n_centers: int | None = None
    cv_folds: int = 5
    bound: float = DEFAULT_BOUND
    seed: int = 0

    def __post_init__(self):
        if self.estimator not in ("ulsif", "logistic"):
            raise ConfigInvalid(f"unknown estimator {self.estimator!r}")
        if self.kernel_widths is not None:
            widths = tuple(float(w) for w in self.kernel_widths)
            if not widths or any(w <= 0 for w in widths):
                raise ConfigInvalid("kernel widths must be positive")
            object.__setattr__(self, "kernel_widths", widths)
        ridges = tuple(float(r) for r in self.ridge_strengths)
        if not ridges or any(r <= 0 for r in ridges):
            raise ConfigInvalid("ridge strengths must be positive")
        object.__setattr__(self, "ridge_strengths", ridges)
        if self.n_centers is not None and self.n_centers < 1:
            raise ConfigInvalid("n_centers must be >= 1")
        if self.cv_folds < 2:
            raise ConfigInvalid("cv_folds must be >= 2")
        if not self.bound > 0:
            raise ConfigInvalid("bound must be positive")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _check_xy(source_x, target_x) -> tuple[np.ndarray, np.ndarray]:
    xs = np.atleast_2d(np.asarray(source_x, dtype=np.float64))
    xt = np.atleast_2d(np.asarray(target_x, dtype=np.float64))
    if xs.size == 0 or xt.size == 0:
        raise EmptyInput("need at least one sample and one feature column per domain")
    if xs.ndim != 2 or xt.ndim != 2:
        raise DimensionMismatch("feature arrays must be 2-D")
    if xs.shape[1] != xt.shape[1]:
        raise DimensionMismatch(
            f"source has {xs.shape[1]} feature columns, target has {xt.shape[1]}"
        )
    if not (np.isfinite(xs).all() and np.isfinite(xt).all()):
        raise NonFiniteValue("feature arrays contain non-finite values")
    return xs, xt


def _sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (len(x), len(c))."""
    x2 = np.sum(x * x, axis=1)[:, None]
    c2 = np.sum(c * c, axis=1)[None, :]
    d2 = x2 + c2 - 2.0 * x @ c.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _gaussian_kernel(x: np.ndarray, c: np.ndarray, width: float) -> np.ndarray:
    return np.exp(_sq_dists(x, c) / (-2.0 * width * width))


def _median_pairwise_distance(x: np.ndarray, rng: np.random.Generator) -> float:
    n = x.shape[0]
    if n > 1000:
        x = x[rng.choice(n, 1000, replace=False)]
    d2 = _sq_dists(x, x)
    vals = d2[np.triu_indices(len(x), k=1)]
    vals = vals[vals > 0]
    if vals.size == 0:
        return 1.0
    return float(np.sqrt(np.median(vals)))


def _fold_ids(n: int, folds: int, rng: np.random.Generator) -> np.ndarray:
    ids = np.arange(n) % folds
    return ids[rng.permutation(n)]


def _resolve_grid(
    xs: np.ndarray, xt: np.ndarray, cfg: RatioFitConfig, rng: np.random.Generator
) -> tuple[tuple[float, ...], int]:
    n_t = xt.shape[0]
    n_c = cfg.n_centers if cfg.n_centers is not None else min(100, n_t)
    if n_c > n_t:
        raise ConfigInvalid(f"n_centers={n_c} exceeds target sample count {n_t}")
    widths = cfg.kernel_widths
    if widths is None:
        med = _median_pairwise_distance(np.vstack([xs, xt]), rng)
        med = max(med, np.finfo(float).tiny)
        widths = tuple(s * med for s in DEFAULT_WIDTH_SCALES)
    return widths, n_c


def fit_ulsif(source_x, target_x, cfg: RatioFitConfig) -> RatioModel:
    """Fit the kernel-basis least-squares ratio estimator.

    Centers are drawn without replacement from the target sample using the
    config seed. The (width, ridge) pair minimizing the cross-validated
    squared-loss objective is refit on all data; the returned ``alpha`` is
    the exact solution of ``(H + lam*I) alpha = h`` (possibly with negative
    entries, which only evaluation clamps away).

    ``H`` and ``h`` are sums over samples, so each training fold's system is
    the whole sample's sum minus that fold's part; it is built once per
    width and solved for every ridge, and the refit solves the chosen
    width's whole sums. The returned model's ``cv`` block
    holds the score grid and the chosen cell.
    """
    xs, xt = _check_xy(source_x, target_x)
    rng = _rng(cfg.seed)
    widths, n_c = _resolve_grid(xs, xt, cfg, rng)
    centers = xt[np.sort(rng.choice(xt.shape[0], n_c, replace=False))]

    fold_s = _fold_ids(xs.shape[0], cfg.cv_folds, rng)
    fold_t = _fold_ids(xt.shape[0], cfg.cv_folds, rng)
    folds = []
    for f in range(cfg.cv_folds):
        va_s, va_t = fold_s == f, fold_t == f
        # A fold is scored only if it leaves samples of both domains on both sides.
        if 0 < va_s.sum() < len(va_s) and 0 < va_t.sum() < len(va_t):
            folds.append((va_s, va_t))
    if not folds:
        raise ConfigInvalid(
            f"no cross-validation fold can be scored with n_s={xs.shape[0]}, "
            f"n_t={xt.shape[0]} and cv_folds={cfg.cv_folds}; each domain needs "
            "at least two samples"
        )

    ridges = cfg.ridge_strengths
    scores = np.full((len(widths), len(ridges)), np.nan)
    sums = []  # per width: the whole sample's (H_tot, h_tot), kept for the refit
    for i, width in enumerate(widths):
        K_s = _gaussian_kernel(xs, centers, width)
        K_t = _gaussian_kernel(xt, centers, width)
        H_tot, h_tot = K_s.T @ K_s, K_t.sum(axis=0)
        sums.append((H_tot, h_tot))
        systems = []
        for va_s, va_t in folds:
            V_s, V_t = K_s[va_s], K_t[va_t]
            H = (H_tot - V_s.T @ V_s) / (len(K_s) - len(V_s))
            h = (h_tot - V_t.sum(axis=0)) / (len(K_t) - len(V_t))
            systems.append((H, h, V_s, V_t))
        for j, ridge in enumerate(ridges):
            fold_scores = []
            try:
                for H, h, V_s, V_t in systems:
                    alpha = _cho_solve_ridge(H, h, ridge)
                    b_s = np.clip(V_s @ alpha, 0.0, cfg.bound)
                    b_t = np.clip(V_t @ alpha, 0.0, cfg.bound)
                    fold_scores.append(
                        0.5 * float(np.mean(b_s * b_s)) - float(np.mean(b_t))
                    )
            except SingularSystem:
                continue  # a refusal on any fold drops this ridge for this width
            scores[i, j] = float(np.mean(fold_scores))
    if np.isnan(scores).all():
        raise SingularSystem(
            "every (width, ridge) grid cell failed to factorize; enlarge the "
            "ridge grid"
        )
    i, j = np.unravel_index(np.nanargmin(scores), scores.shape)
    H_tot, h_tot = sums[i]
    alpha = _cho_solve_ridge(H_tot / len(xs), h_tot / len(xt), ridges[j])
    cv = {
        "widths": [float(w) for w in widths],
        "ridges": list(ridges),
        "scores": [
            [None if np.isnan(s) else s for s in row] for row in scores.tolist()
        ],
        "width_index": int(i),
        "ridge_index": int(j),
        "on_grid_edge": i in (0, len(widths) - 1) or j in (0, len(ridges) - 1),
    }
    return RatioModel(
        kind="ulsif",
        bound=cfg.bound,
        centers=centers,
        alpha=alpha,
        kernel_width=float(widths[i]),
        cv=cv,
    )


def _cho_solve_ridge(H: np.ndarray, h: np.ndarray, ridge: float) -> np.ndarray:
    A = H + ridge * np.eye(H.shape[0])
    try:
        cf = scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"kernel Gram matrix not factorizable at ridge={ridge!r}"
        ) from exc
    return scipy.linalg.cho_solve(cf, h)


def fit_logistic_ratio(source_x, target_x, cfg: RatioFitConfig) -> RatioModel:
    """Fit the discriminative (source-vs-target classifier) ratio estimator.

    Features are standardized internally; the ridge strength is chosen from
    the config candidates by k-fold held-out log-loss, and the final
    gradient descent runs until the gradient norm drops below 1e-6 (at most
    10^4 iterations, else :class:`NonConvergence`). The returned weights
    are mapped back to the raw feature scale, bias last.
    """
    xs, xt = _check_xy(source_x, target_x)
    rng = _rng(cfg.seed)
    n_s, n_t = xs.shape[0], xt.shape[0]

    pooled = np.vstack([xs, xt])
    mu = pooled.mean(axis=0)
    sd = pooled.std(axis=0)
    sd[sd == 0] = 1.0
    z = (pooled - mu) / sd
    y = np.concatenate([np.zeros(n_s), np.ones(n_t)])

    fold = np.concatenate(
        [_fold_ids(n_s, cfg.cv_folds, rng), _fold_ids(n_t, cfg.cv_folds, rng)]
    )
    best = None  # (nll, ridge)
    for ridge in cfg.ridge_strengths:
        nlls = []
        for f in range(cfg.cv_folds):
            tr, va = fold != f, fold == f
            if not va.any() or len(np.unique(y[tr])) < 2:
                continue
            w = _logistic_gd(z[tr], y[tr], ridge, tol=1e-5, max_iter=2000, strict=False)
            s = z[va] @ w[:-1] + w[-1]
            nlls.append(float(np.mean(np.logaddexp(0.0, s) - y[va] * s)))
        if nlls:
            nll = float(np.mean(nlls))
            if best is None or nll < best[0]:
                best = (nll, ridge)
    ridge = cfg.ridge_strengths[0] if best is None else best[1]

    w = _logistic_gd(z, y, ridge, tol=1e-6, max_iter=10_000, strict=True)
    raw = np.empty(xs.shape[1] + 1)
    raw[:-1] = w[:-1] / sd
    raw[-1] = w[-1] - float(np.sum(w[:-1] * mu / sd))
    return RatioModel(
        kind="logistic",
        bound=cfg.bound,
        classifier_weights=raw,
        ns_over_nt=n_s / n_t,
    )


def _logistic_gd(
    z: np.ndarray,
    y: np.ndarray,
    ridge: float,
    tol: float,
    max_iter: int,
    strict: bool,
) -> np.ndarray:
    """Gradient descent with backtracking on L2-regularized logistic loss.

    The bias (last coefficient) is not penalized. Loss is the mean negative
    log-likelihood plus ``0.5 * ridge * ||w||^2``.
    """
    n, d = z.shape
    X = np.hstack([z, np.ones((n, 1))])
    w = np.zeros(d + 1)
    reg = np.ones(d + 1)
    reg[-1] = 0.0

    def loss_grad(w):
        s = X @ w
        loss = float(np.mean(np.logaddexp(0.0, s) - y * s))
        loss += 0.5 * ridge * float(np.sum(reg * w * w))
        g = X.T @ (scipy.special.expit(s) - y) / n + ridge * reg * w
        return loss, g

    loss, g = loss_grad(w)
    step = 1.0
    gnorm = float(np.linalg.norm(g))
    for _ in range(max_iter):
        if gnorm < tol:
            return w
        g2 = gnorm * gnorm
        while True:
            w_new = w - step * g
            loss_new, g_new = loss_grad(w_new)
            if loss_new <= loss - 1e-4 * step * g2 or step < 1e-16:
                break
            step *= 0.5
        w, loss, g = w_new, loss_new, g_new
        gnorm = float(np.linalg.norm(g))
        step = min(step * 2.0, 1e4)
    if gnorm < tol:
        return w
    if strict:
        raise NonConvergence(
            f"logistic fit: gradient norm {gnorm:.3e} after {max_iter} iterations "
            f"(tolerance {tol:g})"
        )
    return w


def fit_ratio(source_x, target_x, cfg: RatioFitConfig) -> RatioModel:
    """Dispatch to the estimator named in ``cfg.estimator``."""
    if cfg.estimator == "ulsif":
        return fit_ulsif(source_x, target_x, cfg)
    return fit_logistic_ratio(source_x, target_x, cfg)


def evaluate_ratio(model: RatioModel, x) -> np.ndarray:
    """Evaluate the fitted ratio at ``x``; output is clamped to [0, B]."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"input has {x.shape[1] if x.ndim == 2 else '?'} columns, model expects "
            f"{model.feature_dim}"
        )
    if model.kind == "ulsif":
        raw = _gaussian_kernel(x, model.centers, model.kernel_width) @ model.alpha
    elif model.kind == "logistic":
        s = x @ model.classifier_weights[:-1] + model.classifier_weights[-1]
        with np.errstate(over="ignore"):
            raw = model.ns_over_nt * np.exp(s)
    else:
        p = model.params
        mu_p = np.asarray(p["source_mean"], dtype=np.float64)
        mu_q = np.asarray(p["target_mean"], dtype=np.float64)
        s = float(p["cov_scale"])
        expo = (
            np.sum((x - mu_p) ** 2, axis=1) - np.sum((x - mu_q) ** 2, axis=1)
        ) / (2.0 * s)
        with np.errstate(over="ignore"):
            raw = np.exp(expo)
    return np.clip(raw, 0.0, model.bound)


def self_normalize(weights) -> np.ndarray:
    """Rescale weights so their mean is exactly 1 (proportionality kept)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise DimensionMismatch("weights must be a non-empty vector")
    if not np.any(w != 0):
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    mean = float(np.mean(w))
    if mean <= 0:
        raise NegativeWeight(f"weight mean must be positive, got {mean!r}")
    return w / mean


def analytic_gaussian_ratio(
    source_mean, target_mean, cov_scale: float, bound: float = DEFAULT_BOUND
) -> RatioModel:
    """Exact ratio of two isotropic Gaussians N(mu_q, s*I) / N(mu_p, s*I).

    Equal isotropic covariances make the ratio a single exponential:
    ``beta(x) = exp((||x - mu_p||^2 - ||x - mu_q||^2) / (2 s))``.
    """
    mu_p = np.asarray(source_mean, dtype=np.float64).ravel()
    mu_q = np.asarray(target_mean, dtype=np.float64).ravel()
    if mu_p.shape != mu_q.shape:
        raise DimensionMismatch("mean vectors differ in length")
    if not cov_scale > 0:
        raise ConfigInvalid("covariance scale must be positive")
    return RatioModel(
        kind="analytic",
        bound=bound,
        params={
            "source_mean": [float(v) for v in mu_p],
            "target_mean": [float(v) for v in mu_q],
            "cov_scale": float(cov_scale),
        },
    )


# --- model (de)serialization -------------------------------------------------


def ratio_model_to_dict(model: RatioModel) -> dict:
    doc: dict = {"kind": model.kind, "bound": model.bound}
    if model.kind == "ulsif":
        doc["kernel_width"] = model.kernel_width
        doc["centers"] = model.centers
        doc["alpha"] = model.alpha
        if model.cv is not None:
            doc["cv"] = model.cv
    elif model.kind == "logistic":
        doc["classifier_weights"] = model.classifier_weights
        doc["ns_over_nt"] = model.ns_over_nt
    else:
        doc["params"] = model.params
    return doc


def _float_array(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


def _finite(doc: dict, key: str, convert=float):
    """``convert(doc[key])``, refused if it holds a NaN or an infinity."""
    v = convert(doc[key])
    if not np.isfinite(v).all():
        raise NonFiniteValue(f"{key!r} holds a non-finite value")
    return v


def ratio_model_from_dict(doc: dict) -> RatioModel:
    try:
        kind = doc["kind"]
        bound = _finite(doc, "bound")
        if kind == "ulsif":
            cv = doc.get("cv")
            if cv is not None and not isinstance(cv, dict):
                raise TypeError(f"cv block must be an object, got {cv!r}")
            return RatioModel(
                kind=kind,
                bound=bound,
                centers=_finite(doc, "centers", _float_array),
                alpha=_finite(doc, "alpha", _float_array),
                kernel_width=_finite(doc, "kernel_width"),
                cv=cv,
            )
        if kind == "logistic":
            return RatioModel(
                kind=kind,
                bound=bound,
                classifier_weights=_finite(doc, "classifier_weights", _float_array),
                ns_over_nt=_finite(doc, "ns_over_nt"),
            )
        if kind == "analytic":
            return RatioModel(kind=kind, bound=bound, params=doc["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"bad ratio model document: {exc!r}") from exc
    raise MalformedFile(f"bad ratio model kind {doc.get('kind')!r}")


def save_ratio_model(model: RatioModel, path) -> None:
    write_json(path, ratio_model_to_dict(model))


def load_ratio_model(path) -> RatioModel:
    doc = read_json(path)
    try:
        return ratio_model_from_dict(doc)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
