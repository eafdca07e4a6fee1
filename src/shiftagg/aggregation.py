"""Least-squares model aggregation under covariate shift.

Given ``m`` trained models, the linear combination ``f = sum_k c_k f_k``
minimizing target-sample squared error solves the normal equations
``G c = g`` built from averaged prediction inner products:

* ``G[k, u] = (1/n_t) * sum_i <f_k(x'_i), f_u(x'_i)>`` over target inputs;
* ``g[k]    = (1/n_s) * sum_i beta_i * <y_i, f_k(x_i)>`` over labeled
  source samples, reweighted by the density ratio ``beta`` so the source
  expectation stands in for the unavailable target one.

Because near-duplicate models make ``G`` numerically singular, the solve
supports Tikhonov regularization ``(G + lam*I) c = g`` with an automatic
escalation policy, and every successful solve is held to the residual
contract ``||(G + lam*I) c - g||_inf <= 1e-8 * max(1, ||g||_inf)``.

All reductions use fixed-order, non-parallel summation so results are
bitwise reproducible across runs and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import PredictionBundle, as_label_matrix
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    IllConditioned,
    MissingOracleLabels,
    NegativeWeight,
    NonSymmetric,
)
from .ratio import RatioModel, evaluate_ratio

__all__ = [
    "AggregationResult",
    "RiskReport",
    "compute_gram",
    "compute_g_vector",
    "solve_coefficients",
    "solve_aggregation",
    "aggregate_predict",
    "empirical_risk",
    "importance_weighted_risk",
    "model_risks",
    "run_aggregation",
    "oracle_aggregate",
    "make_risk_report",
    "resolve_beta",
]

CONDITION_LIMIT = 1e12
RESIDUAL_RTOL = 1e-8
LAMBDA_BASE_FACTOR = 1e-8
LAMBDA_CAP_FACTOR = 1e-2


@dataclass(frozen=True)
class AggregationResult:
    """Solved aggregation coefficients plus the system that produced them."""

    coefficients: np.ndarray
    gram: np.ndarray
    moment: np.ndarray
    tikhonov: float
    condition_estimate: float
    diagnostics: dict

    def __post_init__(self):
        c = np.ascontiguousarray(self.coefficients, dtype=np.float64)
        G = np.ascontiguousarray(self.gram, dtype=np.float64)
        g = np.ascontiguousarray(self.moment, dtype=np.float64)
        m = c.shape[0]
        if c.ndim != 1 or G.shape != (m, m) or g.shape != (m,):
            raise DimensionMismatch(
                f"inconsistent shapes: c {c.shape}, G {G.shape}, g {g.shape}"
            )
        if float(np.max(np.abs(G - G.T), initial=0.0)) > 1e-12 * max(
            1.0, float(np.max(np.abs(G), initial=0.0))
        ):
            raise NonSymmetric("gram matrix is not symmetric")
        if self.tikhonov < 0:
            raise ConfigInvalid("tikhonov value must be nonnegative")
        resid = _residual_inf(G, self.tikhonov, c, g)
        if resid > RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(g), initial=0.0))):
            raise IllConditioned(
                f"solution violates residual contract: ||r||_inf = {resid:.3e}"
            )
        for arr in (c, G, g):
            arr.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "moment", g)

    @property
    def model_count(self) -> int:
        return self.coefficients.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "gram": self.gram,
            "moment": self.moment,
            "tikhonov": self.tikhonov,
            "condition_estimate": self.condition_estimate,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class RiskReport:
    """Per-model and aggregated risks under one evaluation rule.

    ``risk_kind`` records which rule produced the numbers: true risks on
    the labeled target sample (``target_oracle``), plain source risks
    (``source``), or ratio-weighted source risks (``importance_weighted``).
    """

    per_model_risk: tuple[float, ...]
    aggregated_risk: float
    selected_index: int
    selected_risk: float
    risk_kind: str

    def __post_init__(self):
        if self.risk_kind not in ("target_oracle", "source", "importance_weighted"):
            raise ConfigInvalid(f"unknown risk kind {self.risk_kind!r}")
        risks = tuple(float(r) for r in self.per_model_risk)
        if any(r < 0 for r in risks) or self.aggregated_risk < 0:
            raise ConfigInvalid("risks must be nonnegative")
        if self.selected_index != min(range(len(risks)), key=risks.__getitem__):
            raise ConfigInvalid("selected_index must be the lowest-index argmin")
        object.__setattr__(self, "per_model_risk", risks)

    def to_json_dict(self) -> dict:
        return {
            "risk_kind": self.risk_kind,
            "per_model_risk": list(self.per_model_risk),
            "aggregated_risk": self.aggregated_risk,
            "selected_index": self.selected_index,
            "selected_risk": self.selected_risk,
        }


# --- estimator pieces ---------------------------------------------------


def _as_pred_tensor(preds) -> np.ndarray:
    p = np.asarray(preds, dtype=np.float64)
    if p.ndim != 3:
        raise DimensionMismatch(f"prediction tensor must be (m, n, d2), got {p.shape}")
    return p


def compute_gram(target_preds) -> np.ndarray:
    """Averaged inner products of model predictions on the target sample.

    Entry ``(k, u)`` is ``(1/n_t) * sum_i <f_k(x'_i), f_u(x'_i)>``. The sum
    runs over samples in index order; the upper triangle is computed once
    and mirrored, so the result is exactly symmetric.
    """
    p = _as_pred_tensor(target_preds)
    m, n, _ = p.shape
    flat = p.reshape(m, -1)
    G = np.empty((m, m))
    for k in range(m):
        for u in range(k, m):
            v = float(np.sum(flat[k] * flat[u])) / n
            G[k, u] = v
            G[u, k] = v
    return G


def compute_g_vector(source_preds, source_labels, beta) -> np.ndarray:
    """Ratio-weighted moments ``(1/n_s) * sum_i beta_i * <y_i, f_k(x_i)>``."""
    p = _as_pred_tensor(source_preds)
    y = as_label_matrix(source_labels)
    b = np.asarray(beta, dtype=np.float64)
    m, n, d2 = p.shape
    if y.shape != (n, d2):
        raise DimensionMismatch(f"labels {y.shape} do not match predictions {p.shape}")
    if b.shape != (n,):
        raise DimensionMismatch(f"beta has shape {b.shape}, expected ({n},)")
    if np.any(b < 0):
        raise NegativeWeight("beta contains negative entries")
    g = np.empty(m)
    for k in range(m):
        inner = np.einsum("nd,nd->n", y, p[k], optimize=False)
        g[k] = float(np.sum(b * inner)) / n
    return g


def solve_coefficients(G, g, lam: float = 0.0) -> np.ndarray:
    """Solve ``(G + lam*I) c = g`` via a symmetric PD factorization.

    At ``lam = 0`` the matrix must be numerically nonsingular (pivot-ratio
    condition estimate below 1e12), otherwise :class:`IllConditioned` asks
    the caller for regularization.
    """
    c, _, _ = _solve_spd(G, g, lam)
    return c


def _residual_inf(G: np.ndarray, lam: float, c: np.ndarray, g: np.ndarray) -> float:
    r = np.einsum("ku,u->k", G, c, optimize=False) + lam * c - g
    return float(np.max(np.abs(r), initial=0.0))


def _solve_spd(G, g, lam: float) -> tuple[np.ndarray, float, float]:
    G = np.asarray(G, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"gram matrix must be square, got {G.shape}")
    m = G.shape[0]
    if g.shape != (m,):
        raise DimensionMismatch(f"moment vector has shape {g.shape}, expected ({m},)")
    if not (np.isfinite(G).all() and np.isfinite(g).all()):
        raise ConfigInvalid("gram matrix and moment vector must be finite")
    if float(np.max(np.abs(G - G.T), initial=0.0)) > 1e-12 * max(
        1.0, float(np.max(np.abs(G), initial=0.0))
    ):
        raise NonSymmetric("gram matrix is not symmetric")
    lam = float(lam)
    if lam < 0:
        raise ConfigInvalid("tikhonov value must be nonnegative")

    A = G + lam * np.eye(m)
    try:
        cf = scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditioned(
            f"factorization failed at lam={lam!r}; supply a larger value"
        ) from exc
    pivots = np.abs(np.diag(cf[0]))
    pmin = float(np.min(pivots))
    if pmin == 0.0:
        raise IllConditioned(f"zero pivot at lam={lam!r}")
    cond = (float(np.max(pivots)) / pmin) ** 2
    if lam == 0.0 and cond >= CONDITION_LIMIT:
        raise IllConditioned(
            f"condition estimate {cond:.3e} >= 1e12 at lam=0; supply lam > 0"
        )

    c = scipy.linalg.cho_solve(cf, g)
    tol = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(g), initial=0.0)))
    resid = _residual_inf(G, lam, c, g)
    for _ in range(5):
        # One step of iterative refinement per pass; stop once the residual
        # is far inside the contract or no longer improving.
        if resid <= 1e-3 * tol:
            break
        r = np.einsum("ku,u->k", G, c, optimize=False) + lam * c - g
        c_new = c - scipy.linalg.cho_solve(cf, r)
        resid_new = _residual_inf(G, lam, c_new, g)
        if resid_new >= resid:
            break
        c, resid = c_new, resid_new
    if resid > tol:
        raise IllConditioned(
            f"residual {resid:.3e} exceeds contract at lam={lam!r}"
        )
    return c, cond, resid


def aggregate_predict(preds, coefficients) -> np.ndarray:
    """Combine per-model predictions: row ``i`` is ``sum_k c_k f_k(x_i)``."""
    p = _as_pred_tensor(preds)
    c = np.asarray(coefficients, dtype=np.float64)
    if c.shape != (p.shape[0],):
        raise DimensionMismatch(
            f"coefficients have shape {c.shape}, expected ({p.shape[0]},)"
        )
    return np.einsum("k,knd->nd", c, p, optimize=False)


def _weighted_sq_risk(preds, labels, weights) -> float:
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


def empirical_risk(preds, labels) -> float:
    """Mean squared error, summed over output dimensions."""
    return _weighted_sq_risk(preds, labels, None)


def importance_weighted_risk(preds, labels, beta) -> float:
    """Ratio-weighted source risk ``(1/n) * sum_i beta_i ||f(x_i) - y_i||^2``.

    With ``beta`` identically 1 this reduces bitwise to
    :func:`empirical_risk` (weighting by 1.0 is exact).
    """
    return _weighted_sq_risk(preds, labels, beta)


def model_risks(preds, labels, weights=None) -> np.ndarray:
    """Per-model risks, shape ``(m,)``, each bitwise equal to
    :func:`empirical_risk` (``weights=None``) or :func:`importance_weighted_risk`."""
    return np.array(
        [_weighted_sq_risk(p, labels, weights) for p in _as_pred_tensor(preds)]
    )


def make_risk_report(
    preds_tensor: np.ndarray,
    labels: np.ndarray,
    coefficients: np.ndarray,
    risk_kind: str,
    beta: np.ndarray | None = None,
) -> RiskReport:
    """Risk table for every model plus the aggregated predictor."""
    p = _as_pred_tensor(preds_tensor)
    weights = None if risk_kind != "importance_weighted" else beta
    per_model = model_risks(p, labels, weights).tolist()
    agg = aggregate_predict(p, coefficients)
    agg_risk = _weighted_sq_risk(agg, labels, weights)
    idx = min(range(len(per_model)), key=per_model.__getitem__)
    return RiskReport(
        per_model_risk=tuple(per_model),
        aggregated_risk=agg_risk,
        selected_index=idx,
        selected_risk=per_model[idx],
        risk_kind=risk_kind,
    )


# --- pipeline entry points ------------------------------------------------


def resolve_beta(bundle: PredictionBundle, ratio) -> tuple[np.ndarray, float | None]:
    """Materialize source-sample weights from a ratio model or a vector.

    Returns ``(beta, saturation_fraction)``; the fraction is ``None`` when
    the truncation bound is unknown (precomputed weight vectors).
    """
    if isinstance(ratio, RatioModel):
        if bundle.source.features is None:
            raise ConfigInvalid(
                "bundle has no source features, so the ratio model cannot be "
                "evaluated; pass precomputed weights instead"
            )
        beta = evaluate_ratio(ratio, bundle.source.features)
        saturation = float(np.mean(beta >= ratio.bound))
        return beta, saturation
    beta = np.asarray(ratio, dtype=np.float64)
    if beta.shape != (bundle.source.n_samples,):
        raise DimensionMismatch(
            f"beta has shape {beta.shape}, expected ({bundle.source.n_samples},)"
        )
    if not np.isfinite(beta).all():
        raise ConfigInvalid("beta contains non-finite entries")
    if np.any(beta < 0):
        raise NegativeWeight("beta contains negative entries")
    return beta, None


def solve_aggregation(G, g, lam: float | None = None) -> AggregationResult:
    """Solve ``(G + lam*I) c = g`` under the regularization policy.

    ``lam=None`` applies the default ``1e-8 * trace(G)/m`` and escalates it
    tenfold (up to ``1e-2 * trace(G)/m``) whenever the solve is refused; an
    explicit ``lam`` -- including 0 -- is used exactly as given, and its
    refusal propagates unchanged. The diagnostics record the policy, the
    escalation count, the condition estimate and the final residual.
    """
    if lam is not None:
        attempts = [float(lam)]
        policy = "explicit"
    else:
        scale = float(np.trace(G)) / len(G)
        attempts = [LAMBDA_BASE_FACTOR * scale]
        while attempts[-1] * 10.0 <= LAMBDA_CAP_FACTOR * scale:
            attempts.append(attempts[-1] * 10.0)
        policy = "auto"

    last_exc: IllConditioned | None = None
    for escalations, lam_try in enumerate(attempts):
        try:
            c, cond, resid = _solve_spd(G, g, lam_try)
        except IllConditioned as exc:
            if policy == "explicit":
                raise
            last_exc = exc
            continue
        return AggregationResult(
            coefficients=c,
            gram=G,
            moment=g,
            tikhonov=lam_try,
            condition_estimate=cond,
            diagnostics={
                "lambda_policy": policy,
                "lambda_escalations": escalations,
                "condition_estimate": cond,
                "residual_inf": resid,
            },
        )
    raise IllConditioned(
        f"solve failed for every candidate regularizer {attempts!r}: {last_exc}"
    )


def run_aggregation(
    bundle: PredictionBundle,
    ratio,
    lam: float | None = None,
) -> AggregationResult:
    """Full pipeline: weights, Gram matrix, moment vector, solve.

    ``ratio`` is a :class:`RatioModel` (evaluated on the source features)
    or a precomputed weight vector; ``lam`` follows the policy of
    :func:`solve_aggregation`.
    """
    beta, saturation = resolve_beta(bundle, ratio)
    G = compute_gram(bundle.target_preds)
    g = compute_g_vector(bundle.source_preds, bundle.source.labels, beta)
    result = solve_aggregation(G, g, lam)
    result.diagnostics.update(
        beta_mean=float(np.mean(beta)),
        beta_max=float(np.max(beta)),
        beta_saturation_fraction=saturation,
    )
    return result


def oracle_aggregate(bundle: PredictionBundle, lam: float = 0.0) -> AggregationResult:
    """Best-possible empirical aggregation, using oracle target labels.

    Both the Gram matrix and the moment vector are formed on the target
    sample (``g_k = (1/n_t) * sum_i <y'_i, f_k(x'_i)>``), so the solution
    is the exact least-squares minimizer over the span of the models'
    target predictions. Benchmark-only: requires oracle labels.
    """
    if bundle.target.oracle_labels is None:
        raise MissingOracleLabels("bundle carries no target oracle labels")
    G = compute_gram(bundle.target_preds)
    # Weighting by exactly 1.0 makes this the plain averaged inner product.
    ones = np.ones(bundle.target.n_samples)
    g = compute_g_vector(bundle.target_preds, bundle.target.oracle_labels, ones)
    result = solve_aggregation(G, g, lam)
    result.diagnostics.update(
        lambda_policy="oracle",
        beta_mean=1.0,
        beta_max=1.0,
        beta_saturation_fraction=None,
    )
    return result
