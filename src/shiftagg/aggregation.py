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

``G`` and ``g`` are one BLAS product each (``syrk`` and ``gemv``). Their
bits depend on the BLAS build and its thread count, not on the run or on
how many Python threads call in, so outputs are byte-identical across runs
and ``--threads`` values for a fixed BLAS build and BLAS thread count.
Quantities that depend on the bundle alone live in one record per bundle
object, :func:`target_moments`, which builds each on its first read and
keeps it: ``G``, the oracle moments ``g'`` and ``||y'||^2/n_t``, and the
per-model true target risks and plain source risks. Every reader goes
through it, so only the ``beta``-dependent work is done again on each call.
Per-model risks use no BLAS: :func:`model_risks` is the one risk kernel,
and the single-model evaluators are its one-model case, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import PredictionBundle, _freeze, as_label_matrix
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyInput,
    IllConditioned,
    MissingOracleLabels,
    NegativeWeight,
    NonFiniteValue,
    NonSymmetric,
    NumericalError,
)
from .ratio import RatioModel, _cho_factor, _cho_solve, evaluate_ratio
from .serialize import config_to_dict

__all__ = [
    "AggregationResult",
    "Moments",
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
    "target_moments",
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
        _check_symmetric(G)
        if self.tikhonov < 0:
            raise ConfigInvalid("tikhonov value must be nonnegative")
        resid = _residual_inf(G, self.tikhonov, c, g)
        if not resid <= RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(g), initial=0.0))):
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

    to_json_dict = config_to_dict


@dataclass(frozen=True)
class RiskReport:
    """Per-model and aggregated risks under one evaluation rule.

    ``risk_kind`` records which rule produced the numbers: true risks on
    the labeled target sample (``target_oracle``), plain source risks
    (``source``), or ratio-weighted source risks (``importance_weighted``).
    ``selected_index`` is the lowest-index argmin of the per-model risks and
    ``selected_risk`` its risk.
    """

    risk_kind: str
    per_model_risk: tuple[float, ...]
    aggregated_risk: float
    selected_index: int = field(init=False)
    selected_risk: float = field(init=False)

    def __post_init__(self):
        if self.risk_kind not in ("target_oracle", "source", "importance_weighted"):
            raise ConfigInvalid(f"unknown risk kind {self.risk_kind!r}")
        risks = tuple(float(r) for r in self.per_model_risk)
        if any(r < 0 for r in risks) or self.aggregated_risk < 0:
            raise ConfigInvalid("risks must be nonnegative")
        idx = min(range(len(risks)), key=risks.__getitem__)
        object.__setattr__(self, "per_model_risk", risks)
        object.__setattr__(self, "selected_index", idx)
        object.__setattr__(self, "selected_risk", risks[idx])

    to_json_dict = config_to_dict


# --- estimator pieces ---------------------------------------------------


def _as_pred_tensor(preds) -> np.ndarray:
    p = np.asarray(preds, dtype=np.float64)
    if p.ndim != 3:
        raise DimensionMismatch(f"prediction tensor must be (m, n, d2), got {p.shape}")
    return p


def compute_gram(target_preds) -> np.ndarray:
    """Averaged inner products of model predictions on the target sample.

    Entry ``(k, u)`` is ``(1/n_t) * sum_i <f_k(x'_i), f_u(x'_i)>``, built
    with one ``flat @ flat.T`` product. NumPy hands that product to BLAS
    ``syrk`` and mirrors the triangle it computes, so the result is exactly
    symmetric; its last bits depend on the BLAS thread count.
    """
    p = _as_pred_tensor(target_preds)
    m, n, _ = p.shape
    flat = p.reshape(m, -1)
    return flat @ flat.T / n


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
    return p.reshape(m, -1) @ (b[:, None] * y).ravel() / n


def solve_coefficients(G, g, lam: float = 0.0) -> np.ndarray:
    """Solve ``(G + lam*I) c = g`` via a symmetric PD factorization.

    At ``lam = 0`` the matrix must be numerically nonsingular (pivot-ratio
    condition estimate below 1e12), otherwise :class:`IllConditioned` asks
    the caller for regularization.
    """
    c, _, _ = _solve_spd(*_checked_system(G, g), lam)
    return c


def _checked_system(G, g) -> tuple[np.ndarray, np.ndarray]:
    """``(G, g)`` as float64 arrays, checked once before any solve: ``G``
    square with at least one row, ``g`` of matching length, both finite,
    ``G`` symmetric."""
    G = np.asarray(G, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"gram matrix must be square, got {G.shape}")
    m = G.shape[0]
    if m == 0:
        raise EmptyInput("an aggregation system needs at least one model")
    if g.shape != (m,):
        raise DimensionMismatch(f"moment vector has shape {g.shape}, expected ({m},)")
    if not (np.isfinite(G).all() and np.isfinite(g).all()):
        raise ConfigInvalid("gram matrix and moment vector must be finite")
    _check_symmetric(G)
    return G, g


def _check_symmetric(G: np.ndarray) -> None:
    """Raise :class:`NonSymmetric` unless the square ``G`` equals its
    transpose to within 1e-12 of its largest entry (or of 1).

    An exactly symmetric ``G``, as :func:`compute_gram` builds, passes on
    one comparison with no arithmetic temporaries."""
    if np.array_equal(G, G.T):
        return
    if float(np.max(np.abs(G - G.T), initial=0.0)) > 1e-12 * max(
        1.0, float(np.max(np.abs(G), initial=0.0))
    ):
        raise NonSymmetric("gram matrix is not symmetric")


def _residual_inf(G: np.ndarray, lam: float, c: np.ndarray, g: np.ndarray) -> float:
    r = np.einsum("ku,u->k", G, c, optimize=False) + lam * c - g
    return float(np.max(np.abs(r), initial=0.0))


def _solve_spd(G, g, lam: float) -> tuple[np.ndarray, float, float]:
    """Solve the :func:`_checked_system` ``(G + lam*I) c = g``."""
    lam = float(lam)
    if not 0 <= lam < np.inf:
        raise ConfigInvalid(f"tikhonov value must be finite and nonnegative, got {lam}")

    try:
        L = _cho_factor(G, lam)
    except (NonFiniteValue, NumericalError) as exc:
        raise IllConditioned(
            f"factorization failed at lam={lam!r}; supply a larger value"
        ) from exc
    pivots = np.diag(L)  # all positive, as the factorization succeeded
    cond = (float(np.max(pivots)) / float(np.min(pivots))) ** 2
    if lam == 0.0 and cond >= CONDITION_LIMIT:
        raise IllConditioned(
            f"condition estimate {cond:.3e} >= 1e12 at lam=0; supply lam > 0"
        )

    c = _cho_solve(L, g)
    tol = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(g), initial=0.0)))
    resid = _residual_inf(G, lam, c, g)
    for _ in range(5):
        # One step of iterative refinement per pass; stop once the residual
        # is far inside the contract or no longer improving.
        if resid <= 1e-3 * tol:
            break
        r = np.einsum("ku,u->k", G, c, optimize=False) + lam * c - g
        c_new = c - _cho_solve(L, r)
        resid_new = _residual_inf(G, lam, c_new, g)
        if not resid_new < resid:  # also stops on a NaN residual
            break
        c, resid = c_new, resid_new
    if not resid <= tol:
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


# Prediction values per block of models in the risk kernel: 640 KB of
# float64, 8 models at n = 1e4 and d2 = 1, so a block's residuals stay in
# cache between the passes over them.
_RISK_BLOCK_VALUES = 80_000


def _sq_risks(preds, labels, weight_sets) -> np.ndarray:
    """Squared risks of the models stacked along ``preds``' first axis,
    one row per entry of ``weight_sets``.

    Entry ``[j, k]`` is ``(1/n) * sum_i w_i ||p[k, i] - y_i||^2`` with ``w``
    the ``j``-th weight vector, or 1 where that entry is ``None``. Each block
    of residuals is squared once and summed unweighted first; each weight
    then multiplies the squares into a scratch buffer, the last one in
    place. So every row sees the same operations, summed with ``np.sum`` in
    the same order for every ``k``, as a call with that one weight set.
    """
    p = _as_pred_tensor(preds)
    y = as_label_matrix(labels)
    if y.ndim != 2 or p.shape[1:] != y.shape:
        raise DimensionMismatch(f"predictions {p.shape[1:]} vs labels {y.shape}")
    m, n, d2 = p.shape
    ws = [w if w is None else _checked_weights(w, n) for w in weight_sets]
    if n == 0:
        raise EmptyInput("a risk needs at least one sample")

    step = max(1, _RISK_BLOCK_VALUES // max(1, n * d2))
    order = sorted(range(len(ws)), key=lambda j: ws[j] is not None)
    rows = min(step, m)
    # One allocation holds the residuals and, when two or more weight sets
    # need it, the scratch block: two buffers freed together can exceed
    # glibc's heap trim threshold and be faulted in again on every call.
    work = np.empty(rows * n * (d2 + (sum(w is not None for w in ws) > 1)))
    buf = work[: rows * n * d2].reshape(rows, n, d2)
    scratch = work[rows * n * d2 :].reshape(-1, n)
    out = np.empty((len(ws), m))
    for s in range(0, m, step):
        e = min(s + step, m)
        diff = np.subtract(p[s:e], y, out=buf[: e - s])
        if d2 == 1:
            row = np.multiply(diff, diff, out=diff)[:, :, 0]
        else:
            row = np.einsum("knd,knd->kn", diff, diff, optimize=False)
        for j in order:
            term = row
            if ws[j] is not None:
                dest = row if j == order[-1] else scratch[: e - s]
                term = np.multiply(row, ws[j], out=dest)
            out[j, s:e] = np.sum(term, axis=1) / n
    return out


def _checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as ``n`` finite, nonnegative float64 values."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights have shape {w.shape}, expected ({n},)")
    if not np.isfinite(w).all():
        raise ConfigInvalid("weights contain non-finite entries")
    if np.any(w < 0):
        raise NegativeWeight("weights contain negative entries")
    return w


def _weighted_sq_risk(preds, labels, weights) -> float:
    """The one-model case of :func:`_sq_risks`, for ``(n, d2)`` predictions."""
    return float(_sq_risks(as_label_matrix(preds)[None], labels, [weights])[0, 0])


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
    """Per-model risks, shape ``(m,)``: :func:`empirical_risk`
    (``weights=None``) or :func:`importance_weighted_risk` of every model.

    Shapes and weights are checked once; weights must be finite and
    nonnegative. The models are then scored in blocks of about 640 KB of
    predictions: one residual buffer per call (so concurrent callers share
    nothing), squared in place, weighted in place and reduced row by row.
    No ``m x n`` temporary is built. Each model sees the same elementwise
    operations and the same ``np.sum`` reduction as the single-model
    evaluators, so every entry is bitwise equal to theirs whatever the
    block size, and copied models tie exactly.
    """
    return _sq_risks(preds, labels, [weights])[0]


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
    agg = aggregate_predict(p, coefficients)
    return RiskReport(
        risk_kind=risk_kind,
        per_model_risk=model_risks(p, labels, weights),
        aggregated_risk=_weighted_sq_risk(agg, labels, weights),
    )


@dataclass(frozen=True, eq=False)
class Moments:
    """The quantities that depend on one bundle alone, each built from the
    bundle's arrays on its first read and kept, read-only, on this record:

    * ``gram``: the target Gram matrix ``G`` (:func:`compute_gram`);
    * ``oracle_moment``: ``g'_k = (1/n_t) * sum_i <y'_i, f_k(x'_i)>``;
    * ``label_sq``: ``||y'||^2 / n_t``;
    * ``true_risks``: each model's :func:`model_risks` on the oracle labels;
    * ``source_risks``: each model's plain :func:`model_risks` on the source.

    The three oracle quantities are ``None`` when the bundle has no oracle
    labels. Each is the expression a direct call evaluates, so its bits do
    not depend on which caller read it first; two threads that both build
    one get identical bits. The record holds the bundle's arrays, not the
    bundle, so it keeps no dropped bundle alive.
    """

    target_preds: np.ndarray
    source_preds: np.ndarray
    source_labels: np.ndarray
    oracle_labels: np.ndarray | None

    @cached_property
    def gram(self) -> np.ndarray:
        return _freeze(compute_gram(self.target_preds))

    @cached_property
    def oracle_moment(self) -> np.ndarray | None:
        y = self.oracle_labels
        if y is None:
            return None
        # Weighting by exactly 1.0 makes this the plain averaged inner product.
        return _freeze(compute_g_vector(self.target_preds, y, np.ones(len(y))))

    @cached_property
    def label_sq(self) -> float | None:
        y = self.oracle_labels
        return None if y is None else float(np.sum(y * y)) / len(y)

    @cached_property
    def true_risks(self) -> np.ndarray | None:
        y = self.oracle_labels
        return None if y is None else _freeze(model_risks(self.target_preds, y))

    @cached_property
    def source_risks(self) -> np.ndarray:
        return _freeze(model_risks(self.source_preds, self.source_labels))


def target_moments(bundle: PredictionBundle) -> Moments:
    """The bundle's :class:`Moments`, made on first request and kept on
    that bundle object; a ``dataclasses.replace`` copy makes its own."""
    kept = vars(bundle)
    if "_moments" not in kept:
        arrays = (bundle.target_preds, bundle.source_preds, bundle.source.labels)
        kept.setdefault("_moments", Moments(*arrays, bundle.target.oracle_labels))
    return kept["_moments"]


# --- pipeline entry points ------------------------------------------------


def resolve_beta(bundle: PredictionBundle, ratio) -> tuple[np.ndarray, float | None]:
    """Materialize source-sample weights from a ratio model or a vector.

    Returns ``(beta, saturation_fraction)``; the fraction is ``None`` when
    the truncation bound is unknown (precomputed weight vectors). Either
    way ``beta`` must be finite and nonnegative.
    """
    if isinstance(ratio, RatioModel):
        if bundle.source.features is None:
            raise ConfigInvalid(
                "bundle has no source features, so the ratio model cannot be "
                "evaluated; pass precomputed weights instead"
            )
        beta = evaluate_ratio(ratio, bundle.source.features)
        saturation = float(np.mean(beta >= ratio.bound))
    else:
        beta = np.asarray(ratio, dtype=np.float64)
        saturation = None
        if beta.shape != (bundle.source.n_samples,):
            raise DimensionMismatch(
                f"beta has shape {beta.shape}, expected ({bundle.source.n_samples},)"
            )
    if not np.isfinite(beta).all():
        raise ConfigInvalid("beta contains non-finite entries")
    if np.any(beta < 0):
        raise NegativeWeight("beta contains negative entries")
    return beta, saturation


def solve_aggregation(G, g, lam: float | None = None) -> AggregationResult:
    """Solve ``(G + lam*I) c = g`` under the regularization policy.

    ``lam=None`` applies the default ``1e-8 * trace(G)/m`` and escalates it
    tenfold (up to ``1e-2 * trace(G)/m``) whenever the solve is refused. A
    zero trace (every model predicts 0) gives it no scale and is refused at
    once with :class:`IllConditioned`; a trace that overflows with
    :class:`ConfigInvalid`. An explicit ``lam`` -- including 0 -- is used
    exactly as given, and its refusal propagates unchanged. The system is
    checked once (:func:`_checked_system`) before any of this. The
    diagnostics record the policy, the escalation count, the condition
    estimate and the final residual.
    """
    G, g = _checked_system(G, g)
    if lam is not None:
        attempts = [float(lam)]
        policy = "explicit"
    else:
        scale = float(np.trace(G)) / len(G)
        if not np.isfinite(scale):
            raise ConfigInvalid(
                f"trace(G)/m overflows to {scale!r}, so the automatic "
                "regularizer has no finite scale; supply an explicit lam"
            )
        if LAMBDA_BASE_FACTOR * scale == 0.0:
            raise IllConditioned(
                f"gram matrix has zero trace (trace(G)/m = {scale!r}), so the "
                "automatic regularizer has no scale: every model predicts 0 on "
                "the target sample; supply an explicit lam"
            )
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

    The Gram matrix is the bundle's kept ``target_moments(bundle).gram``;
    nothing else of the record is read.

    ``ratio`` is a :class:`RatioModel` (evaluated on the source features)
    or a precomputed weight vector; ``lam`` follows the policy of
    :func:`solve_aggregation`.
    """
    beta, saturation = resolve_beta(bundle, ratio)
    G = target_moments(bundle).gram
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
    target predictions. Both are kept in :func:`target_moments`. Benchmark-only:
    requires oracle labels.
    """
    if bundle.target.oracle_labels is None:
        raise MissingOracleLabels("bundle carries no target oracle labels")
    moments = target_moments(bundle)
    result = solve_aggregation(moments.gram, moments.oracle_moment, lam)
    result.diagnostics.update(
        lambda_policy="oracle",
        beta_mean=1.0,
        beta_max=1.0,
        beta_saturation_fraction=None,
    )
    return result
