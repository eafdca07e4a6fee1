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
contract ``||(G + lam*I) c - g||_inf <= 1e-8 * max(1, ||g||_inf)``. Each
check runs once per solve: the system's shape, finiteness and symmetry in
:func:`_checked_gram` and :func:`_checked_moment`, the condition estimate in
:func:`_factor` and the residual in :func:`_solve_spd`; no result repeats them.

``G`` and ``g`` are one BLAS product each (``syrk`` and ``gemv``). Their
bits depend on the BLAS build and its thread count, not on the run or on
how many Python threads call in, so outputs are byte-identical across runs
for a fixed BLAS build and BLAS thread count.
Quantities that depend on the bundle alone live in one record per bundle
object, :func:`target_moments`, which builds each on its first read and
keeps it: ``G``, the oracle moments ``g'`` and ``||y'||^2/n_t``, the
per-model true target risks and plain source risks, the ``lam=0`` oracle
solve (or its refusal), and the Cholesky factor of ``G + lam*I`` (or its
refusal) at each rung of the automatic ladder tried, one ``m x m`` array
each, about 0.7 MB at ``m = 300``. The record's solves check ``G`` once,
not on every solve; ``g`` is checked, and the solve, refinement and
residual run, on every call. Every reader goes through the record, so only
the ``beta``-dependent work is done again on each call: a warm
``run_aggregation`` factors nothing. A caller's own ``G`` and an explicit
``lam`` are factored afresh on every solve.
The weights ``beta`` of one weight source live in one :class:`Weights`
record, which :func:`resolve_beta` makes: it is the one place where
``beta`` is checked finite and nonnegative and where its diagnostics (mean,
maximum, saturation, Kish's effective sample size) are derived. Every
function that takes weights also takes the record and then checks only its
length, so a caller that resolves a weight source once scans it once.
Per-model risks use no BLAS: :func:`model_risks` is the one risk kernel,
and the single-model evaluators are its one-model case, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .data import PredictionBundle, SourceDataset, _freeze, as_label_matrix
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
    "Weights",
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
        for name, arr in (("coefficients", c), ("gram", G), ("moment", g)):
            if arr.flags.writeable:
                arr = arr.view()  # freeze a view, not the caller's array
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


@dataclass(frozen=True, eq=False)
class Weights:
    """One weight source's source-sample weights, checked once.

    ``beta`` is a read-only float64 copy of the given vector, checked finite
    and nonnegative (:func:`_checked_weights`) when the record is made, so
    later writes to the caller's array do not reach it. ``saturation`` is the
    fraction of weights at the ratio model's bound, or ``None`` when the
    bound is unknown (a precomputed vector). The record unpacks as
    ``(beta, saturation)``.
    """

    beta: np.ndarray
    saturation: float | None = None

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64)
        if beta.size == 0:
            raise EmptyInput("a weight vector needs at least one sample")
        object.__setattr__(self, "beta", _freeze(_checked_weights(beta, beta.size)))

    def __iter__(self):
        return iter((self.beta, self.saturation))

    @cached_property
    def diagnostics(self) -> dict:
        """The ``beta_*`` keys of :attr:`AggregationResult.diagnostics`.
        Kish's effective sample size ``(sum beta)^2 / sum beta^2`` runs from
        1 (one sample carries all the weight) to ``n`` (equal weights), and
        is 0.0 when every weight is 0. The weights are divided by their
        largest first, which leaves the ratio as it is and keeps both sums
        finite for any finite weights."""
        beta = self.beta
        beta_max = float(np.max(beta))
        ess = 0.0
        if beta_max != 0.0:
            scaled = beta / beta_max
            ess = float(np.sum(scaled)) ** 2 / float(np.dot(scaled, scaled))
        return {
            "beta_mean": float(np.mean(beta)),
            "beta_max": beta_max,
            "beta_saturation_fraction": self.saturation,
            "beta_effective_sample_size": ess,
            "beta_effective_fraction": ess / len(beta),
        }


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
    """Ratio-weighted moments ``(1/n_s) * sum_i beta_i * <y_i, f_k(x_i)>``;
    ``beta`` is a weight vector or a :class:`Weights` record."""
    p = _as_pred_tensor(source_preds)
    y = as_label_matrix(source_labels)
    m, n, d2 = p.shape
    if y.shape != (n, d2):
        raise DimensionMismatch(f"labels {y.shape} do not match predictions {p.shape}")
    b = _checked_weights(beta, n)
    return p.reshape(m, -1) @ (b[:, None] * y).ravel() / n


def solve_coefficients(G, g, lam: float = 0.0) -> np.ndarray:
    """The read-only coefficients of :func:`solve_aggregation` at the
    explicit ``lam``: at ``lam = 0`` the matrix must be numerically
    nonsingular (pivot-ratio condition estimate below 1e12), otherwise
    :class:`IllConditioned` asks the caller for regularization."""
    return solve_aggregation(G, g, float(lam)).coefficients


def _checked_gram(G) -> np.ndarray:
    """``G`` as a float64 array: square with at least one row, finite and
    symmetric. The bundle's record makes this check once, when it builds
    :attr:`Moments.gram`."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"gram matrix must be square, got {G.shape}")
    if G.shape[0] == 0:
        raise EmptyInput("an aggregation system needs at least one model")
    if not np.isfinite(G).all():
        raise ConfigInvalid("gram matrix and moment vector must be finite")
    _check_symmetric(G)
    return G


def _checked_moment(g, m: int) -> np.ndarray:
    """``g`` as a float64 array of ``m`` finite values, checked on every
    solve."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (m,):
        raise DimensionMismatch(f"moment vector has shape {g.shape}, expected ({m},)")
    if not np.isfinite(g).all():
        raise ConfigInvalid("gram matrix and moment vector must be finite")
    return g


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


def _residual(G, lam: float, c, g) -> tuple[np.ndarray, float]:
    r = np.einsum("ku,u->k", G, c, optimize=False) + lam * c - g
    return r, float(np.max(np.abs(r), initial=0.0))


def _check_tikhonov(lam: float) -> None:
    """Refuse a negative, NaN or infinite Tikhonov value."""
    if not 0 <= lam < np.inf:
        raise ConfigInvalid(f"tikhonov value must be finite and nonnegative, got {lam}")


def _factor(G: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """The lower Cholesky factor ``L`` of the checked ``G + lam*I`` and its
    pivot-ratio condition estimate ``(max(diag L) / min(diag L))^2``. A
    failed factorization, or one at ``lam = 0`` whose estimate reaches 1e12,
    is refused with :class:`IllConditioned`."""
    _check_tikhonov(lam)
    failed = f"factorization failed at lam={lam!r}; supply a larger value"
    # G is checked finite: only its diagonal, shifted by lam, can overflow.
    if not np.isfinite(np.diag(G) + lam).all():
        raise IllConditioned(failed)
    try:
        L = _cho_factor(G, lam, check_finite=False)
    except NumericalError as exc:
        raise IllConditioned(failed) from exc
    pivots = np.diag(L)  # all positive, as the factorization succeeded
    cond = (float(np.max(pivots)) / float(np.min(pivots))) ** 2
    if lam == 0.0 and cond >= CONDITION_LIMIT:
        raise IllConditioned(
            f"condition estimate {cond:.3e} >= 1e12 at lam=0; supply lam > 0"
        )
    return L, cond


def _solve_spd(G, g, lam: float, factor) -> tuple[np.ndarray, float, float]:
    """Solve the checked system ``(G + lam*I) c = g`` with the
    ``(L, cond)`` that ``factor(lam)`` gives: a fresh :func:`_factor` of
    ``G``, or the one a :class:`Moments` record keeps. The solve, its
    refinement and the residual contract run on every call."""
    L, cond = factor(lam)

    c = _cho_solve(L, g)
    tol = RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(g), initial=0.0)))
    r, resid = _residual(G, lam, c, g)
    for _ in range(5):
        # One step of iterative refinement per pass; stop once the residual
        # is far inside the contract or no longer improving.
        if resid <= 1e-3 * tol:
            break
        c_new = c - _cho_solve(L, r)
        r_new, resid_new = _residual(G, lam, c_new, g)
        if not resid_new < resid:  # also stops on a NaN residual
            break
        c, r, resid = c_new, r_new, resid_new
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


def model_risks(preds, labels, weights=None) -> np.ndarray:
    """Per-model risks, shape ``(m,)``: entry ``k`` is
    ``(1/n) * sum_i w_i ||preds[k, i] - y_i||^2``, with ``w`` the given
    weights or 1 where ``weights`` is None.

    This is the one risk kernel: :func:`empirical_risk` and
    :func:`importance_weighted_risk` are its one-model case. Shapes and
    weights are checked once; weights, a vector or a :class:`Weights`
    record, must be finite and nonnegative. The
    models are then scored in blocks of about 640 KB of predictions: one
    residual buffer per call (so concurrent callers share nothing), squared
    in place, weighted in place and reduced row by row. No ``m x n``
    temporary is built. Each model sees the same elementwise operations and
    the same ``np.sum`` reduction whatever the block size, so copied models
    tie exactly. A risk that overflows float64 (or is NaN) is refused with
    :class:`NonFiniteValue`, naming the first such model's index.
    """
    p = _as_pred_tensor(preds)
    y = as_label_matrix(labels)
    if y.ndim != 2 or p.shape[1:] != y.shape:
        raise DimensionMismatch(f"predictions {p.shape[1:]} vs labels {y.shape}")
    m, n, d2 = p.shape
    w = None if weights is None else _checked_weights(weights, n)
    if n == 0:
        raise EmptyInput("a risk needs at least one sample")

    step = max(1, _RISK_BLOCK_VALUES // max(1, n * d2))
    buf = np.empty((min(step, m), n, d2))
    out = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, m, step):
            e = min(s + step, m)
            diff = np.subtract(p[s:e], y, out=buf[: e - s])
            if d2 == 1:
                row = np.multiply(diff, diff, out=diff)[:, :, 0]
            else:
                row = np.einsum("knd,knd->kn", diff, diff, optimize=False)
            if w is not None:
                np.multiply(row, w, out=row)
            out[s:e] = np.sum(row, axis=1) / n
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        k = int(bad[0])
        of = f" of model {k}" if m > 1 else ""
        raise NonFiniteValue(
            f"the risk{of} is {float(out[k])}, not a finite float64: the "
            "predictions, labels or weights are too large"
        )
    return out


def _checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as ``n`` finite, nonnegative float64 values. This is the
    one scan of a weight vector; a :class:`Weights` record was scanned when
    it was made, so only its length is checked here."""
    record = isinstance(weights, Weights)
    w = weights.beta if record else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights have shape {w.shape}, expected ({n},)")
    if record:
        return w
    if not np.isfinite(w).all():
        raise ConfigInvalid("weights contain non-finite entries")
    if np.any(w < 0):
        raise NegativeWeight("weights contain negative entries")
    return w


def _weighted_sq_risk(preds, labels, weights) -> float:
    """The one-model case of :func:`model_risks`, for ``(n, d2)`` predictions."""
    return float(model_risks(as_label_matrix(preds)[None], labels, weights)[0])


def empirical_risk(preds, labels) -> float:
    """Mean squared error, summed over output dimensions."""
    return _weighted_sq_risk(preds, labels, None)


def importance_weighted_risk(preds, labels, beta) -> float:
    """Ratio-weighted source risk ``(1/n) * sum_i beta_i ||f(x_i) - y_i||^2``.

    With ``beta`` identically 1 this reduces bitwise to
    :func:`empirical_risk` (weighting by 1.0 is exact).
    """
    return _weighted_sq_risk(preds, labels, beta)


def make_risk_report(
    bundle: PredictionBundle,
    coefficients: np.ndarray,
    risk_kind: str,
    beta=None,
) -> RiskReport:
    """Risk table for every model of ``bundle`` plus the predictor that
    combines them with ``coefficients``, under ``risk_kind``.

    ``target_oracle`` scores the target predictions against the oracle
    labels, ``source`` and ``importance_weighted`` the source predictions
    against the source labels, the latter weighted by ``beta``, resolved
    once by :func:`resolve_beta`. The per-model true risks and plain source
    risks are the bundle's kept :func:`target_moments`; only the weighted
    kind scores the models again (:func:`model_risks`).
    """
    moments = target_moments(bundle)
    preds, labels, weights = bundle.source_preds, bundle.source.labels, None
    if risk_kind == "target_oracle":
        if bundle.target.oracle_labels is None:
            raise MissingOracleLabels("bundle carries no target oracle labels")
        preds, labels = bundle.target_preds, bundle.target.oracle_labels
        risks = moments.true_risks
    elif risk_kind == "importance_weighted":
        if beta is None:
            raise ConfigInvalid("an importance_weighted report needs beta")
        weights = resolve_beta(bundle, beta)
        risks = model_risks(preds, labels, weights)
    else:
        risks = moments.source_risks
    return RiskReport(
        risk_kind=risk_kind,
        per_model_risk=risks,
        aggregated_risk=_weighted_sq_risk(
            aggregate_predict(preds, coefficients), labels, weights
        ),
    )


@dataclass(frozen=True, eq=False)
class Moments:
    """The quantities that depend on one bundle alone, each built from the
    bundle's arrays on its first read and kept, read-only, on this record:

    * ``gram``: the target Gram matrix ``G`` (:func:`compute_gram`), checked
      once by :func:`_checked_gram`, so the record's solves do not check it;
    * ``oracle_moment``: ``g'_k = (1/n_t) * sum_i <y'_i, f_k(x'_i)>``;
    * ``label_sq``: ``||y'||^2 / n_t``;
    * ``true_risks``: each model's :func:`model_risks` on the oracle labels;
    * ``source_risks``: each model's plain :func:`model_risks` on the source;
    * ``oracle_outcome``: the ``lam=0`` oracle solve of ``(G, g')`` with its
      diagnostics (:func:`_oracle_outcome`, which also serves an explicit
      ``lam``), or the text of its :class:`IllConditioned` refusal. The text
      is kept, not the exception: raising one instance again keeps growing
      its traceback;
    * per rung ``lam`` of the automatic ladder tried (:meth:`_kept_factor`,
      at most seven), the lower Cholesky factor of ``G + lam*I`` with its
      condition estimate (:func:`_factor`), or the text of its refusal. Each
      factor is an ``m x m`` array, about 0.7 MB at ``m = 300``.

    The four oracle quantities are ``None`` when the bundle has no oracle
    labels. Each is the expression a direct call evaluates, so its bits do
    not depend on which caller read it first; two threads that both build
    one get identical bits. The record holds the bundle's arrays, not the
    bundle, so it keeps no dropped bundle alive.
    """

    target_preds: np.ndarray
    source_preds: np.ndarray
    source_labels: np.ndarray
    oracle_labels: np.ndarray | None
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def gram(self) -> np.ndarray:
        return _checked_gram(_freeze(compute_gram(self.target_preds)))

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

    @cached_property
    def oracle_outcome(self) -> AggregationResult | str | None:
        return None if self.oracle_labels is None else _oracle_outcome(self, 0.0)

    def _kept_factor(self, lam: float) -> tuple[np.ndarray, float]:
        """The kept :func:`_factor` of ``gram`` at the automatic
        rung ``lam``, made on first request, or a new
        :class:`IllConditioned` with its refusal's kept text. Only
        :meth:`solve` calls it, and only on the automatic ladder, so the
        record keeps at most seven factors."""
        entry = self._factors.get(lam)
        if entry is None:
            try:
                L, cond = _factor(self.gram, lam)
            except IllConditioned as exc:
                entry = str(exc)
            else:
                L.setflags(write=False)
                entry = (L, cond)
            entry = self._factors.setdefault(lam, entry)
        if isinstance(entry, str):
            raise IllConditioned(entry)
        return entry

    def solve(self, g, lam: float | None = None) -> AggregationResult:
        """:func:`solve_aggregation` of ``(G, g)``: ``G`` is checked once,
        ``g`` on every call, and each automatic rung's factor is kept
        (:meth:`_kept_factor`); an explicit ``lam`` is factored afresh."""
        factor = self._kept_factor if lam is None else partial(_factor, self.gram)
        return _solve_policy(self.gram, g, lam, factor)


def target_moments(bundle: PredictionBundle) -> Moments:
    """The bundle's :class:`Moments`, made on first request and kept on
    that bundle object; a ``dataclasses.replace`` copy makes its own."""
    kept = vars(bundle)
    if "_moments" not in kept:
        arrays = (bundle.target_preds, bundle.source_preds, bundle.source.labels)
        kept.setdefault("_moments", Moments(*arrays, bundle.target.oracle_labels))
    return kept["_moments"]


# --- pipeline entry points ------------------------------------------------


def resolve_beta(bundle: PredictionBundle | SourceDataset, ratio) -> Weights:
    """The source-sample weights of a bundle, or of its source sample
    alone, as a checked :class:`Weights` record, from a ratio model, a
    vector or a record.

    A ratio model is evaluated on the source features, and the record's
    saturation is the fraction of weights at its bound; a vector's is
    ``None``. A record is returned as it is once its length is checked.
    A ratio model or a vector gives a new record, scanned once, on every
    call: nothing is cached on the weights.
    """
    source = bundle.source if isinstance(bundle, PredictionBundle) else bundle
    if isinstance(ratio, RatioModel):
        if source.features is None:
            raise ConfigInvalid(
                "bundle has no source features, so the ratio model cannot be "
                "evaluated; pass precomputed weights instead"
            )
        beta = evaluate_ratio(ratio, source.features)
        weights = Weights(beta, float(np.mean(beta >= ratio.bound)))
    else:
        weights = ratio if isinstance(ratio, Weights) else Weights(ratio)
    _checked_weights(weights, source.n_samples)
    return weights


def solve_aggregation(G, g, lam: float | None = None) -> AggregationResult:
    """Solve ``(G + lam*I) c = g`` under the regularization policy.

    ``lam=None`` applies the default ``1e-8 * trace(G)/m`` and escalates it
    tenfold (up to ``1e-2 * trace(G)/m``) whenever the solve is refused. A
    zero trace (every model predicts 0) gives it no scale and is refused at
    once with :class:`IllConditioned`; a trace that overflows with
    :class:`ConfigInvalid`. An explicit ``lam`` -- including 0 -- is used
    exactly as given, and its refusal propagates unchanged. The system is
    checked once (:func:`_checked_gram`, :func:`_checked_moment`) before any
    of this. The diagnostics record the policy, the escalation count, each
    refused ``(lam, reason)`` in order (``lambda_refusals``), the condition
    estimate and the final residual; a refusal of every candidate names
    each with its reason.
    """
    G = _checked_gram(G)
    return _solve_policy(G, g, lam, partial(_factor, G))


def _solve_policy(G, g, lam: float | None, factor) -> AggregationResult:
    """The policy of :func:`solve_aggregation` on a checked ``G``; ``g`` is
    checked here. Each ``lam`` tried is solved with the ``(L, cond)`` of
    ``factor(lam)`` (see :func:`_solve_spd`)."""
    g = _checked_moment(g, len(G))
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

    refusals: list[tuple[float, str]] = []
    for lam_try in attempts:
        try:
            c, cond, resid = _solve_spd(G, g, lam_try, factor)
        except IllConditioned as exc:
            if policy == "explicit":
                raise
            refusals.append((lam_try, str(exc)))
            continue
        return AggregationResult(
            coefficients=c,
            gram=G,
            moment=g,
            tikhonov=lam_try,
            condition_estimate=cond,
            diagnostics={
                "lambda_policy": policy,
                "lambda_escalations": len(refusals),
                "lambda_refusals": tuple(refusals),
                "condition_estimate": cond,
                "residual_inf": resid,
            },
        )
    raise IllConditioned(
        "solve failed for every candidate regularizer: "
        + "; ".join(f"lam={lam!r}: {reason}" for lam, reason in refusals)
    )


def run_aggregation(
    bundle: PredictionBundle,
    ratio,
    lam: float | None = None,
) -> AggregationResult:
    """Full pipeline: weights, Gram matrix, moment vector, solve.

    The system is solved by the bundle's :func:`target_moments` record
    (:meth:`Moments.solve`): its ``G`` is kept and checked once, and so is
    the Cholesky factor of ``G + lam*I`` at each rung of the automatic
    ladder tried, so a later call on the bundle factors nothing. ``g`` is
    formed and checked, and the solve and its residual contract run, on
    every call. An explicit ``lam`` is factored afresh on every call.

    ``ratio`` is a :class:`RatioModel` (evaluated on the source features),
    a precomputed weight vector or a :class:`Weights` record, resolved once
    by :func:`resolve_beta`; the diagnostics gain the record's. ``lam``
    follows the policy of :func:`solve_aggregation`.
    """
    weights = resolve_beta(bundle, ratio)
    g = compute_g_vector(bundle.source_preds, bundle.source.labels, weights)
    result = target_moments(bundle).solve(g, lam)
    result.diagnostics.update(weights.diagnostics)
    return result


def oracle_aggregate(bundle: PredictionBundle, lam: float = 0.0) -> AggregationResult:
    """Best-possible empirical aggregation, using oracle target labels.

    Both the Gram matrix and the moment vector are formed on the target
    sample (``g_k = (1/n_t) * sum_i <y'_i, f_k(x'_i)>``), so the solution
    is the exact least-squares minimizer over the span of the models'
    target predictions. Both are kept in :func:`target_moments`, and so is
    the ``lam=0`` outcome, so at ``lam=0`` nothing is solved again. Each
    call returns its own ``diagnostics`` dict, or raises a new
    :class:`IllConditioned`. Benchmark-only: requires oracle labels.
    """
    if bundle.target.oracle_labels is None:
        raise MissingOracleLabels("bundle carries no target oracle labels")
    moments = target_moments(bundle)
    outcome = moments.oracle_outcome if lam == 0.0 else _oracle_outcome(moments, lam)
    if isinstance(outcome, str):
        raise IllConditioned(outcome)
    return replace(outcome, diagnostics=dict(outcome.diagnostics))


def _oracle_outcome(moments: Moments, lam: float) -> AggregationResult | str:
    try:
        result = moments.solve(moments.oracle_moment, lam)
    except IllConditioned as exc:
        return str(exc)
    result.diagnostics.update(
        lambda_policy="oracle",
        beta_mean=1.0,
        beta_max=1.0,
        beta_saturation_fraction=None,
        beta_effective_sample_size=None,
        beta_effective_fraction=None,
    )
    return result
