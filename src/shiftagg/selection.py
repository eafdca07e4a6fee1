"""Single-model selection baselines and the method comparison table.

Selection picks one model from the trained sequence by a validation score
and discards the rest; it can never beat the best sequence member. Two
rules are provided: plain source risk, and importance-weighted validation
(source risk reweighted by the density ratio, the standard estimate of
target risk under covariate shift). ``compare_methods`` tabulates these
against the aggregation and its oracle variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import (
    aggregate_predict,
    importance_weighted_risk,
    model_risks,
    resolve_beta,
    run_aggregation,
    target_moments,
)
from .data import PredictionBundle
from .errors import ConfigInvalid
from .serialize import aligned_table, config_to_dict, fmt_float

__all__ = [
    "SelectionOutcome",
    "MethodRow",
    "ComparisonReport",
    "select_source_risk",
    "select_iwv",
    "compare_methods",
]

# A moment-formed true risk at or below 8 ulps of the size of its three
# terms is rounding noise and reads 0.0: labels equal to one model's
# predictions leave at most 3 such ulps.
_RISK_NOISE = 8 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SelectionOutcome:
    """Every model's score and the pick they imply: ``selected_index`` is
    the lowest-index argmin, and ``tie_broken`` says another model scored
    the same."""

    method: str
    selected_index: int = field(init=False)
    scores: tuple[float, ...]
    tie_broken: bool = field(init=False)

    def __post_init__(self):
        if self.method not in ("source_risk", "importance_weighted"):
            raise ConfigInvalid(f"unknown selection method {self.method!r}")
        scores = tuple(float(s) for s in self.scores)
        idx = min(range(len(scores)), key=scores.__getitem__)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "selected_index", idx)
        object.__setattr__(self, "tie_broken", scores.count(scores[idx]) > 1)

    to_json_dict = config_to_dict


def select_source_risk(bundle: PredictionBundle) -> SelectionOutcome:
    """Pick the model with the lowest plain source risk (naive baseline)."""
    scores = target_moments(bundle).source_risks
    return SelectionOutcome(method="source_risk", scores=scores)


def select_iwv(bundle: PredictionBundle, beta) -> SelectionOutcome:
    """Importance-weighted validation: argmin of ratio-weighted source risk.

    ``beta`` is a ratio model, a weight vector or a
    :class:`~shiftagg.aggregation.Weights` record, resolved once by
    :func:`resolve_beta`.
    """
    weights = resolve_beta(bundle, beta)
    return SelectionOutcome(
        method="importance_weighted",
        scores=model_risks(bundle.source_preds, bundle.source.labels, weights),
    )


@dataclass(frozen=True)
class MethodRow:
    """One comparison-table row; risk fields are None when unavailable."""

    method: str
    estimated_score: float | None = None
    true_target_risk: float | None = None
    risk_ratio_vs_oracle: float | None = None
    detail: dict | None = None

    to_json_dict = config_to_dict


@dataclass(frozen=True)
class ComparisonReport:
    """Rows for every method, sorted by method name."""

    rows: tuple[MethodRow, ...]

    def row(self, method: str) -> MethodRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def method_names(self) -> tuple[str, ...]:
        return tuple(r.method for r in self.rows)

    to_json_dict = config_to_dict

    def format_table(self) -> str:
        def cell(v):
            return "-" if v is None else fmt_float(v)

        rows = [
            [r.method, cell(r.estimated_score), cell(r.true_target_risk),
             cell(r.risk_ratio_vs_oracle)]
            for r in self.rows
        ]
        return aligned_table(
            ["method", "estimated_score", "true_target_risk", "vs_oracle"], rows
        )


def _solve_detail(result) -> dict:
    return {
        "coefficients": list(result.coefficients),
        "tikhonov": result.tikhonov,
        "condition_estimate": result.condition_estimate,
    }


def build_method_rows(
    bundle: PredictionBundle,
    beta_by_name: dict[str, object],
    lam: float | None,
) -> list[MethodRow]:
    """Rows for all models, selection rules, and aggregations.

    ``beta_by_name`` maps a suffix (e.g. ``"analytic"``, ``"ulsif"`` or
    ``""`` for unsuffixed rows) to a ratio model, weight vector or
    :class:`~shiftagg.aggregation.Weights` record; each entry is resolved
    once to one record, which yields one IWV row (:func:`select_iwv`) and
    one aggregation row (:func:`run_aggregation`).
    Everything that depends on the bundle alone is read from its
    :func:`target_moments` record: the per-model plain source risks
    (:func:`select_source_risk`) and true target risks, ``G``, the oracle
    moments ``g'`` and ``||y'||^2 / n_t``, and the ``lam=0`` oracle solve or
    its refusal's text. So a later call on the same bundle does only the
    ``beta``-dependent work: one weighted :func:`model_risks` pass, one
    ``g`` and one solve per weight source. Each row's ``detail`` dict is
    built afresh on every call. Each aggregation's true
    risk ``||y'||^2 / n_t - 2 c.g' + c'Gc`` comes from the moments too (0.0
    if it is within a few ulps of its terms' size, or below zero). The rows
    are collected as plain ``(method, estimated_score, true_risk, detail)``
    tuples, sorted by method, and then every true risk is divided by the
    oracle's.
    """
    moments = target_moments(bundle)
    true = moments.true_risks
    true = None if true is None else true.tolist()

    def true_risk_of(c) -> float | None:
        if true is None:
            return None
        label_sq = moments.label_sq
        cross = 2.0 * float(c @ moments.oracle_moment)
        quad = float(c @ moments.gram @ c)
        risk = label_sq - cross + quad
        noise = _RISK_NOISE * (label_sq + abs(cross) + abs(quad))
        return risk if risk > noise else 0.0

    source = select_source_risk(bundle)
    rows = [
        (f"model:{name}", source.scores[k], None if true is None else true[k], None)
        for k, name in enumerate(bundle.model_names)
    ]
    picks = [("select_source", source)]
    oracle_true = None
    oracle = moments.oracle_outcome
    if isinstance(oracle, str):
        rows.append(("aggregate_oracle", None, None, {"error": oracle}))
    elif oracle is not None:
        oracle_true = true_risk_of(oracle.coefficients)
        rows.append(("aggregate_oracle", None, oracle_true, _solve_detail(oracle)))

    for suffix, ratio in beta_by_name.items():
        tag = f"_{suffix}" if suffix else ""
        weights = resolve_beta(bundle, ratio)
        picks.append((f"select_iwv{tag}", select_iwv(bundle, weights)))
        result = run_aggregation(bundle, weights, lam)
        est = importance_weighted_risk(
            aggregate_predict(bundle.source_preds, result.coefficients),
            bundle.source.labels,
            weights,
        )
        detail = {
            **_solve_detail(result),
            "lambda_escalations": result.diagnostics["lambda_escalations"],
        }
        rows.append((f"aggregate{tag}", est, true_risk_of(result.coefficients), detail))

    for method, outcome in picks:
        k = outcome.selected_index
        detail = {"selected_index": k, "tie_broken": outcome.tie_broken}
        rows.append((method, outcome.scores[k], None if true is None else true[k], detail))

    rows.sort(key=lambda r: r[0])
    scaled = oracle_true is not None and oracle_true > 0
    return [
        MethodRow(
            method=method,
            estimated_score=score,
            true_target_risk=risk,
            risk_ratio_vs_oracle=risk / oracle_true if scaled and risk is not None else None,
            detail=detail,
        )
        for method, score, risk, detail in rows
    ]


def compare_methods(
    bundle: PredictionBundle, ratio=None, lam: float | None = None
) -> ComparisonReport:
    """Tabulate single models, both selection rules, and aggregations.

    ``ratio`` is a ratio model, a precomputed weight vector or a
    :class:`~shiftagg.aggregation.Weights` record; without it the
    ratio-dependent rows (IWV selection, aggregation) are omitted. True
    target risks appear whenever the bundle carries oracle labels.
    """
    betas = {} if ratio is None else {"": ratio}
    return ComparisonReport(rows=tuple(build_method_rows(bundle, betas, lam)))
