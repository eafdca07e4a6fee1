"""Single-model selection baselines and the method comparison table.

Selection picks one model from the trained sequence by a validation score
and discards the rest; it can never beat the best sequence member. Two
rules are provided: plain source risk, and importance-weighted validation
(source risk reweighted by the density ratio, the standard estimate of
target risk under covariate shift). ``compare_methods`` tabulates these
against the aggregation and its oracle variant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .aggregation import (
    aggregate_predict,
    compute_g_vector,
    compute_gram,
    empirical_risk,
    importance_weighted_risk,
    model_risks,
    resolve_beta,
    run_aggregation,  # noqa: F401  re-exported: perfbench's tracer rebinds it here
    solve_aggregation,
)
from .data import PredictionBundle
from .errors import ConfigInvalid, IllConditioned
from .serialize import aligned_table, config_to_dict, fmt_float

__all__ = [
    "SelectionOutcome",
    "MethodRow",
    "ComparisonReport",
    "select_source_risk",
    "select_iwv",
    "compare_methods",
    "RESERVED_METHOD_NAMES",
]

# Baselines that need ingredients absent from the bundle format (feature
# embeddings, training internals). Their method-name slots are reserved in
# the report schema so downstream tooling can merge externally computed rows.
RESERVED_METHOD_NAMES = (
    "select_deep_embedded_validation",
    "select_balancing_principle",
)


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of scoring every model and picking the argmin."""

    method: str
    selected_index: int
    scores: tuple[float, ...]
    tie_broken: bool

    def __post_init__(self):
        if self.method not in ("source_risk", "importance_weighted"):
            raise ConfigInvalid(f"unknown selection method {self.method!r}")
        scores = tuple(float(s) for s in self.scores)
        object.__setattr__(self, "scores", scores)
        idx = min(range(len(scores)), key=scores.__getitem__)
        if idx != self.selected_index:
            raise ConfigInvalid("selected_index must be the lowest-index argmin")

    to_json_dict = config_to_dict


def _select(method: str, risks: np.ndarray) -> SelectionOutcome:
    scores = risks.tolist()
    idx = min(range(len(scores)), key=scores.__getitem__)
    tie = any(scores[j] == scores[idx] for j in range(len(scores)) if j != idx)
    return SelectionOutcome(
        method=method, selected_index=idx, scores=tuple(scores), tie_broken=tie
    )


def select_source_risk(bundle: PredictionBundle) -> SelectionOutcome:
    """Pick the model with the lowest plain source risk (naive baseline)."""
    return _select(
        "source_risk", model_risks(bundle.source_preds, bundle.source.labels)
    )


def select_iwv(bundle: PredictionBundle, beta) -> SelectionOutcome:
    """Importance-weighted validation: argmin of ratio-weighted source risk."""
    return _select(
        "importance_weighted",
        model_risks(bundle.source_preds, bundle.source.labels, beta),
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


def build_method_rows(
    bundle: PredictionBundle,
    beta_by_name: dict[str, object],
    lam: float | None,
) -> list[MethodRow]:
    """Rows for all models, selection rules, and aggregations.

    ``beta_by_name`` maps a suffix (e.g. ``"analytic"``, ``"ulsif"`` or
    ``""`` for unsuffixed rows) to a ratio model or weight vector; each
    entry yields one IWV row and one aggregation row. The target Gram
    matrix and the per-model risks are computed once and shared by every
    row that needs them.
    """
    labels_t = bundle.target.oracle_labels
    sel = select_source_risk(bundle)
    true_risks = (
        [None] * bundle.model_count
        if labels_t is None
        else model_risks(bundle.target_preds, labels_t).tolist()
    )
    needs_gram = labels_t is not None or beta_by_name
    G = compute_gram(bundle.target_preds) if needs_gram else None

    def true_risk_of(coefficients) -> float | None:
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

    oracle_true: float | None = None
    if labels_t is not None:
        # Weighting by exactly 1.0 makes this the plain averaged inner product.
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


def compare_methods(
    bundle: PredictionBundle, ratio=None, lam: float | None = None
) -> ComparisonReport:
    """Tabulate single models, both selection rules, and aggregations.

    ``ratio`` is a ratio model or precomputed weight vector; without it the
    ratio-dependent rows (IWV selection, aggregation) are omitted. True
    target risks appear whenever the bundle carries oracle labels.
    """
    betas = {} if ratio is None else {"": ratio}
    return ComparisonReport(rows=tuple(build_method_rows(bundle, betas, lam)))
