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
    _kept,
    _sq_risks,
    aggregate_predict,
    compute_g_vector,
    importance_weighted_risk,
    model_risks,
    oracle_aggregate,
    resolve_beta,
    run_aggregation,  # noqa: F401  re-exported: perfbench's tracer rebinds it here
    solve_aggregation,
    target_moments,
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
    return _select(bundle, [])[0]


def select_iwv(bundle: PredictionBundle, beta) -> SelectionOutcome:
    """Importance-weighted validation: argmin of ratio-weighted source risk.

    ``beta`` is a ratio model or a weight vector, checked by
    :func:`resolve_beta`.
    """
    return _select(bundle, [resolve_beta(bundle, beta)[0]])[1][0]


def _select(bundle: PredictionBundle, weight_sets):
    """The plain source-risk outcome, and one importance-weighted outcome
    per weight vector.

    The plain per-model source risks depend on the bundle alone, so they
    are kept on it. A bundle's first call scores them in the same pass over
    the source predictions as its weighted rows; a later call passes over
    the weighted rows only, and over nothing when there are none.
    """
    weighted = []

    def one_pass():
        plain, *rows = _sq_risks(
            bundle.source_preds, bundle.source.labels, [None, *weight_sets]
        )
        weighted.extend(rows)
        return plain

    plain = _kept(bundle, "_source_risk", one_pass)
    if weight_sets and not weighted:
        weighted = _sq_risks(bundle.source_preds, bundle.source.labels, weight_sets)
    return SelectionOutcome(method="source_risk", scores=plain), [
        SelectionOutcome(method="importance_weighted", scores=row) for row in weighted
    ]


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
    ``""`` for unsuffixed rows) to a ratio model or weight vector; each
    entry yields one IWV row and one aggregation row. Every quantity that
    depends on the bundle alone is computed once per bundle object and kept
    on it: the per-model plain source risks (on a first call, in the same
    pass over the source predictions as the IWV scores), the per-model true
    target risks (:func:`model_risks`), and the target Gram matrix ``G``, the
    oracle moments ``g'`` and ``||y'||^2 / n_t`` (:func:`target_moments`). So
    a later call on the same bundle does only the ``beta``-dependent work.
    The oracle solve (:func:`oracle_aggregate`) is made first, so its risk
    can scale every row as it is built. Each aggregation's true risk
    ``||y'||^2 / n_t - 2 c.g' + c'Gc`` comes from the moments too (0.0 if it
    is within a few ulps of its terms' size, or below zero).
    """
    labels_t = bundle.target.oracle_labels
    betas = {s: resolve_beta(bundle, ratio)[0] for s, ratio in beta_by_name.items()}
    sel, iwvs = _select(bundle, list(betas.values()))

    true_risks = [None] * bundle.model_count
    moments = oracle_true = oracle_detail = None
    if labels_t is not None or betas:
        moments = target_moments(bundle)

    def true_risk_of(c) -> float | None:
        if labels_t is None:
            return None
        label_sq = moments.label_sq
        cross = 2.0 * float(c @ moments.oracle_moment)
        quad = float(c @ moments.gram @ c)
        risk = label_sq - cross + quad
        noise = _RISK_NOISE * (label_sq + abs(cross) + abs(quad))
        return risk if risk > noise else 0.0

    if labels_t is not None:
        true_risks = _kept(
            bundle, "_true_risk", lambda: model_risks(bundle.target_preds, labels_t)
        ).tolist()
        try:
            oracle = oracle_aggregate(bundle)
        except IllConditioned as exc:
            oracle_detail = {"error": str(exc)}
        else:
            oracle_true = true_risk_of(oracle.coefficients)
            oracle_detail = _solve_detail(oracle)

    def row(method, true_target_risk, **fields) -> MethodRow:
        scaled = (
            true_target_risk is not None
            and oracle_true is not None
            and oracle_true > 0
        )
        return MethodRow(
            method=method,
            true_target_risk=true_target_risk,
            risk_ratio_vs_oracle=true_target_risk / oracle_true if scaled else None,
            **fields,
        )

    def pick_row(method, outcome: SelectionOutcome) -> MethodRow:
        k = outcome.selected_index
        return row(
            method,
            true_risks[k],
            estimated_score=outcome.scores[k],
            detail={"selected_index": k, "tie_broken": outcome.tie_broken},
        )

    rows = [
        row(f"model:{name}", true_risks[k], estimated_score=sel.scores[k])
        for k, name in enumerate(bundle.model_names)
    ]
    rows.append(pick_row("select_source", sel))
    if oracle_detail is not None:
        rows.append(row("aggregate_oracle", oracle_true, detail=oracle_detail))

    for (suffix, beta), iwv in zip(betas.items(), iwvs):
        tag = f"_{suffix}" if suffix else ""
        rows.append(pick_row(f"select_iwv{tag}", iwv))
        g = compute_g_vector(bundle.source_preds, bundle.source.labels, beta)
        result = solve_aggregation(moments.gram, g, lam)
        est = importance_weighted_risk(
            aggregate_predict(bundle.source_preds, result.coefficients),
            bundle.source.labels,
            beta,
        )
        rows.append(
            row(
                f"aggregate{tag}",
                true_risk_of(result.coefficients),
                estimated_score=est,
                detail={
                    **_solve_detail(result),
                    "lambda_escalations": result.diagnostics["lambda_escalations"],
                },
            )
        )

    rows.sort(key=lambda r: r.method)
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
