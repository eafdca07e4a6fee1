"""Outside-in tracing: spans around the public functions of each layer.

A traced run rebinds every module-namespace name in ``shiftagg`` that holds
one of the functions listed in :data:`TRACED` to a wrapper that records a
span. Rebinding every holder matters because the modules import by name:
``data`` calls its own ``read_csv`` binding, ``synth`` its own
``build_method_rows``, and so on. The untimed and timed runs never install
the wrappers.

Spans are kept in memory (one list, one stack: the workloads run on one
thread) and written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# Traced functions per module. Span names are ``<module>.<function>``;
# ``empirical_risk`` and ``importance_weighted_risk`` share the span name
# ``aggregation.risk_evals``.
TRACED = {
    "cli": ("main",),
    "synth": ("run_suite", "generate_task", "fit_model_family"),
    "ratio": ("fit_ulsif", "evaluate_ratio"),
    "data": ("load_bundle", "write_bundle"),
    "serialize": ("read_csv", "write_csv", "write_json"),
    "aggregation": (
        "compute_gram",
        "compute_g_vector",
        "run_aggregation",
        "oracle_aggregate",
        "empirical_risk",
        "importance_weighted_risk",
    ),
    "selection": ("build_method_rows", "select_iwv", "select_source_risk"),
}
_SPAN_ALIAS = {
    "aggregation.empirical_risk": "aggregation.risk_evals",
    "aggregation.importance_weighted_risk": "aggregation.risk_evals",
}

# Per-layer metrics, in report order, with their units. Every traced run
# emits all of them; a layer the workload never enters reads 0. Those marked
# "computed" come from argument shapes, configs or file sizes.
PER_LAYER_UNITS = {
    "ratio.fit_ulsif.calls": "count",
    "ratio.fit_ulsif.self_ms": "ms",
    "ratio.fit_ulsif.cv_solves": "count",  # computed
    "ratio.evaluate_ratio.calls": "count",
    "ratio.evaluate_ratio.self_ms": "ms",
    "data.load_bundle.calls": "count",
    "data.load_bundle.self_ms": "ms",
    "data.load_bundle.mb": "MB",  # computed
    "data.load_bundle.mb_per_s": "MB/s",  # computed bytes / span time
    "serialize.read_csv.calls": "count",
    "serialize.read_csv.self_ms": "ms",
    "data.write_bundle.self_ms": "ms",
    "data.write_bundle.mb": "MB",  # computed
    "data.write_bundle.mb_per_s": "MB/s",  # computed bytes / span time
    "serialize.write_csv.calls": "count",
    "serialize.write_csv.self_ms": "ms",
    "serialize.write_json.self_ms": "ms",
    "aggregation.compute_gram.calls": "count",
    "aggregation.compute_gram.self_ms": "ms",
    "aggregation.compute_gram.gflop": "GFLOP",  # computed
    "aggregation.compute_gram.gflop_per_s": "GFLOP/s",  # computed flops / span time
    "aggregation.compute_gram.calls_per_bundle": "count",
    "aggregation.compute_g_vector.calls": "count",
    "aggregation.compute_g_vector.self_ms": "ms",
    "aggregation.run_aggregation.self_ms": "ms",
    "aggregation.oracle_aggregate.self_ms": "ms",
    "aggregation.solve_attempts": "count",
    "aggregation.lambda_escalations": "count",
    "aggregation.risk_evals.calls": "count",
    "aggregation.risk_evals.self_ms": "ms",
    "selection.build_method_rows.self_ms": "ms",
    "selection.select_iwv.self_ms": "ms",
    "selection.select_source_risk.self_ms": "ms",
    "synth.run_suite.self_ms": "ms",
    "synth.generate_task.self_ms": "ms",
    "synth.fit_model_family.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "trace.layer_coverage_pct": "%",
    "trace.overhead_pct": "%",
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its children's durations.

    Spans open and close on one stack in one thread, so a span's children
    run one after another inside it.
    """
    out = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _dir_bytes(path) -> int:
    with os.scandir(path) as it:
        return sum(e.stat().st_size for e in it if e.is_file())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


@dataclass
class Tracer:
    """In-memory span recorder plus the counts the hooks compute."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0
    # Target tensors seen by compute_gram in the current op. Holding them
    # keeps their ids from being reused within the op.
    _gram_inputs: dict[int, object] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _open(self) -> tuple[int, float]:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, start, end, parent))

    def run_op(self, fn):
        """Run one workload op as a top-level ``op`` span."""
        sid, start = self._open()
        try:
            return fn()
        finally:
            self._close(sid, "op", start)
            self.add("gram_bundles", len(self._gram_inputs))
            self._gram_inputs.clear()

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        span_name = _SPAN_ALIAS.get(name, name)

        def traced(*args, **kwargs):
            sid, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, span_name, start)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Rebind every ``shiftagg`` name holding a traced function.

        Returns the undo list for :func:`uninstall`.
        """
        for mod in TRACED:
            importlib.import_module(f"shiftagg.{mod}")
        holders = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "shiftagg" or n.startswith("shiftagg.")
        ]
        undo = []
        for mod, names in TRACED.items():
            module = sys.modules[f"shiftagg.{mod}"]
            for fname in names:
                orig = getattr(module, fname)
                wrapper = self.wrap(f"{mod}.{fname}", orig)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, attr, wrapper)
                            undo.append((holder, attr, orig))
        return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for holder, attr, orig in reversed(undo):
        setattr(holder, attr, orig)


# --- hooks: counts computed from arguments, results and file sizes --------


def _hook_gram(tr: Tracer, args, kwargs, result) -> None:
    preds = _arg(args, kwargs, 0, "target_preds")
    m, n, d2 = preds.shape
    tr.add("gram_flop", m * (m + 1) / 2 * n * d2 * 2)
    tr._gram_inputs[id(preds)] = preds


def _hook_ulsif(tr: Tracer, args, kwargs, result) -> None:
    from shiftagg.ratio import DEFAULT_WIDTH_SCALES

    cfg = _arg(args, kwargs, 2, "cfg")
    widths = len(cfg.kernel_widths or DEFAULT_WIDTH_SCALES)
    tr.add(
        "ulsif_cv_solves",
        widths * len(cfg.ridge_strengths) * cfg.cv_folds + 1,
    )


def _hook_run_aggregation(tr: Tracer, args, kwargs, result) -> None:
    escalations = result.diagnostics["lambda_escalations"]
    tr.add("lambda_escalations", escalations)
    tr.add("solve_attempts", escalations + 1)


def _hook_oracle(tr: Tracer, args, kwargs, result) -> None:
    tr.add("solve_attempts", 1)


def _hook_load(tr: Tracer, args, kwargs, result) -> None:
    tr.add("load_bytes", _dir_bytes(_arg(args, kwargs, 0, "path")))


def _hook_write(tr: Tracer, args, kwargs, result) -> None:
    tr.add("write_bytes", _dir_bytes(_arg(args, kwargs, 1, "path")))


_HOOKS = {
    "aggregation.compute_gram": _hook_gram,
    "ratio.fit_ulsif": _hook_ulsif,
    "aggregation.run_aggregation": _hook_run_aggregation,
    "aggregation.oracle_aggregate": _hook_oracle,
    "data.load_bundle": _hook_load,
    "data.write_bundle": _hook_write,
}


def per_layer_metrics(tr: Tracer, n_ops: int) -> dict[str, float]:
    """Fold spans and counts into :data:`PER_LAYER_UNITS`, per op.

    ``n_ops`` is the number of workload ops the traced section ran (trials
    for ``suite``). ``trace.overhead_pct`` is left to the caller, which
    also times the untraced ops.
    """
    selfs = self_times(tr.spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    op_total = op_self = 0.0
    for s in tr.spans:
        if s.name == "op":
            op_total += s.end - s.start
            op_self += selfs[s.sid]
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.sid]
        incl_s[s.name] = incl_s.get(s.name, 0.0) + (s.end - s.start)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    c = tr.counts
    out: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        layer, _, stat = key.rpartition(".")
        if stat == "calls":
            out[key] = calls.get(layer, 0) / n_ops
        elif stat == "self_ms":
            out[key] = 1e3 * self_s.get(layer, 0.0) / n_ops
    out["ratio.fit_ulsif.cv_solves"] = c.get("ulsif_cv_solves", 0.0) / n_ops
    out["data.load_bundle.mb"] = c.get("load_bytes", 0.0) / 1e6 / n_ops
    out["data.load_bundle.mb_per_s"] = rate(
        c.get("load_bytes", 0.0) / 1e6, incl_s.get("data.load_bundle", 0.0)
    )
    out["data.write_bundle.mb"] = c.get("write_bytes", 0.0) / 1e6 / n_ops
    out["data.write_bundle.mb_per_s"] = rate(
        c.get("write_bytes", 0.0) / 1e6, incl_s.get("data.write_bundle", 0.0)
    )
    gram = "aggregation.compute_gram"
    out[f"{gram}.gflop"] = c.get("gram_flop", 0.0) / 1e9 / n_ops
    out[f"{gram}.gflop_per_s"] = rate(
        c.get("gram_flop", 0.0) / 1e9, incl_s.get(gram, 0.0)
    )
    out[f"{gram}.calls_per_bundle"] = rate(
        calls.get(gram, 0), c.get("gram_bundles", 0.0)
    )
    out["aggregation.solve_attempts"] = c.get("solve_attempts", 0.0) / n_ops
    out["aggregation.lambda_escalations"] = c.get("lambda_escalations", 0.0) / n_ops
    out["trace.layer_coverage_pct"] = 100.0 * rate(op_total - op_self, op_total)
    return out
