"""Command-line pipeline: estimate-ratio, aggregate, select, bench, probe.

Exit codes are a stable scripting contract: 0 success, 2 input or config
error, 3 numerical failure, 4 I/O failure or memory refused. Randomness
comes only from explicit ``--seed`` flags or config files, never from the
environment, and fixed seeds plus fixed inputs produce byte-identical
output files on a fixed BLAS build and BLAS thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import aggregation, probe, ratio, selection, synth
from .data import load_bundle, load_embeddings, write_bundle
from .errors import ConfigInvalid, IoFailure, NumericalError, ValidationError
from .serialize import config_from_dict, decode_value, read_json
from .serialize import read_csv, write_csv, write_json, write_text

SATURATION_WARN_LEVEL = 0.5
# Kish's effective sample size of the weights, as a fraction of the source
# sample, below which the weighted estimates rest on few samples.
EFFECTIVE_FRACTION_WARN_LEVEL = 0.1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="shiftagg",
        description=(
            "Importance-weighted model aggregation for unsupervised domain "
            "adaptation under covariate shift."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate-ratio", help="fit a density-ratio model")
    p.add_argument("--input", required=True, help="bundle directory")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--config", help="ratio config JSON (ratio.json)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_estimate_ratio)

    p = sub.add_parser("aggregate", help="solve aggregation coefficients")
    p.add_argument("--input", required=True, help="bundle directory")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--beta", help="per-source-sample weight CSV (id,beta)")
    p.add_argument("--ratio", help="fitted ratio model JSON")
    p.add_argument(
        "--analytic",
        action="store_true",
        help="use <input>/analytic_ratio.json as the ratio model",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="aggregate against oracle target labels instead of weights",
    )
    p.add_argument("--lambda", dest="lam", type=float, help="Tikhonov value")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("select", help="compare selection and aggregation")
    p.add_argument("--input", required=True, help="bundle directory")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--beta", help="per-source-sample weight CSV")
    p.add_argument("--ratio", help="fitted ratio model JSON")
    p.add_argument("--analytic", action="store_true")
    p.add_argument("--lambda", dest="lam", type=float)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bench", help="run the synthetic benchmark suite")
    p.add_argument("--config", help="suite config JSON")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--trials", type=int, help="override trial count")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument(
        "--threads", type=int, default=1,
        help="must be >= 1; no longer changes how trials run",
    )
    p.add_argument(
        "--dump-tasks",
        type=int,
        default=0,
        help="write the first N task bundles in the bundle directory format",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("probe", help="semantic distance over an embedding dump")
    p.add_argument("--input", required=True, help="embedding dump JSON")
    p.add_argument("--output", help="report JSON path (default: stdout only)")
    p.add_argument("--epsilon", type=float, help="closeness threshold")
    p.add_argument(
        "--lipschitz",
        help="comma-separated Lipschitz constants of the layers above",
    )
    p.set_defaults(func=cmd_probe)

    return top


def _warn_few_effective_samples(fraction: float) -> None:
    """Warn on stderr when Kish's effective sample size of the weights is
    below :data:`EFFECTIVE_FRACTION_WARN_LEVEL` of the source sample."""
    if fraction < EFFECTIVE_FRACTION_WARN_LEVEL:
        print(
            f"warning: beta effective sample size is {fraction:.3f} of the "
            f"source sample, below {EFFECTIVE_FRACTION_WARN_LEVEL}; the weighted "
            "estimates rest on few samples",
            file=sys.stderr,
        )


def _ensure_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {path}: {exc}") from exc
    return path


def _load_beta_csv(path, n_expected: int) -> np.ndarray:
    header, beta = read_csv(path, 2)
    if header != ["id", "beta"]:
        raise ConfigInvalid(f"{path}: expected header 'id,beta'")
    if len(beta) != n_expected:
        raise ConfigInvalid(
            f"{path}: {len(beta)} weights for {n_expected} source samples"
        )
    return beta[:, 0]


def _resolve_ratio_arg(args, bundle):
    """Turn --beta/--ratio/--analytic into a weight source, or None."""
    picked = [
        name
        for name, flag in (
            ("--beta", args.beta),
            ("--ratio", args.ratio),
            ("--analytic", getattr(args, "analytic", False)),
        )
        if flag
    ]
    if len(picked) > 1:
        raise ConfigInvalid(f"flags {picked} are mutually exclusive")
    if args.beta:
        return _load_beta_csv(args.beta, bundle.source.n_samples)
    if args.ratio:
        return ratio.load_ratio_model(args.ratio)
    if getattr(args, "analytic", False):
        return ratio.load_ratio_model(os.path.join(args.input, "analytic_ratio.json"))
    return None


def cmd_estimate_ratio(args) -> int:
    bundle = load_bundle(args.input)
    if bundle.source.features is None or bundle.target.features is None:
        missing = []
        if bundle.source.features is None:
            missing.append("source.csv has no x_1..x_d1 columns")
        if bundle.target.features is None:
            missing.append("target.csv has no x_1..x_d1 columns")
        raise ConfigInvalid(
            "ratio estimation needs features on both samples: " + "; ".join(missing)
        )
    doc = read_json(args.config) if args.config else {}
    # estimator sits beside the ratio config's fields in the same file.
    doc = dict(decode_value(dict, doc, "ratio config"))
    estimator = decode_value(str, doc.pop("estimator", "ulsif"), "estimator")
    cfg = config_from_dict(ratio.RatioFitConfig, doc)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

    model = ratio.fit_ratio(
        bundle.source.features, bundle.target.features, cfg, estimator
    )
    weights = aggregation.resolve_beta(bundle, model)
    beta, saturation = weights

    outdir = _ensure_outdir(args.output)
    ratio.save_ratio_model(model, os.path.join(outdir, "ratio.json"))
    write_csv(
        os.path.join(outdir, "beta.csv"),
        ["id", "beta"],
        beta[:, None],
    )
    print(
        f"estimate-ratio: kind={model.kind} bound={model.bound:g} "
        f"beta mean={weights.diagnostics['beta_mean']:.6g} "
        f"saturation={saturation:.3f}",
        file=sys.stderr,
    )
    if saturation > SATURATION_WARN_LEVEL:
        print(
            f"warning: beta saturation fraction {saturation:.3f} exceeds "
            f"{SATURATION_WARN_LEVEL}; the bound B may be too small",
            file=sys.stderr,
        )
    _warn_few_effective_samples(weights.diagnostics["beta_effective_fraction"])
    if model.cv is not None:
        # The lowest ridge winning is the common case and says little; a
        # width on either edge or the largest ridge may miss the optimum.
        # A logistic fit has a ridge grid only.
        ridge = model.cv["ridges"][model.cv["ridge_index"]]
        edges = []
        if model.cv.get("width_on_edge"):
            edges.append(f"kernel width {model.kernel_width:.6g}")
        if ridge == max(model.cv["ridges"]):
            edges.append(f"ridge {ridge:g}, the largest")
        if edges:
            print(
                f"warning: cross-validation chose {' and '.join(edges)}, on the "
                "edge of the grid; the optimum may lie outside it",
                file=sys.stderr,
            )
    return 0


def cmd_aggregate(args) -> int:
    bundle = load_bundle(args.input)
    if args.oracle:
        result = aggregation.oracle_aggregate(
            bundle, 0.0 if args.lam is None else args.lam
        )
        mode = "oracle"
        weights = None
    else:
        weight_source = _resolve_ratio_arg(args, bundle)
        if weight_source is None:
            raise ConfigInvalid(
                "aggregate needs one of --beta, --ratio, --analytic, or --oracle"
            )
        # One record serves the solve and the weighted risk report.
        weights = aggregation.resolve_beta(bundle, weight_source)
        result = aggregation.run_aggregation(bundle, weights, args.lam)
        mode = "importance_weighted"

    doc = result.to_json_dict()
    doc["mode"] = mode
    # Every report is made before the output directory is made, so a refused
    # weight file, solve or risk leaves nothing behind.
    doc["risk_reports"] = {
        kind: aggregation.make_risk_report(
            bundle, result.coefficients, kind, weights
        ).to_json_dict()
        for kind, wanted in (
            ("source", True),
            ("importance_weighted", weights is not None),
            ("target_oracle", bundle.target.oracle_labels is not None),
        )
        if wanted
    }
    doc["inputs"] = dict(bundle.inputs)
    outdir = _ensure_outdir(args.output)
    write_csv(
        os.path.join(outdir, "aggregated_predictions.csv"),
        ["id"] + [f"f_{j + 1}" for j in range(bundle.label_dim)],
        aggregation.aggregate_predict(bundle.target_preds, result.coefficients),
    )
    write_json(os.path.join(outdir, "result.json"), doc)
    print(
        f"aggregate: m={result.model_count} lambda={result.tikhonov:.6g} "
        f"condition={result.condition_estimate:.3e}",
        file=sys.stderr,
    )
    if weights is not None:
        _warn_few_effective_samples(weights.diagnostics["beta_effective_fraction"])
    return 0


def cmd_select(args) -> int:
    bundle = load_bundle(args.input)
    weight_source = _resolve_ratio_arg(args, bundle)
    report = selection.compare_methods(bundle, weight_source, args.lam)
    doc = report.to_json_dict()
    doc["inputs"] = dict(bundle.inputs)
    outdir = _ensure_outdir(args.output)
    write_json(os.path.join(outdir, "comparison.json"), doc)
    sys.stdout.write(report.format_table())
    return 0


def cmd_bench(args) -> int:
    if args.threads < 1:
        raise ConfigInvalid(f"threads must be >= 1, got {args.threads}")
    if args.dump_tasks < 0:
        raise ConfigInvalid(f"--dump-tasks must be >= 0, got {args.dump_tasks}")
    doc = read_json(args.config) if args.config else {}
    # trials and seed sit beside the suite config's fields in the same file.
    doc = dict(decode_value(dict, doc, "suite config"))
    trials = decode_value(int, doc.pop("trials", 100), "trials")
    seed = decode_value(int, doc.pop("seed", 0), "seed")
    cfg = config_from_dict(synth.SuiteConfig, doc)
    trials = args.trials if args.trials is not None else trials
    seed = args.seed if args.seed is not None else seed

    report = synth.run_suite(cfg, trials, seed)
    outdir = _ensure_outdir(args.output)
    doc_out = report.to_json_dict()
    doc_out["seed"] = seed
    write_json(os.path.join(outdir, "suite.json"), doc_out)
    table = report.format_table()
    write_text(os.path.join(outdir, "suite.txt"), table)
    sys.stdout.write(table)

    for i in range(min(args.dump_tasks, trials)):
        rec = report.per_trial[i]
        task = synth.generate_task(replace(cfg.task, seed=rec.task_seed))
        task_dir = os.path.join(outdir, f"task_{i:03d}")
        write_bundle(task.bundle, task_dir)
        ratio.save_ratio_model(
            task.analytic_ratio, os.path.join(task_dir, "analytic_ratio.json")
        )
    return 0


def cmd_probe(args) -> int:
    emb = load_embeddings(args.input)
    report = probe.semantic_distance(emb)
    if args.epsilon is not None:
        report = probe.with_epsilon(report, args.epsilon)
        if args.lipschitz is not None:
            try:
                cells = args.lipschitz.split(",")
                if "" in cells:
                    raise ValueError("a constant is empty")
                constants = [float(v) for v in cells]
            except ValueError as exc:
                raise ConfigInvalid(
                    f"bad --lipschitz list {args.lipschitz!r}: {exc}"
                ) from exc
            report = probe.with_lipschitz(report, constants)
    elif args.lipschitz is not None:
        raise ConfigInvalid("--lipschitz requires --epsilon")
    doc = report.to_json_dict()
    if args.output:
        write_json(args.output, doc)
    line = f"probe: d_sem={report.d_sem:.6g} argmin_layer={report.argmin_layer}"
    if report.is_epsilon_close is not None:
        line += f" epsilon_close={report.is_epsilon_close}"
    if report.propagated_bound is not None:
        line += f" propagated_bound={report.propagated_bound:.6g}"
    print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except IoFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # The operating system refused the memory, as it refuses an I/O call.
        print(f"error: out of memory: {str(exc) or 'allocation refused'}",
              file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
