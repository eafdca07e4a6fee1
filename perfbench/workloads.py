"""The three benchmark workloads and the checks on their outputs.

Each workload is closed-loop: one client in one process issues the next op
when the last one returns. ``__init__`` is the set-up (it generates every
input from the seed), ``steps`` are the timed work of one op, run in order
and timed one by one, and ``check`` inspects the list of their outputs
afterwards, outside the timed region. Importing this module
imports ``shiftagg``, so the set-up time includes that import.

Why each workload exists, and which layer it loads, is in ``README.md``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import statistics
import sys
from typing import NamedTuple

import numpy as np

from shiftagg import aggregation, cli, data, ratio, selection, serialize, synth

# Input sizes. "full" is what the benchmark measures; "tiny" only proves
# that every workload runs end to end (the benchmark's own tests use it).
SIZES = {
    "full": {
        "suite": {"trials": 5},
        "cli_pipeline": {"m": 20, "n": 5000},
        "wide_family": {"m": 300, "n": 10000},
    },
    "tiny": {
        "suite": {"trials": 2},
        "cli_pipeline": {"m": 3, "n": 300},
        "wide_family": {"m": 12, "n": 400},
    },
}


# Seed of the reference inputs behind the end-to-end ``agg_risk_vs_oracle``.
REFERENCE_SEED = 0


class Outcome(NamedTuple):
    """What ``check`` found: ops failed, and the risk ratio of the
    aggregation fed by the workload's ratio to the oracle aggregation
    (``None`` when it could not be read)."""

    failed: int
    agg_risk_vs_oracle: float | None


def _quiet_main(argv: list[str]) -> int:
    """``cli.main`` with its table output captured; stderr is echoed on
    failure. ``cli.main`` is looked up on each call so a traced run sees its
    wrapper."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        sys.stderr.write(err.getvalue())
    return rc


# Largest relative gap allowed between the true target risk of the program's
# aggregation coefficients and of the benchmark's own float64 solve.
REFERENCE_RTOL = 1e-6


def _matches_reference(bundle, beta, coefficients, lam: float) -> bool:
    """Whether ``coefficients`` are as good as an independent solve.

    The benchmark builds ``G``, ``g`` and solves ``(G + lam*I) c = g`` with
    plain numpy, at the program's own ``lam``, and compares the true target
    risks of the two coefficient vectors (risks, because coefficients in
    weakly determined directions may differ without changing predictions).
    """
    pt = np.asarray(bundle.target_preds, np.float64)
    ps = np.asarray(bundle.source_preds, np.float64)
    m = pt.shape[0]
    flat = pt.reshape(m, -1)
    G = flat @ flat.T / pt.shape[1]
    ys = np.asarray(bundle.source.labels, np.float64).reshape(ps.shape[1:])
    g = np.einsum("knd,nd,n->k", ps, ys, beta) / ps.shape[1]
    c_ref = np.linalg.solve(G + lam * np.eye(m), g)
    yt = np.asarray(bundle.target.oracle_labels, np.float64).reshape(pt.shape[1:])

    def risk(c):
        diff = np.tensordot(c, pt, axes=1) - yt
        return float(np.mean(np.sum(diff * diff, axis=1)))

    r_ref = risk(c_ref)
    return abs(risk(np.asarray(coefficients, np.float64)) - r_ref) <= (
        REFERENCE_RTOL * r_ref
    )


def _read_json(path):
    with open(path, "rb") as fh:
        return json.loads(fh.read())


class Suite:
    """``shiftagg bench`` on the default suite config; one op is one trial.

    Each call runs the same ``--trials``/``--seed``, so every call must
    write the same ``suite.json`` bytes.
    """

    def __init__(self, seed: int, size: str, workdir: str):
        self.ops_per_call = SIZES[size]["suite"]["trials"]
        self.outdir = os.path.join(workdir, "suite")
        self.argv = [
            "bench", "--output", self.outdir,
            "--trials", str(self.ops_per_call),
            "--seed", str(seed),
            "--threads", "1",
        ]
        self.first_bytes: bytes | None = None

    def reset(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    @property
    def steps(self):
        return [lambda: _quiet_main(self.argv)]

    def check(self, outs: list) -> Outcome:
        (rc,) = outs
        n = self.ops_per_call
        if rc != 0:
            return Outcome(n, None)
        with open(os.path.join(self.outdir, "suite.json"), "rb") as fh:
            raw = fh.read()
        if self.first_bytes is None:
            self.first_bytes = raw
        doc = json.loads(raw)
        wins = doc["aggregate"]["win_counts"]["aggregate_oracle_le_best_model"]
        failed = n if raw != self.first_bytes else n - wins
        ratios = [
            row["risk_ratio_vs_oracle"]
            for trial in doc["per_trial"]
            for row in trial["rows"]
            if row["method"] == "aggregate_ulsif"
        ]
        if len(ratios) != n or None in ratios:
            return Outcome(n, None)
        return Outcome(failed, statistics.fmean(ratios))


class CliPipeline:
    """The CLI quick start on an on-disk bundle; one op is one pass:
    ``write_bundle``, then ``estimate-ratio``, ``aggregate --ratio`` and
    ``select --beta``."""

    ops_per_call = 1

    def __init__(self, seed: int, size: str, workdir: str):
        sz = SIZES[size]["cli_pipeline"]
        self.bundle = synth.generate_task(
            synth.SynthTaskConfig(
                n_s=sz["n"], n_t=sz["n"], family_size=sz["m"], seed=seed
            )
        ).bundle
        self.dir = os.path.join(workdir, "cli")
        self.bundle_dir = os.path.join(self.dir, "bundle")
        ratio_dir = os.path.join(self.dir, "ratio")
        self.ratio_json = os.path.join(ratio_dir, "ratio.json")
        self.result_json = os.path.join(self.dir, "agg", "result.json")
        self.comparison_json = os.path.join(self.dir, "sel", "comparison.json")
        self.argvs = [
            ["estimate-ratio", "--input", self.bundle_dir, "--output", ratio_dir,
             "--seed", str(seed)],
            ["aggregate", "--input", self.bundle_dir,
             "--output", os.path.join(self.dir, "agg"), "--ratio", self.ratio_json],
            ["select", "--input", self.bundle_dir,
             "--output", os.path.join(self.dir, "sel"),
             "--beta", os.path.join(ratio_dir, "beta.csv")],
        ]

    def reset(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    @property
    def steps(self):
        # ``data.write_bundle`` is looked up on each call, as in _quiet_main.
        return [lambda: data.write_bundle(self.bundle, self.bundle_dir)] + [
            functools.partial(_quiet_main, argv) for argv in self.argvs
        ]

    def check(self, outs: list) -> Outcome:
        rcs = outs[1:]
        if any(rc != 0 for rc in rcs):
            return Outcome(1, None)
        coefs = np.asarray(_read_json(self.result_json)["coefficients"], np.float64)
        model = ratio.load_ratio_model(self.ratio_json)
        expected = aggregation.run_aggregation(self.bundle, model)
        beta, _ = aggregation.resolve_beta(self.bundle, model)
        rows = {r["method"]: r for r in _read_json(self.comparison_json)["rows"]}
        ratio_vs_oracle = rows["aggregate"]["risk_ratio_vs_oracle"]
        failed = (
            coefs.tobytes() != expected.coefficients.tobytes()
            or not _matches_reference(self.bundle, beta, coefs, expected.tikhonov)
            or ratio_vs_oracle is None
        )
        return Outcome(int(failed), ratio_vs_oracle)


class WideFamily:
    """In-memory aggregation over a wide model family with the analytic
    ratio; one op is ``run_aggregation`` then ``compare_methods``."""

    ops_per_call = 1

    def __init__(self, seed: int, size: str, workdir: str):
        sz = SIZES[size]["wide_family"]
        task = synth.generate_task(
            synth.SynthTaskConfig(
                n_s=sz["n"], n_t=sz["n"], family_size=sz["m"], seed=seed
            )
        )
        self.bundle = task.bundle
        self.beta = ratio.evaluate_ratio(
            task.analytic_ratio, task.bundle.source.features
        )
        self.first_doc: str | None = None

    def reset(self) -> None:
        pass

    @property
    def steps(self):
        return [
            lambda: aggregation.run_aggregation(self.bundle, self.beta),
            lambda: selection.compare_methods(self.bundle, self.beta),
        ]

    def check(self, outs: list) -> Outcome:
        result, report = outs
        doc = serialize.dumps_canonical(
            {"coefficients": result.coefficients, **report.to_json_dict()}
        )
        if self.first_doc is None:
            # Later ops must repeat these bytes, so one reference check serves.
            if not _matches_reference(
                self.bundle, self.beta, result.coefficients, result.tikhonov
            ):
                return Outcome(1, None)
            self.first_doc = doc
        oracle = report.row("aggregate_oracle").true_target_risk
        best = min(
            r.true_target_risk for r in report.rows if r.method.startswith("model:")
        )
        ratio_vs_oracle = report.row("aggregate").risk_ratio_vs_oracle
        failed = (
            doc != self.first_doc
            or oracle is None
            or oracle > best + 1e-9
            or ratio_vs_oracle is None
        )
        return Outcome(int(failed), ratio_vs_oracle)


WORKLOADS = {"suite": Suite, "cli_pipeline": CliPipeline, "wide_family": WideFamily}
