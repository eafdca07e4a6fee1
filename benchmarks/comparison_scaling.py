"""Scaling curve of ``shiftagg.selection.compare_methods`` and of
``shiftagg.aggregation.run_aggregation``, alone and one after the other,
and of ``shiftagg.selection.build_method_rows`` with two weight sources.

At each model count in ``MODEL_COUNTS`` it generates one default synthetic
task (``generate_task`` with ``n_s = n_t = N`` and ``family_size = m``: d1=5,
d2=1, oracle target labels) and evaluates its analytic ratio on the source
sample, as the ``wide_family`` benchmark workload does. Each timing below is
taken ``REPEATS`` times after one untimed warm-up call, with BLAS pinned to
one thread by ``_harness``:

* ``run_aggregation`` and ``compare_methods`` alone, each call on a fresh
  ``dataclasses.replace`` copy of the bundle, so each builds the target
  moments as a first call on a bundle does;
* ``pair_fresh``: ``run_aggregation`` then ``compare_methods`` on a fresh
  copy per call, the in-op saving of the moments kept on the bundle;
* ``pair_reused``: the same two calls on the one bundle, as a
  ``wide_family`` op makes them, whose moments the warm-up built;
* ``rows_two_sources``: ``build_method_rows`` on that reused bundle with
  two weight sources, the analytic weights and uniform ones, as ``bench``
  builds a table with two ratios.

Every copy is made before its call's timer starts. The JSON output holds
every time, the medians, the CPU count and the numpy/BLAS build. Uses the
standard library besides numpy and shiftagg itself, so the same script
times any tree put first on ``PYTHONPATH``, and ``--against`` (see
``_harness``) times two trees in alternating fresh processes.

    PYTHONPATH=src python3 benchmarks/comparison_scaling.py --output BENCH_21.json
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import partial

import _harness  # first: pins BLAS to one thread before numpy loads

import numpy as np
from shiftagg.aggregation import run_aggregation
from shiftagg.ratio import evaluate_ratio
from shiftagg.selection import build_method_rows, compare_methods
from shiftagg.synth import SynthTaskConfig, generate_task

MODEL_COUNTS = (10, 100, 300)
N = 10_000
REPEATS = 50
SEED = 0


def aggregate_then_compare(bundle, beta) -> None:
    """One ``wide_family`` op: ``run_aggregation``, then ``compare_methods``."""
    run_aggregation(bundle, beta)
    compare_methods(bundle, beta)


def rows_two_sources(bundle, beta) -> None:
    """A table with two weight sources: ``beta`` and uniform weights."""
    build_method_rows(bundle, {"analytic": beta, "uniform": np.ones_like(beta)}, None)


def fresh_copy(bundle, beta):
    return replace(bundle), beta


def time_point(m: int) -> dict:
    task = generate_task(SynthTaskConfig(n_s=N, n_t=N, family_size=m, seed=SEED))
    bundle = task.bundle
    beta = evaluate_ratio(task.analytic_ratio, bundle.source.features)
    row = {"m": m, "n": N}
    for name, fn, fresh in (
        ("run_aggregation", run_aggregation, fresh_copy),
        ("compare_methods", compare_methods, fresh_copy),
        ("pair_fresh", aggregate_then_compare, fresh_copy),
        ("pair_reused", aggregate_then_compare, None),
        ("rows_two_sources", rows_two_sources, None),
    ):
        times, median = _harness.median_time(
            fn, bundle, beta, repeats=REPEATS, fresh=fresh
        )
        row[f"{name}_times_s"] = times
        row[f"{name}_median_s"] = median
    print(
        f"m={m} n={N}: "
        + ", ".join(
            f"{name} {row[f'{name}_median_s']:.4f} s"
            for name in (
                "run_aggregation", "compare_methods", "pair_fresh", "pair_reused",
                "rows_two_sources",
            )
        ),
        file=sys.stderr,
    )
    return row


def curves() -> dict:
    return {"comparison": [partial(time_point, m) for m in MODEL_COUNTS]}


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "run_aggregation and compare_methods with the analytic ratio, alone "
            "and in sequence, on fresh and reused bundles; build_method_rows "
            "with two weight sources on the reused bundle",
            {"d1": 5, "d2": 1, "seed": SEED},
            REPEATS,
            curves,
        )
    )
