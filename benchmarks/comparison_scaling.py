"""Scaling curve of ``shiftagg.selection.compare_methods`` and of
``shiftagg.aggregation.run_aggregation``.

At each model count in ``MODEL_COUNTS`` it generates one default synthetic
task (``generate_task`` with ``n_s = n_t = N`` and ``family_size = m``: d1=5,
d2=1, oracle target labels) and evaluates its analytic ratio on the source
sample, as the ``wide_family`` benchmark workload does. ``run_aggregation``
and ``compare_methods`` with those weights are then timed ``REPEATS`` times
each, after one untimed warm-up call, with BLAS pinned to one thread by
``_harness``. The JSON output holds every time, the medians, the CPU count
and the numpy/BLAS build. Uses the standard library besides numpy and
shiftagg itself, so the same script times any tree put first on
``PYTHONPATH``.

    PYTHONPATH=src python3 benchmarks/comparison_scaling.py --output BENCH_17.json
"""

from __future__ import annotations

import sys

import _harness  # first: pins BLAS to one thread before numpy loads

from shiftagg.aggregation import run_aggregation
from shiftagg.ratio import evaluate_ratio
from shiftagg.selection import compare_methods
from shiftagg.synth import SynthTaskConfig, generate_task

MODEL_COUNTS = (10, 100, 300)
N = 10_000
REPEATS = 50
SEED = 0


def time_point(m: int) -> dict:
    task = generate_task(SynthTaskConfig(n_s=N, n_t=N, family_size=m, seed=SEED))
    bundle = task.bundle
    beta = evaluate_ratio(task.analytic_ratio, bundle.source.features)
    row = {"m": m, "n": N}
    for name, fn in (
        ("run_aggregation", run_aggregation),
        ("compare_methods", compare_methods),
    ):
        times, median = _harness.median_time(fn, bundle, beta, repeats=REPEATS)
        row[f"{name}_times_s"] = times
        row[f"{name}_median_s"] = median
    print(
        f"m={m} n={N}: run_aggregation {row['run_aggregation_median_s']:.4f} s, "
        f"compare_methods {row['compare_methods_median_s']:.4f} s",
        file=sys.stderr,
    )
    return row


def curve() -> list[dict]:
    return [time_point(m) for m in MODEL_COUNTS]


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "compare_methods and run_aggregation with the analytic ratio",
            {"d1": 5, "d2": 1, "seed": SEED},
            REPEATS,
            {"comparison": curve},
        )
    )
