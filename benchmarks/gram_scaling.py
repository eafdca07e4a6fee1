"""Scaling curves of ``shiftagg.aggregation.compute_gram`` and ``compute_g_vector``.

Times both kernels at every ``(m, n)`` in ``MODEL_COUNTS`` x ``SIZES``
with ``d2 = 1``, on seeded standard-normal predictions and labels and
uniform ``[0, 3)`` weights. Each point is timed ``REPEATS`` times after one
untimed warm-up call, with BLAS pinned to one thread by ``_harness``; the
JSON output holds every time, the medians, the CPU count and the
numpy/BLAS build. Uses the standard library besides numpy and shiftagg
itself.

    PYTHONPATH=src python3 benchmarks/gram_scaling.py --output BENCH_5.json
"""

from __future__ import annotations

import sys

import _harness  # first: pins BLAS to one thread before numpy loads
import numpy as np

from shiftagg.aggregation import compute_g_vector, compute_gram

MODEL_COUNTS = (10, 100, 300)
SIZES = (1_000, 10_000, 100_000)
D2 = 1
REPEATS = 3
SEED = 0


def _inputs(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(SEED))
    preds = rng.standard_normal((m, n, D2))
    labels = rng.standard_normal((n, D2))
    return preds, labels, rng.uniform(0.0, 3.0, n)


def time_point(m: int, n: int) -> dict:
    preds, labels, beta = _inputs(m, n)
    gram_times, gram_median = _harness.median_time(
        compute_gram, preds, repeats=REPEATS
    )
    g_times, g_median = _harness.median_time(
        compute_g_vector, preds, labels, beta, repeats=REPEATS
    )
    return {
        "m": m,
        "n": n,
        "compute_gram_times_s": gram_times,
        "compute_gram_median_s": gram_median,
        "compute_g_vector_times_s": g_times,
        "compute_g_vector_median_s": g_median,
    }


def curve() -> list[dict]:
    rows = []
    for m in MODEL_COUNTS:
        for n in SIZES:
            row = time_point(m, n)
            print(
                f"m={m} n={n}: compute_gram {row['compute_gram_median_s']:.4f} s, "
                f"compute_g_vector {row['compute_g_vector_median_s']:.4f} s",
                file=sys.stderr,
            )
            rows.append(row)
    return rows


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "compute_gram and compute_g_vector",
            {"d2": D2, "seed": SEED},
            REPEATS,
            "moments",
            curve,
        )
    )
