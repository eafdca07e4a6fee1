"""Scaling curves of ``shiftagg.aggregation``'s moment and risk kernels.

Times ``compute_gram``, ``compute_g_vector`` and ``model_risks`` (plain and
weighted) at every ``(m, n)`` in ``MODEL_COUNTS`` x ``SIZES``
with ``d2 = 1``, on seeded standard-normal predictions and labels and
uniform ``[0, 3)`` weights. Each point is timed ``REPEATS`` times after one
untimed warm-up call, with BLAS pinned to one thread by ``_harness``; the
JSON output holds every time, the medians, the CPU count and the
numpy/BLAS build. Uses the standard library besides numpy and shiftagg
itself.

    PYTHONPATH=src python3 benchmarks/gram_scaling.py --output BENCH_12.json
"""

from __future__ import annotations

import sys
from functools import partial

import _harness  # first: pins BLAS to one thread before numpy loads
import numpy as np

from shiftagg.aggregation import compute_g_vector, compute_gram, model_risks

MODEL_COUNTS = (10, 100, 300)
SIZES = (1_000, 10_000, 100_000)
D2 = 1
REPEATS = 5
SEED = 0


def _inputs(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(SEED))
    preds = rng.standard_normal((m, n, D2))
    labels = rng.standard_normal((n, D2))
    return preds, labels, rng.uniform(0.0, 3.0, n)


def time_point(m: int, n: int) -> dict:
    preds, labels, beta = _inputs(m, n)
    row = {"m": m, "n": n}
    for name, fn, args in (
        ("compute_gram", compute_gram, (preds,)),
        ("compute_g_vector", compute_g_vector, (preds, labels, beta)),
        ("model_risks", model_risks, (preds, labels)),
        ("model_risks_weighted", model_risks, (preds, labels, beta)),
    ):
        times, median = _harness.median_time(fn, *args, repeats=REPEATS)
        row[f"{name}_times_s"] = times
        row[f"{name}_median_s"] = median
    medians = ", ".join(
        f"{k[:-len('_median_s')]} {v:.4f} s"
        for k, v in row.items()
        if k.endswith("_median_s")
    )
    print(f"m={m} n={n}: {medians}", file=sys.stderr)
    return row


def curves() -> dict:
    return {
        "moments": [partial(time_point, m, n) for m in MODEL_COUNTS for n in SIZES]
    }


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "compute_gram, compute_g_vector and model_risks",
            {"d2": D2, "seed": SEED},
            REPEATS,
            curves,
        )
    )
