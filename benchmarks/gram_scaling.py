"""Scaling curves of ``shiftagg.aggregation.compute_gram`` and ``compute_g_vector``.

Times both kernels at every ``(m, n)`` in ``MODEL_COUNTS`` x ``SIZES``
with ``d2 = 1``, on seeded standard-normal predictions and labels and
uniform ``[0, 3)`` weights. Each point is timed ``REPEATS`` times after one
untimed warm-up call, with BLAS pinned to one thread (set before numpy
loads, as in ``perfbench/run.py``); the JSON output holds every time, the
medians, the CPU count and the numpy/BLAS build. Uses the standard library
besides numpy and shiftagg itself.

    PYTHONPATH=src python3 benchmarks/gram_scaling.py --output BENCH_5.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

from shiftagg.aggregation import compute_g_vector, compute_gram  # noqa: E402

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


def _blas_build() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
        for k in ("blas", "lapack")
        if k in deps
    }


def _median_time(fn, *args) -> tuple[list[float], float]:
    fn(*args)  # warm-up: imports, allocator
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return times, statistics.median(times)


def time_point(m: int, n: int) -> dict:
    preds, labels, beta = _inputs(m, n)
    gram_times, gram_median = _median_time(compute_gram, preds)
    g_times, g_median = _median_time(compute_g_vector, preds, labels, beta)
    return {
        "m": m,
        "n": n,
        "compute_gram_times_s": gram_times,
        "compute_gram_median_s": gram_median,
        "compute_g_vector_times_s": g_times,
        "compute_g_vector_median_s": g_median,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--output", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    curve = []
    for m in MODEL_COUNTS:
        for n in SIZES:
            row = time_point(m, n)
            print(
                f"m={m} n={n}: compute_gram {row['compute_gram_median_s']:.4f} s, "
                f"compute_g_vector {row['compute_g_vector_median_s']:.4f} s",
                file=sys.stderr,
            )
            curve.append(row)
    doc = {
        "benchmark": "compute_gram and compute_g_vector",
        "inputs": {"d2": D2, "seed": SEED},
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "moments": curve,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
