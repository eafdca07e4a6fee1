"""Scaling curve of ``shiftagg.ratio.fit_ulsif`` with the default config.

Times one default-config fit (5 widths x 4 ridges x 5 folds, 100 centers)
at each size in ``SIZES`` on seeded synthetic inputs: source ``N(0, I)``
and target ``N((0.5, 0, ...), I)`` in 5 dimensions, ``n_s = n_t = n``, as
in the default bench suite. Each size is timed ``REPEATS`` times after one
untimed warm-up fit, with BLAS pinned to one thread (set before numpy
loads, as in ``perfbench/run.py``); the JSON output holds every time, the
median, the CPU count and the numpy/BLAS build. Uses the standard library
besides numpy and shiftagg itself.

    PYTHONPATH=src python3 benchmarks/fit_ulsif_scaling.py --output BENCH_3.json
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

from shiftagg.ratio import RatioFitConfig, fit_ulsif  # noqa: E402

SIZES = (500, 5000, 20000)
REPEATS = 5
SEED = 0
DIM = 5
SHIFT = 0.5


def _inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(SEED))
    xs = rng.standard_normal((n, DIM))
    xt = rng.standard_normal((n, DIM))
    xt[:, 0] += SHIFT
    return xs, xt


def _blas_build() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
        for k in ("blas", "lapack")
        if k in deps
    }


def time_fits(n: int) -> dict:
    xs, xt = _inputs(n)
    cfg = RatioFitConfig(seed=SEED)
    fit_ulsif(xs, xt, cfg)  # warm-up: imports, allocator
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fit_ulsif(xs, xt, cfg)
        times.append(time.perf_counter() - t0)
    return {"n": n, "times_s": times, "median_s": statistics.median(times)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--output", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    curve = []
    for n in SIZES:
        row = time_fits(n)
        print(f"fit_ulsif n={n}: median {row['median_s']:.4f} s", file=sys.stderr)
        curve.append(row)
    doc = {
        "benchmark": "fit_ulsif default config",
        "inputs": {"dim": DIM, "shift": SHIFT, "seed": SEED},
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "fit_ulsif": curve,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
