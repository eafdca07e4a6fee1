"""Scaling curve of ``shiftagg.ratio.fit_ulsif`` with the default config.

Times one default-config fit (5 widths x 4 ridges x 5 folds, 100 centers)
at each size in ``SIZES`` on seeded synthetic inputs: source ``N(0, I)``
and target ``N((0.5, 0, ...), I)`` in 5 dimensions, ``n_s = n_t = n``, as
in the default bench suite. Each size is timed ``REPEATS`` times after one
untimed warm-up fit, with BLAS pinned to one thread by ``_harness``; the
JSON output holds every time, the median, the CPU count and the numpy/BLAS
build. Uses the standard library besides numpy and shiftagg itself.

    PYTHONPATH=src python3 benchmarks/fit_ulsif_scaling.py --output BENCH_3.json
"""

from __future__ import annotations

import sys

import _harness  # first: pins BLAS to one thread before numpy loads
import numpy as np

from shiftagg.ratio import RatioFitConfig, fit_ulsif

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


def time_fits(n: int) -> dict:
    xs, xt = _inputs(n)
    cfg = RatioFitConfig(seed=SEED)
    times, median = _harness.median_time(fit_ulsif, xs, xt, cfg, repeats=REPEATS)
    return {"n": n, "times_s": times, "median_s": median}


def curve() -> list[dict]:
    rows = []
    for n in SIZES:
        rows.append(time_fits(n))
        print(f"fit_ulsif n={n}: median {rows[-1]['median_s']:.4f} s", file=sys.stderr)
    return rows


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "fit_ulsif default config",
            {"dim": DIM, "shift": SHIFT, "seed": SEED},
            REPEATS,
            "fit_ulsif",
            curve,
        )
    )
