"""Scaling curve of ``shiftagg.ratio.fit_logistic_ratio``.

Times one default-config logistic fit (4 ridges x 5 folds of
cross-validation, then the refit) at each size in ``SIZES`` on seeded
synthetic inputs: source ``N(0, I)`` and target ``N((0.5, 0, ...), I)`` in
5 dimensions, ``n_s = n_t = n``, as in the default bench suite. Each size is
timed ``REPEATS`` times after one untimed warm-up call, with BLAS pinned to
one thread by ``_harness``. Each size also records the fitted
``classifier_weights`` (raw feature scale, bias last), so two runs can show
how far apart their models are. The JSON output holds every time, the
median, the weights, the CPU count and the numpy/BLAS build. Uses the
standard library besides numpy and shiftagg itself, so the same script
times any tree put first on ``PYTHONPATH``.

    PYTHONPATH=src python3 benchmarks/fit_logistic_scaling.py --output BENCH_18.json
"""

from __future__ import annotations

import sys
from functools import partial

import _harness  # first: pins BLAS to one thread before numpy loads
import numpy as np

from shiftagg.ratio import RatioFitConfig, fit_logistic_ratio

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


def time_point(n: int) -> dict:
    cfg = RatioFitConfig(seed=SEED)
    xs, xt = _inputs(n)
    times, median = _harness.median_time(
        fit_logistic_ratio, xs, xt, cfg, repeats=REPEATS
    )
    print(f"fit_logistic_ratio n={n}: median {median:.4f} s", file=sys.stderr)
    weights = fit_logistic_ratio(xs, xt, cfg).classifier_weights
    return {
        "n": n,
        "times_s": times,
        "median_s": median,
        "classifier_weights": weights.tolist(),
    }


def curves() -> dict:
    return {"fit_logistic_ratio": [partial(time_point, n) for n in SIZES]}


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "fit_logistic_ratio default config",
            {"dim": DIM, "shift": SHIFT, "seed": SEED},
            REPEATS,
            curves,
        )
    )
