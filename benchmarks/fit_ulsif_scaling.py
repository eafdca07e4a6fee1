"""Scaling curves of ``shiftagg.ratio.fit_ulsif`` and its width heuristic.

Times one default-config fit (5 widths x 4 ridges x 5 folds, 100 centers)
at each size in ``SIZES`` on seeded synthetic inputs: source ``N(0, I)``
and target ``N((0.5, 0, ...), I)`` in 5 dimensions, ``n_s = n_t = n``, as
in the default bench suite. Before the fits, and so in a process whose
heap no fit has grown, it times ``_median_pairwise_distance`` on the pooled
sample at each pooled size in ``POOLED`` (above ``ratio._WIDTH_SAMPLE``,
300 rows, it draws 300; the sizes 300 and 301 bracket that draw).
Each point is timed ``REPEATS`` times after one untimed warm-up call, with
BLAS pinned to one thread by ``_harness``; then ``REPEATS`` more untimed
calls give the minor page faults per call, from this process's
``resource.getrusage(RUSAGE_SELF).ru_minflt``. Each fit size also records
the grid cell its cross-validation chose, as ``chosen_cell`` =
``[width_index, ridge_index]``, and the sha256 of the bytes of the fitted
``alpha`` and of the float64 score grid (NaN where a cell was refused), as
``alpha_sha256`` and ``scores_sha256``, so two runs can show they fit the
same model bit for bit. The JSON output holds every time, the median, the
faults, the chosen cells and digests, the CPU count and the numpy/BLAS
build. Uses the standard library besides numpy and shiftagg itself.

    PYTHONPATH=src python3 benchmarks/fit_ulsif_scaling.py --output BENCH_25.json
"""

from __future__ import annotations

import hashlib
import resource
import sys
from functools import partial

import _harness  # first: pins BLAS to one thread before numpy loads
import numpy as np

from shiftagg import ratio
from shiftagg.ratio import RatioFitConfig, fit_ulsif

SIZES = (500, 5000, 20000)
POOLED = (300, 301, 1000, 10000)
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


def _faults_per_call(fn, *args) -> float:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        fn(*args)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / REPEATS


def _point(key: str, n: int, fn, *args) -> dict:
    times, median = _harness.median_time(fn, *args, repeats=REPEATS)
    faults = _faults_per_call(fn, *args)
    print(f"{key} n={n}: median {median:.4f} s, {faults:.0f} faults", file=sys.stderr)
    return {
        "n": n,
        "times_s": times,
        "median_s": median,
        "minor_faults_per_call": faults,
    }


def width_point(n: int) -> dict:
    pooled = np.vstack(_inputs((n + 1) // 2))[:n]
    rng = ratio._rng(SEED)  # each call draws on, as one fit's would
    return _point("width", n, ratio._median_pairwise_distance, pooled, rng)


def fit_point(n: int) -> dict:
    cfg = RatioFitConfig(seed=SEED)
    xs, xt = _inputs(n)
    row = _point("fit_ulsif", n, fit_ulsif, xs, xt, cfg)
    model = fit_ulsif(xs, xt, cfg)
    cv = model.cv
    scores = np.array(cv["scores"], dtype=np.float64)
    row["chosen_cell"] = [cv["width_index"], cv["ridge_index"]]
    row["alpha_sha256"] = hashlib.sha256(model.alpha.tobytes()).hexdigest()
    row["scores_sha256"] = hashlib.sha256(scores.tobytes()).hexdigest()
    return row


def curves() -> dict:
    return {
        "median_pairwise_distance": [partial(width_point, n) for n in POOLED],
        "fit_ulsif": [partial(fit_point, n) for n in SIZES],
    }


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "fit_ulsif default config and its median pairwise distance",
            {"dim": DIM, "shift": SHIFT, "seed": SEED},
            REPEATS,
            curves,
        )
    )
