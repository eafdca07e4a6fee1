"""Scaling curve of ``shiftagg.data.write_bundle`` and ``load_bundle``.

Writes and loads the bundle of one default synthetic task (``generate_task``
with ``family_size=M``: d1=5, d2=1, features on both samples, oracle target
labels) at each size in ``SIZES`` (``n_s = n_t = n``). At each size the
write and then the load of the same directory are timed ``REPEATS`` times
each, after one untimed warm-up call, with BLAS pinned to one thread by
``_harness``. The loaded bundle is checked to equal the written one. The
JSON output holds every time, the medians, the bundle's size on disk, the
CPU count and the numpy/BLAS build. Uses the standard library besides
numpy and shiftagg itself.

    PYTHONPATH=src python3 benchmarks/bundle_io_scaling.py --output BENCH_4.json
"""

from __future__ import annotations

import os
import sys
import tempfile

import _harness  # first: pins BLAS to one thread before numpy loads

from shiftagg.data import load_bundle, write_bundle
from shiftagg.synth import SynthTaskConfig, generate_task

SIZES = (5000, 20000)
M = 20
REPEATS = 5
SEED = 0


def time_io(n: int, workdir: str) -> dict:
    bundle = generate_task(
        SynthTaskConfig(n_s=n, n_t=n, family_size=M, seed=SEED)
    ).bundle
    path = os.path.join(workdir, f"bundle_{n}")
    writes, write_median = _harness.median_time(
        write_bundle, bundle, path, repeats=REPEATS
    )
    loads, load_median = _harness.median_time(load_bundle, path, repeats=REPEATS)
    if load_bundle(path) != bundle:
        raise SystemExit(f"n={n}: the loaded bundle differs from the written one")
    with os.scandir(path) as it:
        size = sum(e.stat().st_size for e in it if e.is_file())
    return {
        "n": n,
        "d1": bundle.source.features.shape[1],
        "d2": bundle.label_dim,
        "bytes": size,
        "write_times_s": writes,
        "load_times_s": loads,
        "write_median_s": write_median,
        "load_median_s": load_median,
    }


def curve() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in SIZES:
            row = time_io(n, workdir)
            print(
                f"bundle m={M} n={n}: write {row['write_median_s']:.4f} s, "
                f"load {row['load_median_s']:.4f} s (medians)",
                file=sys.stderr,
            )
            rows.append(row)
    return rows


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "write_bundle and load_bundle of a default synthetic task",
            {"m": M, "seed": SEED},
            REPEATS,
            "bundle_io",
            curve,
        )
    )
