"""Scaling curve of ``shiftagg.data.write_bundle`` and ``load_bundle``.

Writes and loads the bundle of one default synthetic task (``generate_task``
with ``family_size=M``: d1=5, d2=1, features on both samples, oracle target
labels) at each size in ``SIZES`` (``n_s = n_t = n``). At each size the
write, the load of the same directory, and the load once ``arrays.npz`` is
deleted (every CSV parsed) are timed ``REPEATS`` times each, after one
untimed warm-up call, with BLAS pinned to one thread by ``_harness``. Each
load is checked to equal the written bundle. The JSON output holds every
time, the medians, the directory's size on disk with and without
``arrays.npz``, the CPU count and the numpy/BLAS build. Uses the standard
library besides numpy and shiftagg itself. Run against a tree that writes
no ``arrays.npz``, both loads parse the CSVs.

    PYTHONPATH=src python3 benchmarks/bundle_io_scaling.py --output BENCH_11.json
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
SIDECAR = "arrays.npz"


def _dir_bytes(path) -> int:
    with os.scandir(path) as it:
        return sum(e.stat().st_size for e in it if e.is_file())


def time_io(n: int, workdir: str) -> dict:
    bundle = generate_task(
        SynthTaskConfig(n_s=n, n_t=n, family_size=M, seed=SEED)
    ).bundle
    path = os.path.join(workdir, f"bundle_{n}")
    writes, write_median = _harness.median_time(
        write_bundle, bundle, path, repeats=REPEATS
    )
    size = _dir_bytes(path)
    loads, load_median = _harness.median_time(load_bundle, path, repeats=REPEATS)
    if load_bundle(path) != bundle:
        raise SystemExit(f"n={n}: the loaded bundle differs from the written one")
    if os.path.exists(os.path.join(path, SIDECAR)):
        os.remove(os.path.join(path, SIDECAR))
    csv_loads, csv_load_median = _harness.median_time(
        load_bundle, path, repeats=REPEATS
    )
    if load_bundle(path) != bundle:
        raise SystemExit(f"n={n}: the CSV-only load differs from the written one")
    return {
        "n": n,
        "d1": bundle.source.features.shape[1],
        "d2": bundle.label_dim,
        "bytes": size,
        "csv_bytes": _dir_bytes(path),
        "write_times_s": writes,
        "load_times_s": loads,
        "csv_load_times_s": csv_loads,
        "write_median_s": write_median,
        "load_median_s": load_median,
        "csv_load_median_s": csv_load_median,
    }


def curve() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in SIZES:
            row = time_io(n, workdir)
            print(
                f"bundle m={M} n={n}: write {row['write_median_s']:.4f} s, "
                f"load {row['load_median_s']:.4f} s, CSV-only load "
                f"{row['csv_load_median_s']:.4f} s (medians)",
                file=sys.stderr,
            )
            rows.append(row)
    return rows


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "write_bundle and load_bundle, with and without arrays.npz, of a "
            "default synthetic task",
            {"m": M, "seed": SEED},
            REPEATS,
            {"bundle_io": curve},
        )
    )
