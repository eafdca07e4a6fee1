"""Scaling curves of ``shiftagg.data.write_bundle`` and ``load_bundle``,
of ``shiftagg.serialize.write_csv`` alone, and of ``estimate-ratio``.

Writes and loads the bundle of one default synthetic task (``generate_task``
with ``family_size=M``: d1=5, d2=1, features on both samples, oracle target
labels) at each size in ``SIZES`` (``n_s = n_t = n``). At each size the
write, the load of the same directory, and the load once ``arrays.npz`` is
deleted (every CSV parsed) are timed ``REPEATS`` times each, after one
untimed warm-up call, with BLAS pinned to one thread by ``_harness``. Each
load is checked to equal the written bundle. ``write_csv`` alone is timed
the same way on an ``(n, COLUMNS)`` standard normal float table at each
size in ``CSV_SIZES``, and the file is checked to parse back to the same
bits; its rate counts every cell written, ids included. The write alone
is also timed on the wide bundle ``WIDE`` (``(family_size, n)``, many
one-column model files), and that bundle is checked to load back equal.
``shiftagg estimate-ratio`` is timed in-process (``cli.main``) on the
written bundle of each ``(family_size, n)`` of ``ESTIMATES``, with and without
``arrays.npz``; the two runs must write the same ``ratio.json`` and
``beta.csv``. The JSON output
holds every time, the medians, the directory's size on disk with and
without ``arrays.npz``, the cells per second, the CPU count and the
numpy/BLAS build. Uses the standard library besides numpy and shiftagg
itself. Run against a tree that writes no ``arrays.npz``, both loads parse
the CSVs.

    PYTHONPATH=src python3 benchmarks/bundle_io_scaling.py --output BENCH_14.json
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import sys
import tempfile
from functools import partial

import _harness  # first: pins BLAS to one thread before numpy loads

import numpy as np

from shiftagg import cli
from shiftagg.data import load_bundle, write_bundle
from shiftagg.serialize import read_csv, write_csv
from shiftagg.synth import SynthTaskConfig, generate_task

SIZES = (5000, 20000)
CSV_SIZES = (5000, 20000)
COLUMNS = 7
M = 20
WIDE = (300, 10000)
ESTIMATES = ((M, SIZES[0]), WIDE)  # (family_size, n) of each estimate-ratio point
REPEATS = 5
SEED = 0
SIDECAR = "arrays.npz"


def _dir_bytes(path) -> int:
    with os.scandir(path) as it:
        return sum(e.stat().st_size for e in it if e.is_file())


def time_io(n: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        row = _time_io(n, os.path.join(workdir, f"bundle_{n}"))
    print(
        f"bundle m={M} n={n}: write {row['write_median_s']:.4f} s, "
        f"load {row['load_median_s']:.4f} s, CSV-only load "
        f"{row['csv_load_median_s']:.4f} s (medians)",
        file=sys.stderr,
    )
    return row


def _time_io(n: int, path: str) -> dict:
    bundle = generate_task(
        SynthTaskConfig(n_s=n, n_t=n, family_size=M, seed=SEED)
    ).bundle
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


def time_write_wide(m: int, n: int) -> dict:
    bundle = generate_task(
        SynthTaskConfig(n_s=n, n_t=n, family_size=m, seed=SEED)
    ).bundle
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, f"bundle_{m}_{n}")
        times, median = _harness.median_time(
            write_bundle, bundle, path, repeats=REPEATS
        )
        if load_bundle(path) != bundle:
            raise SystemExit(f"m={m} n={n}: the loaded bundle differs from the written one")
        size = _dir_bytes(path)
    print(f"bundle m={m} n={n}: write {median:.4f} s (median)", file=sys.stderr)
    return {
        "m": m,
        "n": n,
        "bytes": size,
        "write_times_s": times,
        "write_median_s": median,
    }


def time_estimate(m: int, n: int) -> dict:
    bundle = generate_task(
        SynthTaskConfig(n_s=n, n_t=n, family_size=m, seed=SEED)
    ).bundle
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "bundle")
        write_bundle(bundle, path)

        def estimate(out):
            argv = ["estimate-ratio", "--input", path, "--output", out,
                    "--seed", str(SEED)]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                if cli.main(argv) != 0:
                    raise SystemExit(f"m={m} n={n}: estimate-ratio: {err.getvalue()}")

        outs = [os.path.join(workdir, side) for side in ("sidecar", "csv")]
        times, median = _harness.median_time(estimate, outs[0], repeats=REPEATS)
        os.remove(os.path.join(path, SIDECAR))
        csv_times, csv_median = _harness.median_time(estimate, outs[1], repeats=REPEATS)
        for name in ("ratio.json", "beta.csv"):
            if len({pathlib.Path(out, name).read_bytes() for out in outs}) != 1:
                raise SystemExit(f"m={m} n={n}: {name} differs without {SIDECAR}")
    print(
        f"estimate-ratio m={m} n={n}: {median:.4f} s, CSV-only {csv_median:.4f} s "
        "(medians)",
        file=sys.stderr,
    )
    return {
        "m": m,
        "n": n,
        "times_s": times,
        "csv_times_s": csv_times,
        "median_s": median,
        "csv_median_s": csv_median,
    }


def time_write_csv(n: int) -> dict:
    x = np.random.Generator(np.random.Philox(SEED)).standard_normal((n, COLUMNS))
    header = ["id"] + [f"x_{j + 1}" for j in range(COLUMNS)]
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, f"table_{n}.csv")
        times, median = _harness.median_time(
            write_csv, path, header, x, repeats=REPEATS
        )
        if read_csv(path, COLUMNS + 1)[1].tobytes() != x.tobytes():
            raise SystemExit(f"n={n}: the written table does not parse back to its bits")
        size = os.path.getsize(path)
    cells = n * (COLUMNS + 1)
    print(
        f"write_csv ({n}, {COLUMNS}): {median:.4f} s, "
        f"{cells / median:.3g} cells/s (median)",
        file=sys.stderr,
    )
    return {
        "n": n,
        "columns": COLUMNS,
        "cells": cells,
        "bytes": size,
        "times_s": times,
        "median_s": median,
        "cells_per_s": cells / median,
    }


def curves() -> dict:
    return {
        "bundle_io": [partial(time_io, n) for n in SIZES],
        "write_csv": [partial(time_write_csv, n) for n in CSV_SIZES],
        "bundle_write_wide": [partial(time_write_wide, *WIDE)],
        "estimate_ratio": [partial(time_estimate, *mn) for mn in ESTIMATES],
    }


if __name__ == "__main__":
    raise SystemExit(
        _harness.main(
            __doc__.splitlines()[0],
            "write_bundle and load_bundle, with and without arrays.npz, of a "
            "default synthetic task; write_csv of a standard normal table; "
            "write_bundle of a wide task; estimate-ratio in-process on the "
            "estimates' bundles, with and without arrays.npz",
            {"m": M, "seed": SEED, "csv_columns": COLUMNS, "wide": list(WIDE),
             "estimates": [list(mn) for mn in ESTIMATES]},
            REPEATS,
            curves,
        )
    )
