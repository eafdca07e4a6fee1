"""Scaling curve of ``shiftagg.data.write_bundle`` and ``load_bundle``.

Writes and loads the bundle of one default synthetic task (``generate_task``
with ``family_size=M``: d1=5, d2=1, features on both samples, oracle target
labels) at each size in ``SIZES`` (``n_s = n_t = n``). Each size is timed
``REPEATS`` times, a write followed by a load of the same directory, after
one untimed warm-up pair, with BLAS pinned to one thread (set before numpy
loads, as in ``perfbench/run.py``). Every load is checked to equal the
written bundle. The JSON output holds every time, the medians, the bundle's
size on disk, the CPU count and the numpy/BLAS build. Uses the standard
library besides numpy and shiftagg itself.

    PYTHONPATH=src python3 benchmarks/bundle_io_scaling.py --output BENCH_4.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

from shiftagg.data import load_bundle, write_bundle  # noqa: E402
from shiftagg.synth import SynthTaskConfig, generate_task  # noqa: E402

SIZES = (5000, 20000)
M = 20
REPEATS = 5
SEED = 0


def _blas_build() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
        for k in ("blas", "lapack")
        if k in deps
    }


def time_io(n: int, workdir: str) -> dict:
    bundle = generate_task(
        SynthTaskConfig(n_s=n, n_t=n, family_size=M, seed=SEED)
    ).bundle
    path = os.path.join(workdir, f"bundle_{n}")
    write_bundle(bundle, path)  # warm-up: imports, allocator, page cache
    load_bundle(path)
    writes, loads = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        write_bundle(bundle, path)
        t1 = time.perf_counter()
        loaded = load_bundle(path)
        t2 = time.perf_counter()
        if loaded != bundle:
            raise SystemExit(f"n={n}: the loaded bundle differs from the written one")
        writes.append(t1 - t0)
        loads.append(t2 - t1)
    with os.scandir(path) as it:
        size = sum(e.stat().st_size for e in it if e.is_file())
    return {
        "n": n,
        "d1": bundle.source.features.shape[1],
        "d2": bundle.label_dim,
        "bytes": size,
        "write_times_s": writes,
        "load_times_s": loads,
        "write_median_s": statistics.median(writes),
        "load_median_s": statistics.median(loads),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--output", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    curve = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in SIZES:
            row = time_io(n, workdir)
            print(
                f"bundle m={M} n={n}: write {row['write_median_s']:.4f} s, "
                f"load {row['load_median_s']:.4f} s (medians)",
                file=sys.stderr,
            )
            curve.append(row)
    doc = {
        "benchmark": "write_bundle and load_bundle of a default synthetic task",
        "inputs": {"m": M, "seed": SEED},
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "bundle_io": curve,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
