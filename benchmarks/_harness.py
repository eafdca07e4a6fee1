"""Pieces shared by the ``benchmarks/*_scaling.py`` scripts.

Importing this module pins BLAS to one thread, so the scripts import it
before numpy (the pin must be set before numpy loads, as in
``perfbench/run.py``). ``median_time`` times a call after one untimed
warm-up, optionally on fresh arguments per call; ``main`` parses ``--output``, builds the curves and writes them as
JSON together with the CPU count and the numpy/BLAS build.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)


def median_time(fn, *args, repeats: int, fresh=None) -> tuple[list[float], float]:
    """Call ``fn(*args)`` once untimed, then ``repeats`` timed times. With
    ``fresh``, each call gets the arguments ``fresh(*args)`` instead, made
    before its timer starts."""

    def call_args():
        return args if fresh is None else fresh(*args)

    fn(*call_args())  # warm-up: imports, allocator, page cache
    times = []
    for _ in range(repeats):
        a = call_args()
        t0 = time.perf_counter()
        fn(*a)
        times.append(time.perf_counter() - t0)
    return times, statistics.median(times)


def _blas_build() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
        for k in ("blas", "lapack")
        if k in deps
    }


def main(description, benchmark, inputs, repeats, curves, argv=None):
    """Write ``{benchmark, inputs, repeats, <machine>, key: make_curve(), ...}``
    for each ``key: make_curve`` of ``curves``, built in that order, to the
    ``--output`` file; returns the exit code."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--output", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    built = {key: make_curve() for key, make_curve in curves.items()}
    doc = {
        "benchmark": benchmark,
        "inputs": inputs,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        **built,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0
