"""Pieces shared by the ``benchmarks/*_scaling.py`` scripts.

Importing this module pins BLAS to one thread, so the scripts import it
before numpy (the pin must be set before numpy loads, as in
``perfbench/run.py``). ``median_time`` times a call after one untimed
warm-up, optionally on fresh arguments per call. A script hands ``main`` a
function returning its curves, ``{key: [point, ...]}``, each point a
zero-argument callable that times one size and returns its row. ``main``
parses ``--output``, builds the curves and writes them as JSON together
with the CPU count and the numpy/BLAS build.

With ``--against <src dir>``, ``main`` instead times every point on two
trees: this repository's ``src`` and the given one. Each point runs
``ROUNDS`` times per tree, each run in a fresh process with that tree
first on ``PYTHONPATH``; the two trees alternate, and so does which of them
goes first in a round. Each run's ``*median_s`` values are divided by a
calibration (``perfbench/calibrate.py``) taken right before and after the
point in the same process, as perfbench does, so host-speed drift between
runs cancels; ``*median_mb`` values (memory sizes) are taken as they are.
Per point and value the output holds both trees' medians and quartiles,
and in how many rounds each tree's value was the lower:

    PYTHONPATH=src python3 benchmarks/comparison_scaling.py \\
        --output BENCH_22.json --against ../parent/src
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

ROOT = pathlib.Path(__file__).resolve().parents[1]
# Runs per point and tree with --against: ten pairs, as perfbench claims need.
ROUNDS = 10


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


def _run_point(curves, key: str, index: str) -> int:
    """Time one point between two calibrations; print the row as JSON."""
    sys.path.append(str(ROOT))
    import shiftagg
    from perfbench.calibrate import Calibrator

    point = curves()[key][int(index)]
    cal = Calibrator()
    cal()  # warm-up: the calibration's own first-call costs
    before = cal()
    row = point()
    after = cal()
    json.dump(
        {
            "row": row,
            "calibration_s": [before, after],
            "shiftagg": str(pathlib.Path(shiftagg.__file__).resolve().parent),
        },
        sys.stdout,
    )
    return 0


def tree_env(src: pathlib.Path) -> dict:
    """The environment of a child process that imports ``shiftagg`` from the
    tree ``src``: this one's, with ``src`` first on ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_in_child(script: str, src: pathlib.Path, key: str, index: int) -> dict:
    done = subprocess.run(
        [sys.executable, script, "--point", key, str(index)],
        env=tree_env(src),
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{key}[{index}] on {src} failed:\n{done.stderr}")
    run = json.loads(done.stdout)
    imported = run.pop("shiftagg")
    if imported != str(src / "shiftagg"):
        raise SystemExit(f"{key}[{index}] imported {imported}, not {src}")
    return run


def _pair(script: str, trees: dict, key: str, index: int) -> dict:
    """Both trees' runs of one point, alternating, and their summary."""
    runs = {side: [] for side in trees}
    for r in range(ROUNDS):
        for side in list(trees)[:: 1 if r % 2 == 0 else -1]:
            runs[side].append(_run_in_child(script, trees[side], key, index))

    from perfbench.calibrate import Calibrator

    def value(run, name):
        if name.endswith("median_mb"):  # a memory size, left as measured
            return run["row"][name]
        return Calibrator.normalised(run["row"][name], *run["calibration_s"])

    summary = {}
    names = [k for k in runs["src"][0]["row"] if k.endswith(("median_s", "median_mb"))]
    for name in names:
        values = {
            side: [value(run, name) for run in side_runs]
            for side, side_runs in runs.items()
        }
        src_wins = sum(a < b for a, b in zip(values["src"], values["against"]))
        against_wins = sum(b < a for a, b in zip(values["src"], values["against"]))
        summary[name] = {"wins": {"src": src_wins, "against": against_wins}}
        for side, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4, method="inclusive")
            summary[name][side] = {"median": median, "q1": q1, "q3": q3, "values": v}
        unit = "MB" if name.endswith("_mb") else "s"
        print(
            f"{key}[{index}] {name}: src {summary[name]['src']['median']:.4g} "
            f"{unit}, against {summary[name]['against']['median']:.4g} {unit} "
            f"(medians), src lower in {src_wins} of {ROUNDS}",
            file=sys.stderr,
        )
    for side_runs in runs.values():
        for run in side_runs:
            run["row"] = {k: v for k, v in run["row"].items() if not k.endswith("times_s")}
    return {"summary": summary, "runs": runs}


def main(description, benchmark, inputs, repeats, curves, argv=None):
    """Write ``{benchmark, inputs, repeats, <machine>, key: rows, ...}`` for
    each ``key: points`` of ``curves()``, in that order, to the ``--output``
    file; with ``--against``, each key holds one pair per point instead of
    one row. Returns the exit code."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--output", help="JSON file to write (required)")
    p.add_argument(
        "--against",
        metavar="SRC",
        help="another tree's src directory: time each point on both trees, "
        "alternating, each run in a fresh process between two calibrations",
    )
    p.add_argument("--point", nargs=2, metavar=("KEY", "INDEX"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.point is not None:
        return _run_point(curves, *args.point)
    if args.output is None:
        p.error("--output is required")

    if args.against is None:
        built = {key: [point() for point in points] for key, points in curves().items()}
    else:
        sys.path.append(str(ROOT))
        trees = {
            "src": ROOT / "src",
            "against": pathlib.Path(args.against).resolve(),
        }
        script = str(pathlib.Path(sys.modules["__main__"].__file__).resolve())
        built = {
            "trees": {"src": "src", "against": args.against},
            "rounds": ROUNDS,
            **{
                key: [
                    _pair(script, trees, key, index)
                    for index in range(len(points))
                ]
                for key, points in curves().items()
            },
        }
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
