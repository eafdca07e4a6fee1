"""Smoke runs of the ``benchmarks/*_scaling.py`` scripts that write the
``BENCH_*.json`` files, so an API change cannot break them unseen."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
BENCHMARKS = ROOT / "benchmarks"

# Per script: the module constants that shrink it to a tiny size, and the
# curve functions its ``__main__`` builds.
TINY = {
    "bundle_io_scaling": (
        {"SIZES": (40,), "CSV_SIZES": (40,), "M": 2}, ["curve", "csv_curve"]
    ),
    "comparison_scaling": ({"MODEL_COUNTS": (2,), "N": 40}, ["curve"]),
    "fit_logistic_scaling": ({"SIZES": (40,)}, ["fit_curve"]),
    "fit_ulsif_scaling": (
        {"SIZES": (40,), "POOLED": (80,)}, ["width_curve", "fit_curve"]
    ),
    "gram_scaling": ({"MODEL_COUNTS": (2,), "SIZES": (40,)}, ["curve"]),
}


def test_every_script_has_a_tiny_run():
    assert sorted(p.stem for p in BENCHMARKS.glob("*_scaling.py")) == sorted(TINY)


@pytest.mark.parametrize("script", sorted(TINY))
def test_curves_run_at_a_tiny_size(script, tmp_path):
    consts, curves = TINY[script]
    code = "\n".join(
        [
            "import json",
            f"import {script} as bench",
            *(f"bench.{k} = {v!r}" for k, v in {**consts, "REPEATS": 1}.items()),
            f"print(json.dumps({{c: getattr(bench, c)() for c in {curves!r}}}))",
        ]
    )
    path = os.pathsep.join([str(BENCHMARKS), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert all(len(rows[c]) == 1 for c in curves)
