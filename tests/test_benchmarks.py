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
# keys of the curves its ``curves()`` returns.
TINY = {
    "bundle_io_scaling": (
        {"SIZES": (40,), "CSV_SIZES": (40,), "M": 2, "WIDE": (3, 40),
         "ESTIMATES": ((2, 40),)},
        ["bundle_io", "write_csv", "bundle_write_wide", "estimate_ratio"],
    ),
    "comparison_scaling": ({"MODEL_COUNTS": (2,), "N": 40}, ["comparison"]),
    "fit_logistic_scaling": ({"SIZES": (40,)}, ["fit_logistic_ratio"]),
    "fit_ulsif_scaling": (
        {"SIZES": (40,), "POOLED": (80,)}, ["median_pairwise_distance", "fit_ulsif"]
    ),
    "gram_scaling": ({"MODEL_COUNTS": (2,), "SIZES": (40,)}, ["moments"]),
    "startup_scaling": ({}, ["import_cli", "aggregate_ratio"]),
}


def _tiny(script: str) -> list[str]:
    """Lines that import ``script`` and shrink it to its tiny size."""
    consts, _ = TINY[script]
    return [
        f"import {script} as bench",
        *(f"bench.{k} = {v!r}" for k, v in {**consts, "REPEATS": 1}.items()),
    ]


def _env() -> dict:
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(BENCHMARKS), str(ROOT / "src")]),
    }


def test_every_script_has_a_tiny_run():
    assert sorted(p.stem for p in BENCHMARKS.glob("*_scaling.py")) == sorted(TINY)


def _bytes_against(code: list[str], *args) -> object:
    """Run ``code`` with ``bytes_against`` imported as ``bench`` and its
    ``bench`` runs shrunk to two trials; return what it prints, as JSON."""
    lines = ["import json, pathlib, sys", "import bytes_against as bench",
             "bench.TRIALS = 2", *code]
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(lines), *map(str, args)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bytes_against_finds_the_tree_identical_to_itself(tmp_path):
    src = ROOT / "src"
    report = _bytes_against(
        ["p = pathlib.Path",
         "print(json.dumps(bench.run(p(sys.argv[1]), p(sys.argv[1]), p(sys.argv[2]))))"],
        src, tmp_path,
    )
    names = [name for name, _, _ in report]
    for name in ("bench_1/suite.json", "bench_2/task_001/arrays.npz",
                 "ratio_logistic/ratio.json", "aggregate_oracle/result.json",
                 "select_none.stdout", "probe.json"):
        assert name in names
    assert {status for _, status, _ in report} == {"identical"}

    # One changed coefficient digit, one removed key and one cut CSV.
    other = tmp_path / "against"
    result = other / "aggregate_ratio" / "result.json"
    text = result.read_text()
    digits = repr(json.loads(text)["coefficients"][1])
    assert text.count(digits) == 1 and digits[-1].isdigit()
    result.write_text(text.replace(digits, digits[:-1] + str(9 - int(digits[-1]))))
    comparison = other / "select_none" / "comparison.json"
    doc = json.loads(comparison.read_text())
    del doc["inputs"]
    comparison.write_text(json.dumps(doc))
    beta = other / "ratio_ulsif" / "beta.csv"
    beta.write_bytes(beta.read_bytes()[:-2])
    report = _bytes_against(
        ["p = pathlib.Path",
         "print(json.dumps(bench.compare(p(sys.argv[1]), p(sys.argv[2]))))"],
        tmp_path / "src", other,
    )
    changed = {name: (status, detail) for name, status, detail in report
               if status != "identical"}
    assert set(changed) == {
        "aggregate_ratio/result.json", "select_none/comparison.json",
        "ratio_ulsif/beta.csv",
    }
    status, detail = changed["aggregate_ratio/result.json"]
    assert status == "values" and detail.startswith("coefficients[1]; largest")
    assert changed["select_none/comparison.json"] == ("keys", "+inputs")
    assert changed["ratio_ulsif/beta.csv"][0] == "bytes"


@pytest.mark.parametrize("script", sorted(TINY))
def test_curves_run_at_a_tiny_size(script, tmp_path):
    code = "\n".join(
        [
            "import json",
            *_tiny(script),
            "curves = bench.curves()",
            "print(json.dumps({k: [point() for point in v] for k, v in curves.items()}))",
        ]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert list(rows) == TINY[script][1]
    assert all(len(r) == 1 for r in rows.values())


def test_against_pairs_alternating_runs(tmp_path):
    # Each run is a fresh process of this wrapper, so it shrinks the script
    # there too; the repository's own src is on both sides.
    wrapper = tmp_path / "tiny_comparison.py"
    wrapper.write_text(
        "\n".join(
            [
                *_tiny("comparison_scaling"),
                "import _harness",
                "_harness.ROUNDS = 2",
                "raise SystemExit(_harness.main('tiny', 'tiny', {}, 1, bench.curves))",
            ]
        )
        + "\n"
    )
    out = tmp_path / "pair.json"
    done = subprocess.run(
        [sys.executable, str(wrapper), "--output", str(out),
         "--against", str(ROOT / "src")],
        env=_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["rounds"] == 2
    assert doc["trees"] == {"src": "src", "against": str(ROOT / "src")}
    (pair,) = doc["comparison"]
    assert set(pair["summary"]) == {
        f"{name}_median_s"
        for name in ("run_aggregation", "compare_methods", "pair_fresh", "pair_reused",
                     "rows_two_sources")
    }
    for stats in pair["summary"].values():
        assert sum(stats["wins"].values()) <= 2
        for side in ("src", "against"):
            assert len(stats[side]["values"]) == 2
            assert stats[side]["q1"] <= stats[side]["median"] <= stats[side]["q3"]
    for side_runs in pair["runs"].values():
        assert [run["row"]["m"] for run in side_runs] == [2, 2]
        assert all(len(run["calibration_s"]) == 2 for run in side_runs)
