"""Tests of the benchmark itself: span arithmetic, the run contract, and a
tiny-size smoke run of every workload, untraced and traced."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.spans import PER_LAYER_UNITS, Span, Tracer, self_times, uninstall

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "a.child", 2.0, 3.0, 1),
        Span(3, "b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_normalising_cancels_a_uniform_slowdown():
    from perfbench.calibrate import REFERENCE_S, Calibrator

    at_reference = Calibrator.normalised(2.0, REFERENCE_S, REFERENCE_S)
    assert at_reference == 2.0
    # The host runs 30% slower: the step and both calibrations take longer.
    slow = Calibrator.normalised(2.6, 1.3 * REFERENCE_S, 1.3 * REFERENCE_S)
    assert abs(slow - at_reference) < 1e-12


def test_reference_check_rejects_perturbed_coefficients():
    from shiftagg import aggregation

    from perfbench.workloads import WideFamily, _matches_reference

    wl = WideFamily(3, "tiny", "")
    res = aggregation.run_aggregation(wl.bundle, wl.beta)
    assert _matches_reference(wl.bundle, wl.beta, res.coefficients, res.tikhonov)
    assert not _matches_reference(
        wl.bundle, wl.beta, res.coefficients * 1.001, res.tikhonov
    )


def test_install_rebinds_every_holder_and_uninstall_restores():
    import shiftagg
    from shiftagg import aggregation, cli, data, selection, serialize, synth

    originals = (data.read_csv, serialize.read_csv, selection.run_aggregation,
                 aggregation.run_aggregation, synth.build_method_rows, cli.main,
                 shiftagg.compute_gram)
    tracer = Tracer()
    undo = tracer.install()
    try:
        assert data.read_csv is serialize.read_csv
        assert data.read_csv is not originals[0]
        assert selection.run_aggregation is aggregation.run_aggregation
        assert shiftagg.compute_gram is aggregation.compute_gram
        assert synth.build_method_rows.__wrapped__ is originals[4]
    finally:
        uninstall(undo)
    assert (data.read_csv, serialize.read_csv, selection.run_aggregation,
            aggregation.run_aggregation, synth.build_method_rows, cli.main,
            shiftagg.compute_gram) == originals


def test_benchmark_json_matches_the_runner():
    doc = _bench_json()
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    from perfbench.run import END_TO_END_UNITS

    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", ["suite", "cli_pipeline", "wide_family"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _bench_json()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
