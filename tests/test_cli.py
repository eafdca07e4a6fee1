"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import functools
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftagg import aggregation, cli, data, selection, synth
from shiftagg.cli import main
from shiftagg.data import (
    PredictionBundle,
    load_bundle,
    write_bundle,
    write_embeddings,
    LayerEmbeddings,
    LayerEmbeddingSet,
)
from shiftagg.serialize import read_csv, write_csv, write_json
from shiftagg.synth import SynthTaskConfig, generate_task
from shiftagg.ratio import RatioFitConfig, analytic_gaussian_ratio, fit_ratio
from shiftagg.ratio import load_ratio_model, save_ratio_model

from conftest import build_bundle, count_weight_scans


@pytest.fixture
def task_dir(tmp_path):
    task = generate_task(SynthTaskConfig(n_s=80, n_t=80, family_size=3, seed=60))
    path = tmp_path / "task"
    write_bundle(task.bundle, path)
    save_ratio_model(task.analytic_ratio, path / "analytic_ratio.json")
    return path


class TestEstimateRatio:
    def test_writes_model_and_weights(self, task_dir, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        scans = count_weight_scans(monkeypatch)
        code = main(
            ["estimate-ratio", "--input", str(task_dir), "--output", str(out),
             "--seed", "5"]
        )
        assert code == 0
        assert scans == [80]  # one record serves the file and the warnings
        assert (out / "ratio.json").is_file()
        header, rows = read_csv(out / "beta.csv", 2)
        assert header == ["id", "beta"]
        assert len(rows) == 80

    def test_missing_features_exit_2(self, tmp_path, capsys):
        bundle = build_bundle(m=2, with_features=False)
        write_bundle(bundle, tmp_path / "b")
        code = main(
            ["estimate-ratio", "--input", str(tmp_path / "b"), "--output",
             str(tmp_path / "out")]
        )
        assert code == 2
        assert "x_1" in capsys.readouterr().err

    def test_byte_identical_across_runs(self, task_dir, tmp_path):
        for name in ("r1", "r2"):
            assert main(
                ["estimate-ratio", "--input", str(task_dir), "--output",
                 str(tmp_path / name), "--seed", "9"]
            ) == 0
        for fname in ("ratio.json", "beta.csv"):
            assert (tmp_path / "r1" / fname).read_bytes() == (
                tmp_path / "r2" / fname
            ).read_bytes()

    def test_saturation_warning(self, task_dir, tmp_path, capsys):
        cfg = tmp_path / "ratio_cfg.json"
        # A bound below 1 forces most weights onto the bound.
        write_json(cfg, {"estimator": "ulsif", "bound": 0.2, "seed": 1})
        code = main(
            ["estimate-ratio", "--input", str(task_dir), "--output",
             str(tmp_path / "out"), "--config", str(cfg)]
        )
        assert code == 0
        assert "beta saturation" in capsys.readouterr().err

    def test_grid_edge_warning(self, task_dir, tmp_path, capsys):
        cfg = tmp_path / "ratio_cfg.json"
        # Widths far below the data scale: the widest one wins, on the edge.
        write_json(cfg, {"kernel_widths": [1e-4, 2e-4], "seed": 1})
        code = main(
            ["estimate-ratio", "--input", str(task_dir), "--output",
             str(tmp_path / "out"), "--config", str(cfg)]
        )
        assert code == 0
        assert "edge of the grid" in capsys.readouterr().err
        cv = json.loads((tmp_path / "out" / "ratio.json").read_text())["cv"]
        assert cv["widths"] == [1e-4, 2e-4] and cv["on_grid_edge"] is True
        assert cv["width_on_edge"] is True

    def _edge_run(self, task_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "ratio_cfg.json"
        write_json(cfg, doc)
        code = main(
            ["estimate-ratio", "--input", str(task_dir), "--output",
             str(tmp_path / "out"), "--config", str(cfg)]
        )
        assert code == 0
        cv = json.loads((tmp_path / "out" / "ratio.json").read_text())["cv"]
        return cv, capsys.readouterr().err

    def test_lowest_ridge_is_silent(self, task_dir, tmp_path, capsys):
        # The default grid on this task and seed picks an inner width and the
        # lowest ridge: on the ridge grid's edge, but no warning.
        cv, err = self._edge_run(task_dir, tmp_path, capsys, {"seed": 11})
        assert (cv["width_index"], cv["ridge_index"]) == (3, 0)
        assert cv["width_on_edge"] is False and cv["ridge_on_edge"] is True
        assert cv["on_grid_edge"] is True
        assert "edge of the grid" not in err

    def test_largest_ridge_warns(self, task_dir, tmp_path, capsys):
        # The default grid's best cell at this seed has ridge 1e-2; cut the
        # grid there and that cell is the largest ridge's.
        cv, err = self._edge_run(
            task_dir, tmp_path, capsys, {"ridge_strengths": [1e-3, 1e-2], "seed": 0}
        )
        assert (cv["width_index"], cv["ridge_index"]) == (3, 1)
        assert cv["width_on_edge"] is False and cv["ridge_on_edge"] is True
        assert "ridge 0.01, the largest, on the edge of the grid" in err
        assert "kernel width" not in err

    def test_logistic_largest_ridge_warns_without_a_width(self, tmp_path, capsys):
        # Equal source and target features: the heaviest ridge holds out
        # best. The logistic cv block has a ridge grid and no width grid.
        b = build_bundle(n_s=60, n_t=60, seed=9)
        b = replace(b, target=replace(b.target, features=b.source.features))
        write_bundle(b, tmp_path / "task")
        cv, err = self._edge_run(
            tmp_path / "task", tmp_path, capsys, {"estimator": "logistic"}
        )
        assert "width_on_edge" not in cv and cv["ridge_index"] == 3
        assert "warning: cross-validation chose ridge 1, the largest, on the edge" in err
        assert "kernel width" not in err

    @pytest.mark.parametrize("domain", ["source", "target"])
    def test_feature_whose_square_overflows_exit_2(self, domain, tmp_path, capsys):
        bundle = build_bundle(n_s=20, n_t=20)
        data = getattr(bundle, domain)
        features = data.features.copy()
        features[3, 1] = 1e200  # finite, but its square is not
        bundle = replace(bundle, **{domain: replace(data, features=features)})
        write_bundle(bundle, tmp_path / "b")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["estimate-ratio", "--input", str(tmp_path / "b"), "--output",
                 str(tmp_path / "out")]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "squared norm overflows" in err

    def test_huge_cv_folds_fit_as_one_sample_folds(self, tmp_path):
        task = generate_task(SynthTaskConfig(n_s=40, n_t=30, family_size=2, seed=61))
        write_bundle(task.bundle, tmp_path / "b")
        for name, folds in (("huge", 10**15), ("n", 40)):
            write_json(tmp_path / f"{name}.json", {"cv_folds": folds, "seed": 2})
            assert main(
                ["estimate-ratio", "--input", str(tmp_path / "b"), "--output",
                 str(tmp_path / name), "--config", str(tmp_path / f"{name}.json")]
            ) == 0
        assert (tmp_path / "huge" / "ratio.json").read_bytes() == (
            tmp_path / "n" / "ratio.json"
        ).read_bytes()

    def test_one_source_row_exit_2(self, tmp_path, capsys):
        write_bundle(build_bundle(n_s=1, n_t=4), tmp_path / "b")
        code = main(
            ["estimate-ratio", "--input", str(tmp_path / "b"), "--output",
             str(tmp_path / "out")]
        )
        assert code == 2
        assert "n_s=1" in capsys.readouterr().err

    def test_logistic_one_sample_per_domain_exit_2(self, tmp_path, capsys):
        write_bundle(build_bundle(n_s=1, n_t=1), tmp_path / "b")
        write_json(tmp_path / "cfg.json", {"estimator": "logistic"})
        code = main(
            ["estimate-ratio", "--input", str(tmp_path / "b"), "--output",
             str(tmp_path / "out"), "--config", str(tmp_path / "cfg.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_s=1, n_t=1 and cv_folds=5" in err
        assert not (tmp_path / "out").exists()

    def test_config_names_the_estimator(self, task_dir, tmp_path):
        write_json(tmp_path / "cfg.json", {"estimator": "logistic", "seed": 3})
        out = tmp_path / "out"
        assert main(
            ["estimate-ratio", "--input", str(task_dir), "--output", str(out),
             "--config", str(tmp_path / "cfg.json")]
        ) == 0
        bundle = load_bundle(task_dir)
        model = fit_ratio(
            bundle.source.features, bundle.target.features,
            RatioFitConfig(seed=3), "logistic",
        )
        assert model.kind == "logistic"
        save_ratio_model(model, tmp_path / "api.json")
        assert (out / "ratio.json").read_bytes() == (
            tmp_path / "api.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "value, message",
        [("bogus", "unknown estimator 'bogus'"),
         (3, "key 'estimator' takes a string, not 3")],
    )
    def test_bad_estimator_exit_2(self, value, message, task_dir, tmp_path, capsys):
        write_json(tmp_path / "cfg.json", {"estimator": value})
        assert main(
            ["estimate-ratio", "--input", str(task_dir), "--output",
             str(tmp_path / "out"), "--config", str(tmp_path / "cfg.json")]
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


def _estimate(task_dir, out) -> int:
    return main(
        ["estimate-ratio", "--input", str(task_dir), "--output", str(out),
         "--seed", "3"]
    )


def _same_fit(a, b) -> bool:
    return all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("ratio.json", "beta.csv")
    )


class TestEstimateRatioReadsSamplesOnly:
    """estimate-ratio reads manifest.json, source.csv and target.csv (and
    arrays.npz), never a model CSV."""

    BROKEN = "model_m01_source.csv"

    @pytest.mark.parametrize("how", ["garbled", "truncated", "deleted"])
    def test_broken_model_csv_fails_only_the_commands_that_read_it(
        self, how, task_dir, tmp_path, capsys
    ):
        intact = tmp_path / "intact"
        assert _estimate(task_dir, intact) == 0
        path = task_dir / self.BROKEN
        if how == "garbled":
            path.write_text(path.read_text().replace("\n0,", "\n0,oops", 1))
        elif how == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            path.unlink()
        assert _estimate(task_dir, tmp_path / "broken") == 0
        assert _same_fit(intact, tmp_path / "broken")
        capsys.readouterr()
        for command, flag in (("aggregate", ["--ratio", intact / "ratio.json"]),
                              ("select", ["--beta", intact / "beta.csv"])):
            out = tmp_path / command
            assert main([command, "--input", str(task_dir), "--output", str(out),
                         *map(str, flag)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and self.BROKEN in err, err
            assert not out.exists()

    @pytest.mark.parametrize(
        "fname, body",
        [("manifest.json", "{"), ("source.csv", "id,x_1\n0,1\n"),
         ("target.csv", "")],
    )
    def test_malformed_sample_file_exit_2(self, fname, body, task_dir, tmp_path, capsys):
        (task_dir / fname).write_text(body)
        assert _estimate(task_dir, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fname in err, err
        assert not (tmp_path / "out").exists()

    def test_missing_features_reported_before_any_csv(self, tmp_path, capsys):
        write_bundle(build_bundle(m=2, with_features=False), tmp_path / "b")
        for name in ("source.csv", "target.csv", "arrays.npz"):
            os.remove(tmp_path / "b" / name)
        assert _estimate(tmp_path / "b", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            "error: ratio estimation needs features on both samples: source.csv "
            "has no x_1..x_d1 columns; target.csv has no x_1..x_d1 columns\n"
        )

    def test_edited_source_under_stale_sidecar_is_fitted(self, task_dir, tmp_path):
        assert _estimate(task_dir, tmp_path / "before") == 0
        path = task_dir / "source.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) + 0.5)  # x_1 of row 4
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert _estimate(task_dir, tmp_path / "edited") == 0
        (task_dir / "arrays.npz").unlink()
        assert _estimate(task_dir, tmp_path / "parsed") == 0
        assert _same_fit(tmp_path / "edited", tmp_path / "parsed")
        assert not _same_fit(tmp_path / "before", tmp_path / "edited")

    def test_without_sidecar_parses_the_two_sample_csvs(
        self, task_dir, tmp_path, monkeypatch
    ):
        (task_dir / "arrays.npz").unlink()
        parsed = []

        def spy(path, *args):
            parsed.append(os.path.basename(path))
            return read_csv(path, *args)

        monkeypatch.setattr(data, "read_csv", spy)
        assert _estimate(task_dir, tmp_path / "out") == 0
        assert parsed == ["source.csv", "target.csv"]


@pytest.mark.parametrize("shift, warned", [(3.0, True), (0.0, False)],
                         ids=["shifted", "default"])
def test_effective_sample_size_warning(shift, warned, tmp_path, capsys):
    # A target mean 3 standard deviations off puts the analytic and the
    # logistic weights on a few source samples: Kish's fraction is about 0.05
    # and 0.04. The unshifted task reads about 0.8 for both.
    task = generate_task(SynthTaskConfig(
        n_s=80, n_t=80, family_size=3, seed=60, target_mean=(shift, 0, 0, 0, 0)
    ))
    write_bundle(task.bundle, tmp_path / "task")
    save_ratio_model(task.analytic_ratio, tmp_path / "task" / "analytic_ratio.json")
    write_json(tmp_path / "cfg.json", {"estimator": "logistic"})
    io_args = ["--input", str(tmp_path / "task"), "--output", str(tmp_path / "out")]
    for args in (["estimate-ratio", "--config", str(tmp_path / "cfg.json")],
                 ["aggregate", "--analytic"]):
        assert main(args + io_args) == 0
        err = capsys.readouterr().err
        assert ("warning: beta effective sample size" in err) is warned, err


class TestAggregate:
    def test_analytic_flag(self, task_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--input", str(task_dir), "--output", str(out),
             "--analytic"]
        )
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["coefficients"]) == 3
        assert doc["mode"] == "importance_weighted"
        assert "target_oracle" in doc["risk_reports"]
        header, rows = read_csv(out / "aggregated_predictions.csv", 2)
        assert header == ["id", "f_1"] and len(rows) == 80

    def test_beta_file(self, task_dir, tmp_path):
        out1 = tmp_path / "o1"
        assert main(["estimate-ratio", "--input", str(task_dir), "--output",
                     str(out1), "--seed", "2"]) == 0
        out2 = tmp_path / "o2"
        code = main(
            ["aggregate", "--input", str(task_dir), "--output", str(out2),
             "--beta", str(out1 / "beta.csv")]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "body",
        ["0,1.0\n1,abc\n2,1.0\n", "0,1.0\n1\n2,1.0\n", "1,1.0\n0,2.0\n2,1.0\n"],
        ids=["non_numeric_cell", "one_cell_row", "shuffled_ids"],
    )
    def test_malformed_beta_file_exit_2(self, body, tmp_path, capsys):
        write_bundle(build_bundle(m=2, n_s=3, seed=62), tmp_path / "b")
        beta = tmp_path / "beta.csv"
        beta.write_text("id,beta\n" + body)
        code = main(
            ["aggregate", "--input", str(tmp_path / "b"), "--output",
             str(tmp_path / "out"), "--beta", str(beta)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_beta_file_exit_2(self, tmp_path, capsys):
        write_bundle(build_bundle(m=2, n_s=3, seed=62), tmp_path / "b")
        code = main(
            ["aggregate", "--input", str(tmp_path / "b"), "--output",
             str(tmp_path / "out"), "--beta", str(tmp_path / "absent.csv")]
        )
        assert code == 2
        assert "missing file" in capsys.readouterr().err

    def test_duplicate_models_lambda_zero_exit_3(self, tmp_path):
        base = build_bundle(m=1, n_s=10, n_t=10, seed=61)
        dup = PredictionBundle(
            model_names=("a", "b"),
            source_preds=np.repeat(base.source_preds, 2, axis=0),
            target_preds=np.repeat(base.target_preds, 2, axis=0),
            source=base.source,
            target=base.target,
        )
        write_bundle(dup, tmp_path / "dup")
        beta = tmp_path / "beta.csv"
        beta.write_text("id,beta\n" + "".join(f"{i},1.0\n" for i in range(10)))
        code = main(
            ["aggregate", "--input", str(tmp_path / "dup"), "--output",
             str(tmp_path / "out"), "--beta", str(beta), "--lambda", "0"]
        )
        assert code == 3

    def test_oracle_flag(self, task_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--input", str(task_dir), "--output", str(out),
             "--oracle"]
        )
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["mode"] == "oracle"

    @pytest.mark.parametrize("flag", ["--analytic", "--ratio"])
    def test_ratio_saturation_recorded(self, flag, task_dir, tmp_path, monkeypatch):
        # A bound of 1 puts part of the analytic weights on the bound.
        model = analytic_gaussian_ratio((0.0,) * 5, (0.5,) + (0.0,) * 4, 1.0, 1.0)
        save_ratio_model(model, task_dir / "analytic_ratio.json")
        calls = []
        real = aggregation.evaluate_ratio
        monkeypatch.setattr(
            aggregation,
            "evaluate_ratio",
            lambda *a: calls.append(1) or real(*a),
        )
        out = tmp_path / "out"
        args = ["aggregate", "--input", str(task_dir), "--output", str(out)]
        args += (
            [flag] if flag == "--analytic"
            else [flag, str(task_dir / "analytic_ratio.json")]
        )
        scans = count_weight_scans(monkeypatch)
        assert main(args) == 0
        assert len(calls) == 1
        assert scans == [80]  # the solve and the weighted report share one record
        diagnostics = json.loads((out / "result.json").read_text())["diagnostics"]
        fraction = diagnostics["beta_saturation_fraction"]
        task = generate_task(SynthTaskConfig(n_s=80, n_t=80, family_size=3, seed=60))
        beta = real(model, task.bundle.source.features)
        assert fraction == float(np.mean(beta >= 1.0))
        assert 0.0 < fraction < 1.0
        ess = float(np.sum(beta)) ** 2 / float(np.sum(beta**2))
        assert diagnostics["beta_effective_sample_size"] == pytest.approx(ess, rel=1e-12)
        assert diagnostics["beta_effective_fraction"] == pytest.approx(ess / 80, rel=1e-12)

    def test_lambda_refusals_recorded(self, tmp_path):
        # Twenty models seen on three target samples: G has rank 3, and the
        # first automatic lam misses the residual contract.
        write_bundle(build_bundle(m=20, n_s=40, n_t=3, seed=2), tmp_path / "b")
        beta = tmp_path / "beta.csv"
        beta.write_text("id,beta\n" + "".join(f"{i},1.0\n" for i in range(40)))
        assert main(["aggregate", "--input", str(tmp_path / "b"), "--output",
                     str(tmp_path / "out"), "--beta", str(beta)]) == 0
        doc = json.loads((tmp_path / "out" / "result.json").read_text())
        refusals = doc["diagnostics"]["lambda_refusals"]
        assert len(refusals) == doc["diagnostics"]["lambda_escalations"] >= 1
        for lam, reason in refusals:
            assert lam < doc["tikhonov"] and f"at lam={lam!r}" in reason

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--beta", "absent.csv"], "['--beta', '--oracle']"),
            (["--ratio", "absent.json"], "['--ratio', '--oracle']"),
            (["--analytic"], "['--analytic', '--oracle']"),
            (["--ratio", "absent.json", "--beta", "absent.csv"],
             "['--beta', '--ratio', '--oracle']"),
        ],
        ids=["beta", "ratio", "analytic", "ratio_and_beta"],
    )
    def test_oracle_with_a_weight_flag_exit_2(
        self, flags, named, task_dir, tmp_path, capsys
    ):
        # The weight files do not exist: the refusal comes before any read.
        out = tmp_path / "out"
        code = main(["aggregate", "--input", str(task_dir), "--output", str(out),
                     "--oracle", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: flags {named} are mutually exclusive\n"
        assert not out.exists()

    def test_combines_each_prediction_set_once(self, task_dir, tmp_path, monkeypatch):
        """One ``aggregate --ratio`` on a labelled bundle combines the source
        predictions once, for both source reports, and the target
        predictions twice: the oracle report and the CSV."""
        calls = []
        real = aggregation.aggregate_predict
        monkeypatch.setattr(
            aggregation,
            "aggregate_predict",
            lambda preds, c: calls.append(1) or real(preds, c),
        )
        ratio_json = str(task_dir / "analytic_ratio.json")
        assert main(["aggregate", "--input", str(task_dir), "--output",
                     str(tmp_path / "out"), "--ratio", ratio_json]) == 0
        doc = json.loads((tmp_path / "out" / "result.json").read_text())
        assert list(doc["risk_reports"]) == [
            "source", "importance_weighted", "target_oracle"
        ]
        assert len(calls) == 3

    def test_output_under_file_exit_4(self, task_dir, tmp_path):
        blocker = tmp_path / "f.txt"
        blocker.write_text("x")
        code = main(
            ["aggregate", "--input", str(task_dir), "--output",
             str(blocker / "sub"), "--analytic"]
        )
        assert code == 4


def _overflowing_inputs(task_dir, tmp_path, case):
    """The task's bundle with one source prediction of 1e200 ("prediction"),
    or the task unchanged with a weight file whose sixth weight is 1e300
    ("weight")."""
    if case == "weight":
        task = generate_task(SynthTaskConfig(n_s=80, n_t=80, family_size=3, seed=60))
        beta = aggregation.resolve_beta(task.bundle, task.analytic_ratio).beta.copy()
        beta[5] = 1e300
        write_csv(tmp_path / "beta.csv", ["id", "beta"], beta[:, None])
        return task_dir, ["--beta", str(tmp_path / "beta.csv")]
    bundle = load_bundle(task_dir)
    preds = bundle.source_preds.copy()
    preds[1, 3, 0] = 1e200
    write_bundle(replace(bundle, source_preds=preds), tmp_path / "b")
    save_ratio_model(
        load_ratio_model(task_dir / "analytic_ratio.json"),
        tmp_path / "b" / "analytic_ratio.json",
    )
    return tmp_path / "b", []


@pytest.mark.parametrize(
    "case, args, message",
    [
        ("prediction", ["aggregate", "--analytic"], "risk of model 1 is inf"),
        ("prediction", ["aggregate", "--oracle"], "risk of model 1 is inf"),
        ("prediction", ["select", "--analytic"], "risk of model 1 is inf"),
        ("weight", ["aggregate"], "the risk is inf"),
        ("weight", ["select"], "the risk is inf"),
    ],
    ids=["aggregate_analytic", "aggregate_oracle", "select_analytic",
         "aggregate_beta", "select_beta"],
)
def test_overflowing_risk_exit_2(case, args, message, task_dir, tmp_path):
    # A squared residual past 1.8e308 makes a risk inf; it is refused in one
    # line, before any output file is written.
    bundle_dir, extra = _overflowing_inputs(task_dir, tmp_path, case)
    src = pathlib.Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "shiftagg.cli", *args, *extra,
         "--input", str(bundle_dir), "--output", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and message in line
    assert not (tmp_path / "out").exists()


def test_aggregate_reports_agree_with_select_table(tmp_path):
    """On the benchmark's ``cli_pipeline`` inputs (m=20, n=5000, seed-0 task
    and uLSIF fit; ``aggregate --ratio`` and ``select --beta``), every
    per-model risk, both picks and the weighted aggregated risk agree bit
    for bit. The aggregate's true target risk is evaluated sample by sample
    in ``result.json`` and from the moments in ``comparison.json``, so those
    two agree to rounding only."""
    task = generate_task(SynthTaskConfig(n_s=5000, n_t=5000, family_size=20, seed=0))
    bundle_dir, ratio_dir = tmp_path / "bundle", tmp_path / "ratio"
    write_bundle(task.bundle, bundle_dir)
    beta_csv = ratio_dir / "beta.csv"
    for argv in (
        ["estimate-ratio", "--output", str(ratio_dir), "--seed", "0"],
        ["aggregate", "--output", str(tmp_path / "agg"),
         "--ratio", str(ratio_dir / "ratio.json")],
        ["select", "--output", str(tmp_path / "sel"), "--beta", str(beta_csv)],
    ):
        assert main([*argv, "--input", str(bundle_dir)]) == 0
    reports = json.loads((tmp_path / "agg" / "result.json").read_text())[
        "risk_reports"
    ]
    table = {
        row["method"]: row
        for row in json.loads((tmp_path / "sel" / "comparison.json").read_text())[
            "rows"
        ]
    }
    models = [table[f"model:{name}"] for name in task.bundle.model_names]
    iwv = selection.select_iwv(task.bundle, read_csv(beta_csv, 2)[1][:, 0])
    for kind, per_model, pick in (
        ("source", [row["estimated_score"] for row in models], "select_source"),
        ("importance_weighted", list(iwv.scores), "select_iwv"),
    ):
        report = reports[kind]
        assert report["per_model_risk"] == per_model
        assert report["selected_index"] == table[pick]["detail"]["selected_index"]
        assert report["selected_risk"] == table[pick]["estimated_score"]
    assert reports["target_oracle"]["per_model_risk"] == [
        row["true_target_risk"] for row in models
    ]
    aggregate = table["aggregate"]
    assert reports["importance_weighted"]["aggregated_risk"] == (
        aggregate["estimated_score"]
    )
    true_risk = reports["target_oracle"]["aggregated_risk"]
    assert abs(true_risk - aggregate["true_target_risk"]) <= 1e-12 * true_risk


class TestSelect:
    def test_table_and_json(self, task_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["select", "--input", str(task_dir), "--output", str(out),
             "--analytic"]
        )
        assert code == 0
        assert (out / "comparison.json").is_file()
        stdout = capsys.readouterr().out
        assert "select_source" in stdout and "aggregate_oracle" in stdout

    def test_swapped_model_rows_exit_2(self, task_dir, tmp_path, capsys):
        path = task_dir / "model_m01_target.csv"
        lines = path.read_text().splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["select", "--input", str(task_dir), "--output", str(tmp_path / "out"),
             "--analytic"]
        )
        assert code == 2
        assert "model_m01_target.csv: row 4 has id '5'" in capsys.readouterr().err


class TestInputs:
    """``result.json`` and ``comparison.json`` end with ``inputs``: the
    sha256 of each bundle CSV, by file name in manifest order."""

    def _inputs(self, task_dir, out) -> dict:
        docs = []
        for command, name in (("aggregate", "result.json"), ("select", "comparison.json")):
            assert main(
                [command, "--input", str(task_dir), "--output", str(out / command),
                 "--analytic"]
            ) == 0
            docs.append(json.loads((out / command / name).read_text()))
        assert [list(doc)[-1] for doc in docs] == ["inputs", "inputs"]
        assert docs[0]["inputs"] == docs[1]["inputs"]
        return docs[0]["inputs"]

    def test_each_csv_file_sha256(self, task_dir, tmp_path):
        names = ["source.csv", "target.csv"] + [
            f"model_m{k:02d}_{side}.csv" for k in range(3) for side in ("source", "target")
        ]
        inputs = self._inputs(task_dir, tmp_path)
        assert list(inputs) == names
        assert inputs == {
            name: hashlib.sha256((task_dir / name).read_bytes()).hexdigest()
            for name in names
        }

    def test_one_changed_value_changes_its_file_only(self, task_dir, tmp_path):
        before = self._inputs(task_dir, tmp_path / "before")
        path = task_dir / "model_m01_source.csv"
        lines = path.read_text().splitlines()
        row, value = lines[3].split(",")
        lines[3] = f"{row},{float(value) + 1.0!r}"
        path.write_text("\n".join(lines) + "\n")
        after = self._inputs(task_dir, tmp_path / "after")
        assert [name for name in before if before[name] != after[name]] == [path.name]
        assert after[path.name] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_parsed_csvs_give_the_same_digests(self, task_dir, tmp_path):
        before = self._inputs(task_dir, tmp_path / "before")
        (task_dir / "arrays.npz").unlink()
        assert self._inputs(task_dir, tmp_path / "after") == before


@functools.lru_cache(maxsize=1)
def _fuzz_seed_files() -> dict:
    """File name -> bytes of a small bundle, its arrays.npz included, and
    its beta.csv."""
    with tempfile.TemporaryDirectory() as d:
        write_bundle(build_bundle(m=2, n_s=5, n_t=4, with_oracle=True, seed=3), d)
        write_csv(os.path.join(d, "beta.csv"), ["id", "beta"], np.ones((5, 1)))
        return {p.name: p.read_bytes() for p in pathlib.Path(d).iterdir()}


_FUZZ_KINDS = [
    "cell", "drop_comma", "add_comma", "delete_line", "duplicate_line",
    "swap_lines", "truncate", "empty", "crlf",
]


def _mutate(draw, text: str, kind: str) -> str:
    lines = text.splitlines()
    pick = st.integers(0, len(lines) - 1)
    if kind == "cell":
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(["x", "", "nan", "1e400"])
        )
        lines[i] = ",".join(cells)
    elif kind in ("drop_comma", "add_comma"):
        i = draw(pick)
        line = lines[i]
        if kind == "add_comma":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + "," + line[at:]
        elif "," in line:
            at = draw(st.sampled_from([k for k, c in enumerate(line) if c == ","]))
            lines[i] = line[:at] + line[at + 1:]
    elif kind == "delete_line":
        del lines[draw(pick)]
    elif kind == "duplicate_line":
        i = draw(pick)
        lines.insert(i, lines[i])
    elif kind == "swap_lines":
        i, j = draw(pick), draw(pick)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "empty":
        return ""
    else:
        return text.replace("\n", "\r\n")
    return "\n".join(lines) + "\n"


def _corrupt(draw, blob: bytes, kind: str) -> bytes:
    if kind == "empty":
        return b""
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    at = draw(st.integers(0, len(blob) - 1))
    junk = draw(st.binary(min_size=1, max_size=16))
    return blob[:at] + junk + blob[at + len(junk):]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_bundle_and_beta_exit_0_2_or_4(data):
    """Mutate one CSV, or corrupt arrays.npz, and run ``select``. The other
    files keep their bytes, so a mutated CSV meets a stale arrays.npz, and
    a corrupted arrays.npz beside intact CSVs must not stop the run."""
    files = dict(_fuzz_seed_files())
    name = data.draw(
        st.sampled_from(sorted(n for n in files if n.endswith((".csv", ".npz"))))
    )
    if name == "arrays.npz":
        kind = data.draw(st.sampled_from(["empty", "truncate", "garbage"]))
        files[name] = _corrupt(data.draw, files[name], kind)
    else:
        kind = data.draw(st.sampled_from(_FUZZ_KINDS))
        files[name] = _mutate(data.draw, files[name].decode(), kind).encode()
    with tempfile.TemporaryDirectory() as d:
        bundle_dir = os.path.join(d, "b")
        os.makedirs(bundle_dir)
        for fname, blob in files.items():
            pathlib.Path(bundle_dir, fname).write_bytes(blob)
        argv = ["select", "--input", bundle_dir, "--output", os.path.join(d, "out"),
                "--beta", os.path.join(bundle_dir, "beta.csv")]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in ((0,) if name == "arrays.npz" else (0, 2, 4)), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


class TestBench:
    def _cfg(self, tmp_path, trials=4):
        cfg = tmp_path / "suite.json"
        write_json(
            cfg,
            {
                "trials": trials,
                "seed": 42,
                "estimator": "ulsif",
                "task": {"n_s": 60, "n_t": 60, "family_size": 3},
                "ratio": {"n_centers": 20, "cv_folds": 2},
            },
        )
        return cfg

    def test_seed_repeatability_bytes(self, tmp_path):
        cfg = self._cfg(tmp_path)
        for name in ("a", "b"):
            assert main(
                ["bench", "--config", str(cfg), "--output",
                 str(tmp_path / name), "--seed", "42"]
            ) == 0
        assert (tmp_path / "a" / "suite.json").read_bytes() == (
            tmp_path / "b" / "suite.json"
        ).read_bytes()
        assert (tmp_path / "a" / "suite.txt").read_bytes() == (
            tmp_path / "b" / "suite.txt"
        ).read_bytes()

    def test_thread_count_independence(self, tmp_path):
        cfg = self._cfg(tmp_path)
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "t8"), "--threads", "8"]) == 0
        assert (tmp_path / "t1" / "suite.json").read_bytes() == (
            tmp_path / "t8" / "suite.json"
        ).read_bytes()

    def test_threads_flag_starts_no_thread(self, tmp_path, monkeypatch):
        # Trials run one after another whatever --threads says.
        cfg = self._cfg(tmp_path)
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "t1"), "--threads", "1"]) == 0

        def refuse(thread):
            raise AssertionError(f"bench started the thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "t4"), "--threads", "4"]) == 0
        for name in ("suite.json", "suite.txt"):
            assert (tmp_path / "t1" / name).read_bytes() == (
                tmp_path / "t4" / name
            ).read_bytes()

    def test_bad_lambda_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "suite.json"
        write_json(cfg, {"lambda": -1, "task": {"n_s": 60, "n_t": 60}})
        tasks = []
        monkeypatch.setattr(synth, "generate_task", tasks.append)
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: tikhonov value must be finite and nonnegative, got -1.0\n"
        )
        assert tasks == [] and not (tmp_path / "out").exists()

    def test_blas_threads_default_to_one(self, tmp_path):
        # The package sets the BLAS thread count to 1 where the environment
        # names none, before numpy loads; an explicit setting wins.
        src = pathlib.Path(__file__).parents[1] / "src"
        unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        base = {k: v for k, v in os.environ.items() if k not in unset}
        docs = []
        for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            done = subprocess.run(
                [sys.executable, "-m", "shiftagg.cli", "bench", "--trials", "3",
                 "--seed", "42", "--output", str(tmp_path / name)],
                env={**base, **extra, "PYTHONPATH": str(src)},
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            docs.append((tmp_path / name / "suite.json").read_bytes())
        assert docs[0] == docs[1]

    def test_zero_trials_exit_2(self, tmp_path):
        cfg = self._cfg(tmp_path, trials=0)
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--threads", "0", "threads must be >= 1, got 0"),
         ("--threads", "-3", "threads must be >= 1, got -3"),
         ("--dump-tasks", "-2", "--dump-tasks must be >= 0, got -2")],
    )
    def test_bad_flag_exit_2(self, flag, value, message, tmp_path, capsys):
        cfg = self._cfg(tmp_path, trials=1)
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "out"), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_estimator_recorded_in_suite_config(self, tmp_path):
        cfg = tmp_path / "suite.json"
        write_json(
            cfg,
            {"estimator": "logistic", "task": {"n_s": 60, "n_t": 60, "family_size": 3}},
        )
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--output", str(out),
                     "--trials", "1"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert doc["config"]["estimator"] == "logistic"
        assert "estimator" not in doc["config"]["ratio"]
        methods = {r["method"] for r in doc["per_trial"][0]["rows"]}
        assert "aggregate_logistic" in methods and "aggregate_ulsif" not in methods

    def test_ratio_block_estimator_is_unknown_key_exit_2(self, tmp_path, capsys):
        # The suite names its estimator once, at the top level.
        cfg = tmp_path / "suite.json"
        write_json(cfg, {"estimator": "logistic", "ratio": {"estimator": "ulsif"}})
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown config keys ['ratio.estimator']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("estimator", ["ulsif", "logistic", None])
    def test_written_config_block_reloads(self, estimator, tmp_path):
        # The suite's estimator is written once, outside the ratio block.
        cfg = tmp_path / "suite.json"
        write_json(
            cfg,
            {"estimator": estimator, "trials": 1, "seed": 5,
             "task": {"n_s": 60, "n_t": 60, "family_size": 3},
             "ratio": {"n_centers": 20, "cv_folds": 2}},
        )
        first = tmp_path / "first"
        assert main(["bench", "--config", str(cfg), "--output", str(first)]) == 0
        doc = json.loads((first / "suite.json").read_text())
        assert doc["config"]["estimator"] == estimator
        assert "estimator" not in doc["config"]["ratio"]
        again = tmp_path / "again.json"
        write_json(again, {**doc["config"], "trials": 1, "seed": doc["seed"]})
        second = tmp_path / "second"
        assert main(["bench", "--config", str(again), "--output", str(second)]) == 0
        assert (second / "suite.json").read_bytes() == (
            first / "suite.json"
        ).read_bytes()

    def test_dump_tasks_round_trips_through_pipeline(self, tmp_path):
        cfg = self._cfg(tmp_path, trials=2)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--output", str(out),
                     "--dump-tasks", "1"]) == 0
        task_dir = out / "task_000"
        assert (task_dir / "manifest.json").is_file()
        assert main(["aggregate", "--input", str(task_dir), "--output",
                     str(tmp_path / "agg"), "--analytic"]) == 0


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 3.47 EiB"), "Unable to allocate 3.47 EiB"),
        (MemoryError(), "allocation refused"),
    ],
)
def test_memory_error_exit_4(exc, message, monkeypatch, tmp_path, capsys):
    def refuse(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_bench", refuse)
    assert main(["bench", "--output", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


class TestMallocPin:
    @staticmethod
    def _estimate(task_dir, out):
        return main(
            ["estimate-ratio", "--input", str(task_dir), "--output", str(out)]
        )

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="counts glibc's heap reuse"
    )
    def test_repeated_estimate_reuses_the_heap(self, tmp_path, capsys):
        # A fit's n x 100 distances and kernels are one 16 MB block, which
        # glibc keeps on the heap once one such block has been freed.
        task = generate_task(
            SynthTaskConfig(n_s=5000, n_t=5000, family_size=3, seed=61)
        )
        write_bundle(task.bundle, tmp_path / "b")
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert self._estimate(tmp_path / "b", tmp_path / "out") == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[2] < 100, faults


@pytest.mark.parametrize("command", ["aggregate", "select"])
@pytest.mark.parametrize(
    "target_value, code, message",
    [(0.0, 3, "zero trace"), (1e200, 2, "must be finite")],
    ids=["all_zero", "overflowing"],
)
def test_degenerate_target_gram_exits_at_once(command, target_value, code, message, tmp_path):
    # The automatic regularizer scales with trace(G)/m, which is 0 when every
    # model predicts 0 on the target and inf when G overflows.
    base = build_bundle(m=2, n_s=5, n_t=4, seed=63)
    bundle = replace(base, target_preds=np.full_like(base.target_preds, target_value))
    write_bundle(bundle, tmp_path / "b")
    beta = tmp_path / "beta.csv"
    beta.write_text("id,beta\n" + "".join(f"{i},1.0\n" for i in range(5)))
    src = pathlib.Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "shiftagg.cli", command, "--input", str(tmp_path / "b"),
         "--output", str(tmp_path / "out"), "--beta", str(beta)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert message in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "command, doc",
    [
        ("bench", {"ratio": {"n_centers": 2.5}}),
        ("bench", {"lambda": "x"}),
        ("bench", {"task": [1]}),
        ("bench", {"task": {"famly_size": 3}}),
        ("bench", {"ratio": {"estimator": "logistic"}}),
        ("estimate-ratio", {"n_centers": 2.5}),
        ("estimate-ratio", [1, 2]),
        ("estimate-ratio", {"estimater": "logistic"}),
        ("estimate-ratio", {"seed": 1.7}),
        ("bench", {"seed": True, "trials": 1}),
        ("bench", {"seed": 1.7, "trials": 1}),
    ],
)
def test_bad_config_exit_2(command, doc, task_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    args = [command, "--config", str(cfg), "--output", str(tmp_path / "out")]
    args += ["--trials", "1"] if command == "bench" else ["--input", str(task_dir)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestProbe:
    def test_identical_domains(self, tmp_path, capsys):
        vecs = np.arange(8.0).reshape(2, 4)
        emb = LayerEmbeddingSet(
            layers=(LayerEmbeddings(1, vecs, vecs),),
            pairing=((0, 0), (1, 1)),
        )
        write_embeddings(emb, tmp_path / "emb.json")
        out = tmp_path / "report.json"
        code = main(["probe", "--input", str(tmp_path / "emb.json"),
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["d_sem"] == 0.0

    def test_epsilon_and_lipschitz_flags(self, tmp_path):
        emb = LayerEmbeddingSet(
            layers=(LayerEmbeddings(1, np.zeros((1, 2)), np.array([[0.0, 2.0]])),)
        )
        write_embeddings(emb, tmp_path / "emb.json")
        out = tmp_path / "report.json"
        code = main(["probe", "--input", str(tmp_path / "emb.json"),
                     "--output", str(out), "--epsilon", "0.5",
                     "--lipschitz", "2,3"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["is_epsilon_close"] is False
        assert doc["propagated_bound"] == 3.0

    @pytest.mark.parametrize("constants", ["1,,2", ",", "2,", ""])
    def test_empty_lipschitz_constant_exit_2(self, tmp_path, capsys, constants):
        emb = LayerEmbeddingSet(
            layers=(LayerEmbeddings(1, np.zeros((1, 2)), np.array([[0.0, 2.0]])),)
        )
        write_embeddings(emb, tmp_path / "emb.json")
        out = tmp_path / "report.json"
        code = main(["probe", "--input", str(tmp_path / "emb.json"),
                     "--output", str(out), "--epsilon", "1",
                     "--lipschitz", constants])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"bad --lipschitz list {constants!r}" in err
        assert not out.exists()

    def test_lipschitz_without_epsilon_exit_2(self, tmp_path, capsys):
        emb = LayerEmbeddingSet(
            layers=(LayerEmbeddings(1, np.zeros((1, 2)), np.array([[0.0, 2.0]])),)
        )
        write_embeddings(emb, tmp_path / "emb.json")
        out = tmp_path / "report.json"
        code = main(["probe", "--input", str(tmp_path / "emb.json"),
                     "--output", str(out), "--lipschitz", "2,3"])
        assert code == 2
        assert capsys.readouterr().err == "error: --lipschitz requires --epsilon\n"
        assert not out.exists()

    def test_malformed_dump_exit_2(self, tmp_path):
        (tmp_path / "emb.json").write_text("{not json")
        assert main(["probe", "--input", str(tmp_path / "emb.json")]) == 2


_MU_P, _MU_Q = [0.0] * 5, [0.5] + [0.0] * 4


@pytest.mark.parametrize(
    "params",
    [
        {},
        [],
        {"source_mean": _MU_P, "target_mean": _MU_Q, "cov_scale": "x"},
        {"source_mean": _MU_P, "target_mean": _MU_Q, "cov_scale": -1},
        {"source_mean": _MU_P, "target_mean": _MU_Q, "cov_scale": float("nan")},
        {"source_mean": _MU_P, "target_mean": _MU_Q[:4], "cov_scale": 1.0},
        {"source_mean": _MU_P, "target_mean": ["a"] * 5, "cov_scale": 1.0},
        {"source_mean": [float("nan")] * 5, "target_mean": _MU_Q, "cov_scale": 1.0},
        {"source_mean": 0.0, "target_mean": 0.5, "cov_scale": 1.0},
    ],
    ids=[
        "empty_object", "list", "string_scale", "negative_scale", "nan_scale",
        "length_mismatch", "string_mean", "nan_mean", "scalar_means",
    ],
)
def test_bad_analytic_params_exit_2(params, task_dir, tmp_path, capsys):
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps({"kind": "analytic", "bound": 20.0, "params": params}))
    code = main(["aggregate", "--input", str(task_dir), "--output",
                 str(tmp_path / "out"), "--ratio", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "key", ["alpha", "centers", "classifier_weights", "ns_over_nt"]
)
@pytest.mark.parametrize("command", ["aggregate", "select"])
def test_non_finite_ratio_model_exit_2(key, command, task_dir, tmp_path, capsys):
    kind = "ulsif" if key in ("alpha", "centers") else "logistic"
    doc = {"kind": kind, "bound": 20.0}
    if kind == "ulsif":
        doc.update(centers=[[0.0] * 5, [1.0] * 5], alpha=[0.5, 0.5], kernel_width=1.0)
    else:
        doc.update(classifier_weights=[0.1] * 6, ns_over_nt=1.0)
    value = doc[key]
    if isinstance(value, list):
        inner = value[0] if isinstance(value[0], list) else value
        inner[0] = float("nan")
    else:
        doc[key] = float("nan")
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--input", str(task_dir), "--output",
                 str(tmp_path / "out"), "--ratio", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and key in err


_ANALYTIC = {"kind": "analytic", "bound": 20.0,
             "params": {"source_mean": _MU_P, "target_mean": _MU_Q, "cov_scale": 1.0}}
_ULSIF = {"kind": "ulsif", "bound": 20.0, "centers": [[0.0] * 5, [1.0] * 5],
          "alpha": [0.5, 0.5], "kernel_width": 1.0}
_LOGISTIC = {"kind": "logistic", "bound": 20.0, "classifier_weights": [0.1] * 6,
             "ns_over_nt": 1.0}


@pytest.mark.parametrize(
    "doc, key",
    [
        ({**_ANALYTIC, "bound": True}, "bound"),
        ({**_ANALYTIC, "bound": "3"}, "bound"),
        ({**_LOGISTIC, "ns_over_nt": False}, "ns_over_nt"),
        ({**_ULSIF, "kernel_width": "0.5"}, "kernel_width"),
        ({**_ULSIF, "alpha": [True, "2"]}, "alpha"),
        ({**_ULSIF, "centers": [[0.0] * 5, [1.0] * 4 + [None]]}, "centers"),
    ],
    ids=["bool_bound", "string_bound", "bool_ns_over_nt", "string_kernel_width",
         "bool_and_string_alpha", "null_center"],
)
def test_wrong_typed_ratio_model_exit_2(doc, key, task_dir, tmp_path, capsys):
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps(doc))
    code = main(["aggregate", "--input", str(task_dir), "--output",
                 str(tmp_path / "out"), "--ratio", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and repr(key) in err
    assert "numbers" in err and "Traceback" not in err
