"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from shiftagg.cli import main
from shiftagg.data import (
    PredictionBundle,
    write_bundle,
    write_embeddings,
    LayerEmbeddings,
    LayerEmbeddingSet,
)
from shiftagg.serialize import read_csv, write_json
from shiftagg.synth import SynthTaskConfig, generate_task
from shiftagg.ratio import save_ratio_model

from conftest import build_bundle


@pytest.fixture
def task_dir(tmp_path):
    task = generate_task(SynthTaskConfig(n_s=80, n_t=80, family_size=3, seed=60))
    path = tmp_path / "task"
    write_bundle(task.bundle, path)
    save_ratio_model(task.analytic_ratio, path / "analytic_ratio.json")
    return path


class TestEstimateRatio:
    def test_writes_model_and_weights(self, task_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["estimate-ratio", "--input", str(task_dir), "--output", str(out),
             "--seed", "5"]
        )
        assert code == 0
        assert (out / "ratio.json").is_file()
        header, rows = read_csv(out / "beta.csv")
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
        header, rows = read_csv(out / "aggregated_predictions.csv")
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

    def test_output_under_file_exit_4(self, task_dir, tmp_path):
        blocker = tmp_path / "f.txt"
        blocker.write_text("x")
        code = main(
            ["aggregate", "--input", str(task_dir), "--output",
             str(blocker / "sub"), "--analytic"]
        )
        assert code == 4


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

    def test_zero_trials_exit_2(self, tmp_path):
        cfg = self._cfg(tmp_path, trials=0)
        assert main(["bench", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2

    def test_estimator_recorded_in_ratio_config(self, tmp_path):
        cfg = tmp_path / "suite.json"
        write_json(
            cfg,
            {"estimator": "logistic", "task": {"n_s": 60, "n_t": 60, "family_size": 3}},
        )
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--output", str(out),
                     "--trials", "1"]) == 0
        doc = json.loads((out / "suite.json").read_text())
        assert doc["config"]["ratio"]["estimator"] == "logistic"
        methods = {r["method"] for r in doc["per_trial"][0]["rows"]}
        assert "aggregate_logistic" in methods and "aggregate_ulsif" not in methods

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

    def test_malformed_dump_exit_2(self, tmp_path):
        (tmp_path / "emb.json").write_text("{not json")
        assert main(["probe", "--input", str(tmp_path / "emb.json")]) == 2
