"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import functools
import io
import json
import os
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftagg import aggregation
from shiftagg.cli import main
from shiftagg.data import (
    PredictionBundle,
    write_bundle,
    write_embeddings,
    LayerEmbeddings,
    LayerEmbeddingSet,
)
from shiftagg.serialize import read_csv, write_csv, write_json
from shiftagg.synth import SynthTaskConfig, generate_task
from shiftagg.ratio import analytic_gaussian_ratio, save_ratio_model

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

    def test_one_source_row_exit_2(self, tmp_path, capsys):
        write_bundle(build_bundle(n_s=1, n_t=4), tmp_path / "b")
        code = main(
            ["estimate-ratio", "--input", str(tmp_path / "b"), "--output",
             str(tmp_path / "out")]
        )
        assert code == 2
        assert "n_s=1" in capsys.readouterr().err


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
        assert main(args) == 0
        assert len(calls) == 1
        fraction = json.loads((out / "result.json").read_text())["diagnostics"][
            "beta_saturation_fraction"
        ]
        task = generate_task(SynthTaskConfig(n_s=80, n_t=80, family_size=3, seed=60))
        beta = real(model, task.bundle.source.features)
        assert fraction == float(np.mean(beta >= 1.0))
        assert 0.0 < fraction < 1.0

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


@functools.lru_cache(maxsize=1)
def _fuzz_seed_files() -> dict:
    """File name -> text of a small bundle and its beta.csv."""
    with tempfile.TemporaryDirectory() as d:
        write_bundle(build_bundle(m=2, n_s=5, n_t=4, with_oracle=True, seed=3), d)
        write_csv(os.path.join(d, "beta.csv"), ["id", "beta"], np.ones((5, 1)))
        return {p.name: p.read_text() for p in pathlib.Path(d).iterdir()}


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


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_bundle_and_beta_exit_0_2_or_4(data):
    files = dict(_fuzz_seed_files())
    name = data.draw(st.sampled_from(sorted(n for n in files if n.endswith(".csv"))))
    kind = data.draw(st.sampled_from(_FUZZ_KINDS))
    files[name] = _mutate(data.draw, files[name], kind)
    with tempfile.TemporaryDirectory() as d:
        bundle_dir = os.path.join(d, "b")
        os.makedirs(bundle_dir)
        for fname, text in files.items():
            with open(os.path.join(bundle_dir, fname), "w", newline="") as fh:
                fh.write(text)
        argv = ["select", "--input", bundle_dir, "--output", os.path.join(d, "out"),
                "--beta", os.path.join(bundle_dir, "beta.csv")]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 2, 4), err.getvalue()
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
