"""Every JSON input and numeric flag ends in exit 0, 2 or 4, never in a
traceback: configs, ratio.json, manifest.json and embedding dumps decode
through one typed decoder, which also refuses non-finite numbers."""

import copy
import functools
import io
import json
import math
import operator
import os
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftagg import synth
from shiftagg.cli import main
from shiftagg.data import LayerEmbeddings, LayerEmbeddingSet, write_bundle
from shiftagg.data import write_embeddings
from shiftagg.errors import ConfigInvalid, DimensionMismatch, NonConvergence
from shiftagg.errors import NonFiniteValue
from shiftagg.ratio import RatioFitConfig, analytic_gaussian_ratio, fit_ratio
from shiftagg.ratio import ratio_model_to_dict, save_ratio_model
from shiftagg.serialize import config_to_dict, decode_value, dumps_canonical
from shiftagg.synth import SuiteConfig, SynthTaskConfig, generate_task

from conftest import build_bundle


@pytest.fixture
def task_dir(tmp_path):
    task = generate_task(SynthTaskConfig(n_s=40, n_t=40, family_size=3, seed=60))
    path = tmp_path / "task"
    write_bundle(task.bundle, path)
    save_ratio_model(task.analytic_ratio, path / "analytic_ratio.json")
    return path


def _run(argv):
    """Exit code and stderr of one CLI call."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def _assert_typed_exit(code, err):
    assert code in (0, 2, 4), err
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err, err


_HUGE = "1" + "0" * 400  # a JSON integer that no float holds


@pytest.mark.parametrize(
    "argv",
    [
        ["aggregate", "--analytic", "--lambda", "nan"],
        ["aggregate", "--analytic", "--lambda", "inf"],
        ["select", "--analytic", "--lambda", "nan"],
        ["select", "--analytic", "--lambda", "inf"],
        ["probe", "--epsilon", "nan"],
        ["probe", "--epsilon", "inf"],
        ["probe", "--epsilon", "1", "--lipschitz", "inf"],
        ["probe", "--epsilon", "1e300", "--lipschitz", "1e300"],
    ],
    ids=lambda argv: "_".join(argv).replace("-", ""),
)
def test_non_finite_numeric_flag_exit_2(argv, task_dir, tmp_path):
    if argv[0] == "probe":
        emb = LayerEmbeddingSet(layers=(LayerEmbeddings(1, np.zeros((1, 2)),
                                                        np.ones((1, 2))),))
        write_embeddings(emb, tmp_path / "emb.json")
        argv = argv + ["--input", str(tmp_path / "emb.json"), "--output",
                       str(tmp_path / "report.json")]
    else:
        argv = argv + ["--input", str(task_dir), "--output", str(tmp_path / "out")]
    code, err = _run(argv)
    assert code == 2 and err.startswith("error: ") and "finite" in err, err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["bench", "--trials", "1", "--seed", "-1"],
         '{"task": {"n_s": 20, "n_t": 20, "family_size": 2}}'),
        (["estimate-ratio", "--seed", "-1"], "{}"),
        (["estimate-ratio"], '{"seed": -3}'),
    ],
    ids=["bench_flag", "estimate_ratio_flag", "estimate_ratio_config"],
)
def test_negative_seed_exit_2(argv, config, task_dir, tmp_path):
    (tmp_path / "cfg.json").write_text(config)
    argv = argv + ["--config", str(tmp_path / "cfg.json"), "--output",
                   str(tmp_path / "out")]
    if argv[0] == "estimate-ratio":
        argv += ["--input", str(task_dir)]
    code, err = _run(argv)
    assert code == 2 and err.startswith("error: ") and "seed must be >= 0" in err


@pytest.mark.parametrize("command", ["probe", "bench"])
def test_deeply_nested_json_exit_2(command, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    flag = "--input" if command == "probe" else "--config"
    code, err = _run([command, flag, str(path), "--output", str(tmp_path / "out")])
    assert code == 2 and err.startswith(f"error: {path}: ") and "nested" in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("estimate-ratio", '{"kernel_widths": [Infinity, 1.0]}'),
        ("estimate-ratio", '{"bound": Infinity}'),
        ("estimate-ratio", '{"estimator": "logistic", "ridge_strengths": [NaN]}'),
        ("bench", '{"task": {"noise_std": NaN}}'),
        ("bench", '{"task": {"shared_cov_scale": Infinity}}'),
        ("bench", '{"task": {"source_mean": [NaN, 0, 0, 0, 0]}}'),
        ("bench", '{"task": {"ridge_grid": [NaN]}}'),
        ("bench", '{"lambda": NaN}'),
        ("bench", '{"lambda": Infinity}'),
        ("bench", '{"ratio": {"bound": Infinity}}'),
        ("bench", '{"trials": ' + _HUGE + "}"),
        ("bench", '{"task": {"noise_std": ' + _HUGE + "}}"),
    ],
    ids=["infinite_width", "infinite_bound", "nan_ridge", "nan_noise",
         "infinite_cov_scale", "nan_mean", "nan_ridge_grid", "nan_lambda",
         "infinite_lambda", "infinite_ratio_bound", "huge_trials", "huge_noise"],
)
def test_non_finite_config_value_exit_2(command, text, task_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--output", str(tmp_path / "out")]
    argv += ["--input", str(task_dir)] if command == "estimate-ratio" else []
    code, err = _run(argv)
    assert code == 2 and err.startswith("error: ") and "must be finite" in err, err


@pytest.mark.parametrize("document", ["manifest", "ratio"])
def test_number_too_large_for_a_float_exit_2(document, task_dir, tmp_path):
    name, key = {"manifest": ("manifest.json", "d2"),
                 "ratio": ("analytic_ratio.json", "bound")}[document]
    path = task_dir / name
    doc = json.loads(path.read_text())
    doc[key] = "HUGE"
    path.write_text(json.dumps(doc).replace('"HUGE"', _HUGE))
    code, err = _run(["aggregate", "--input", str(task_dir), "--output",
                      str(tmp_path / "out"), "--analytic"])
    assert code == 2 and err.startswith(f"error: {path}: ") and repr(key) in err, err


_DUMP = {"layers": [{"l": 1, "p": [[0.0, 1.0], [1.0, 0.0]], "q": [[1.0, 1.0]]}]}


@pytest.mark.parametrize(
    "edit, key",
    [
        ({"l": 1.9}, "l"),
        ({"l": "2"}, "l"),
        ({"l": True}, "l"),
        ({"p": [["0", "1"], ["1", "0"]]}, "p"),
        ({"p": [[True, False], [False, True]]}, "p"),
        ({"pairing": [[1.5, 0]]}, "pairing"),
        ({"pairing": [["1", "0"]]}, "pairing"),
        ({"provenance": ["x"]}, "provenance"),
    ],
    ids=["fractional_l", "string_l", "bool_l", "string_p", "bool_p",
         "fractional_pairing", "string_pairing", "list_provenance"],
)
def test_wrong_typed_dump_exit_2(edit, key, tmp_path):
    doc = json.loads(json.dumps(_DUMP))
    if key in ("l", "p"):
        doc["layers"][0].update(edit)
    else:
        doc.update(edit)
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(doc))
    code, err = _run(["probe", "--input", str(path)])
    assert code == 2 and err.startswith(f"error: {path}: ") and repr(key) in err, err


_1E400 = "<1e400>"  # written as the JSON text 1e400, which reads as infinity
_FRACTION = "<fraction>"  # a fractional number, in an integer's place if one
_VALUES = [True, "x", None, [], {}, math.nan, math.inf, -math.inf, _1E400,
           10**400, _FRACTION]


@functools.lru_cache(maxsize=1)
def _json_fuzz_seeds() -> tuple[dict, dict]:
    """File name -> bytes of a small bundle, and name -> each JSON document
    the fuzz mutates: ratio.json of all three kinds, a suite config, an
    estimate-ratio config, the bundle's manifest.json and an embedding dump."""
    bundle = build_bundle(m=2, n_s=12, n_t=12, with_oracle=True, seed=5)
    xs, xt = bundle.source.features, bundle.target.features
    task = SynthTaskConfig(d1=2, n_s=20, n_t=20, family_size=2)
    ratio_cfg = RatioFitConfig(kernel_widths=(0.5, 1.0), n_centers=4, cv_folds=2)
    docs = {
        "ratio_analytic": ratio_model_to_dict(
            analytic_gaussian_ratio([0.0, 0.0], [0.5, 0.0], 1.0)
        ),
        "ratio_ulsif": ratio_model_to_dict(fit_ratio(xs, xt, ratio_cfg)),
        "ratio_logistic": ratio_model_to_dict(
            fit_ratio(xs, xt, ratio_cfg, "logistic")
        ),
        "suite": {"trials": 1, "seed": 3,
                  **config_to_dict(SuiteConfig(task=task, ratio=ratio_cfg))},
        "ratio_config": {"estimator": "ulsif", **config_to_dict(ratio_cfg)},
        "dump": {"layers": [{"l": 1, "p": [[0.0, 1.0], [1.0, 0.0]],
                             "q": [[1.0, 1.0], [0.5, 0.0]]}],
                 "pairing": [[0, 1], [1, 0]], "provenance": "fuzz"},
    }
    with tempfile.TemporaryDirectory() as d:
        write_bundle(bundle, d)
        files = {p.name: p.read_bytes() for p in pathlib.Path(d).iterdir()}
    docs["manifest"] = json.loads(files["manifest.json"])
    return files, json.loads(dumps_canonical(docs))


def _json_paths(value, path=()):
    """Every path into a JSON value, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, v in items:
            yield from _json_paths(v, path + (key,))


@pytest.mark.parametrize(
    "config, flags, key",
    [
        ({"trials": 10**20}, [], "trials"),
        ({}, ["--trials", str(10**20)], "trials"),
        ({"task": {"n_s": 10**20}}, [], "n_s"),
        ({"task": {"n_t": 10**20}}, [], "n_t"),
        ({"task": {"d1": 10**20}}, [], "d1"),
        ({"task": {"d1": 2**31, "model_family": "ridge_grid"}}, [], "d1"),
        ({"task": {"d2": 10**18}}, [], "d2"),
        ({"task": {"family_size": 10**20}}, [], "family_size"),
        ({"task": {"n_s": 2**40, "d1": 2**30}}, [], "n_s"),
    ],
    ids=["trials", "trials_flag", "n_s", "n_t", "d1", "d1_ridge_grid", "d2",
         "family_size", "n_s_times_d1"],
)
def test_unaddressable_size_exit_2(config, flags, key, tmp_path):
    """A size whose arrays could not be addressed is refused before any is
    allocated; every value here is one that is refused."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, err = _run(["bench", "--config", str(cfg), "--output",
                      str(tmp_path / "out"), *flags])
    assert code == 2 and err.startswith(f"error: {key} = "), err


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_fuzzed_json_inputs_exit_0_2_or_4(data):
    """Mutate one JSON input and run the command that reads it.

    A mutation drops a key or list entry, wraps a value in a list, or
    replaces a value (or the whole document) with a boolean, a string, a
    null, a list, an object, NaN, an infinity, 1e400, a 400-digit integer
    or a fractional number.
    """
    files, docs = _json_fuzz_seeds()
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    kind = data.draw(st.sampled_from(["drop", "wrap", "replace"]) if path
                     else st.just("replace"))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    old = parent[path[-1]] if path else doc
    if kind == "drop":
        del parent[path[-1]]
    else:
        new = [old] if kind == "wrap" else data.draw(st.sampled_from(_VALUES))
        if new == _FRACTION:
            new = old + 0.5 if type(old) is int else 0.5
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    text = json.dumps(doc).replace(json.dumps(_1E400), "1e400")
    with tempfile.TemporaryDirectory() as d:
        bundle_dir, out = os.path.join(d, "b"), os.path.join(d, "out")
        os.makedirs(bundle_dir)
        for fname, body in files.items():
            pathlib.Path(bundle_dir, fname).write_bytes(body)
        doc_path = os.path.join(bundle_dir if name == "manifest" else d,
                                "manifest.json" if name == "manifest" else "doc.json")
        pathlib.Path(doc_path).write_text(text)
        if name.startswith("ratio_"):
            command = data.draw(st.sampled_from(["aggregate", "select"]))
            argv = [command, "--input", bundle_dir, "--ratio", doc_path]
        else:
            argv = {
                "suite": ["bench", "--config", doc_path, "--trials", "1"],
                "ratio_config": ["estimate-ratio", "--input", bundle_dir,
                                 "--config", doc_path],
                "manifest": ["select", "--input", bundle_dir],
                "dump": ["probe", "--input", doc_path],
            }[name]
        _assert_typed_exit(*_run(argv + ["--output", out]))


class TestDecodeValue:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize(
        "tp, wrap",
        [(float, lambda v: v), (int, lambda v: v),
         (tuple[float, ...], lambda v: [1.0, v]), (np.ndarray, lambda v: [[1.0, v]])],
        ids=["float", "int", "tuple", "array"],
    )
    def test_non_finite_or_overflowing_number_is_refused(self, tp, wrap, value):
        with pytest.raises(NonFiniteValue, match="'k'"):
            decode_value(tp, wrap(value), "k")

    def test_array_is_rectangular_float64(self):
        out = decode_value(np.ndarray, [[1, 2.5], [3, 4]], "k")
        assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.5], [3.0, 4.0]]
        assert decode_value(np.ndarray, out, "k").tolist() == out.tolist()
        assert decode_value(np.ndarray, ((1, 2),), "k").shape == (1, 2)
        with pytest.raises(DimensionMismatch, match="ragged"):
            decode_value(np.ndarray, [[1.0, 2.0], [3.0]], "k")

    @pytest.mark.parametrize(
        "value", [[[1.0, True]], [["1"]], [[None]], [[1.0], 2.0], 1.0, "x",
                  np.array([True])],
    )
    def test_array_of_anything_but_numbers_is_refused(self, value):
        with pytest.raises(ConfigInvalid, match="numbers"):
            decode_value(np.ndarray, value, "k")

    def test_deep_nesting_does_not_recurse(self):
        deep = json.loads("[" * 900 + "]" * 900)
        with pytest.raises(ConfigInvalid, match="rectangular list"):
            decode_value(np.ndarray, deep, "k")

    def test_fixed_length_tuple(self):
        assert decode_value(tuple[int, int], [1, 2.0], "k") == (1, 2)
        for value in ([1], [1, 2, 3], [1, 2.5]):
            with pytest.raises(ConfigInvalid, match="'k'"):
                decode_value(tuple[int, int], value, "k")

    def test_dict_passes_an_object(self):
        doc = {"a": [1]}
        assert decode_value(dict, doc, "block") is doc
        with pytest.raises(ConfigInvalid, match="the block block must be"):
            decode_value(dict, [doc], "block")


def test_run_suite_stops_after_a_failed_trial(monkeypatch):
    calls = []

    def failing_trial(cfg, trial, *seeds):
        calls.append(trial)
        raise NonConvergence(f"trial {trial} failed")

    monkeypatch.setattr(synth, "_run_trial", failing_trial)
    with pytest.raises(NonConvergence):
        synth.run_suite(SuiteConfig(), 50, 0)
    assert calls == [0]
