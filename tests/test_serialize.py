"""Float formatting and canonical JSON/CSV determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftagg.ratio import RatioFitConfig
from shiftagg.serialize import (
    aligned_table,
    config_from_dict,
    config_to_dict,
    dumps_canonical,
    fmt_float,
    read_csv,
    write_csv,
)
from shiftagg.synth import SuiteConfig, SynthTaskConfig


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_fmt_float_round_trips_exactly(x):
    assert float(fmt_float(x)) == x or (x == 0.0 and float(fmt_float(x)) == 0.0)


def test_fmt_float_rejects_non_finite():
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


def test_canonical_json_is_valid_and_stable():
    doc = {
        "b": [1, 2.5, None, True],
        "a": {"nested": np.float64(1 / 3)},
        "arr": np.arange(3.0),
        "s": 'quote " and unicode é',
    }
    text = dumps_canonical(doc)
    assert text == dumps_canonical(doc)
    parsed = json.loads(text)
    assert parsed["a"]["nested"] == 1 / 3
    assert parsed["arr"] == [0.0, 1.0, 2.0]


def test_csv_round_trip(tmp_path):
    rows = [[0, 1 / 3, "x"], [1, 2.0 ** -45, "y"]]
    write_csv(tmp_path / "t.csv", ["id", "v", "tag"], rows)
    header, out = read_csv(tmp_path / "t.csv")
    assert header == ["id", "v", "tag"]
    assert float(out[0][1]) == 1 / 3
    assert float(out[1][1]) == 2.0 ** -45


def test_aligned_table_pads_columns():
    text = aligned_table(["name", "v"], [["long-name", "1"], ["x", "22"]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)


_positive = st.floats(min_value=1e-6, max_value=1e6)
_grid = st.lists(_positive, min_size=1, max_size=4).map(tuple)
_seed = st.integers(min_value=0, max_value=2**63)


@st.composite
def _task_configs(draw):
    d1 = draw(st.integers(1, 4))
    mean = st.lists(st.floats(-5, 5), min_size=d1, max_size=d1).map(tuple)
    return SynthTaskConfig(
        d1=d1,
        d2=draw(st.integers(1, 3)),
        n_s=draw(st.integers(1, 10**6)),
        n_t=draw(st.integers(1, 10**6)),
        source_mean=draw(st.none() | mean),
        target_mean=draw(st.none() | mean),
        shared_cov_scale=draw(_positive),
        noise_std=draw(st.floats(0, 10)),
        bayes_kind=draw(st.sampled_from(["linear", "fourier"])),
        model_family=draw(st.sampled_from(["ridge_grid", "random_features"])),
        family_size=draw(st.integers(1, 50)),
        ridge_grid=draw(st.none() | _grid),
        seed=draw(_seed),
    )


_ratio_configs = st.builds(
    RatioFitConfig,
    estimator=st.sampled_from(["ulsif", "logistic"]),
    kernel_widths=st.none() | _grid,
    ridge_strengths=_grid,
    n_centers=st.none() | st.integers(1, 500),
    cv_folds=st.integers(2, 10),
    bound=_positive,
    seed=_seed,
)


@st.composite
def _suite_configs(draw):
    ratio = draw(_ratio_configs)
    return SuiteConfig(
        task=draw(_task_configs()),
        estimator=draw(st.sampled_from([None, ratio.estimator])),
        ratio=ratio,
        lam=draw(st.none() | _positive),
    )


@given(st.one_of(_task_configs(), _ratio_configs, _suite_configs()))
@settings(max_examples=200, deadline=None)
def test_config_dict_round_trip(cfg):
    doc = json.loads(dumps_canonical(config_to_dict(cfg)))
    assert config_from_dict(type(cfg), doc) == cfg
