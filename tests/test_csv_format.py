"""``write_csv``'s array kernel against ``format(x, ".17g")``, byte for byte.

``reference`` is the table as the per-cell writer formats it: the id with
``%d``, every float with ``format(x, ".17g")``. The kernel must write the
same bytes for every finite float64, also for several tables written in one
pass by ``write_csvs``, hand exact ties to ``fmt_float``, and stay within
the traced memory of the ``%`` formatter it replaced.
"""

import hashlib
import os
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftagg import serialize
from shiftagg.data import load_bundle, write_bundle
from shiftagg.serialize import write_csv, write_csvs
from shiftagg.synth import SynthTaskConfig, generate_task

from conftest import build_bundle


def reference(header, rows) -> bytes:
    lines = [",".join(header)] + [
        ",".join([str(i)] + [format(x, ".17g") for x in row])
        for i, row in enumerate(np.asarray(rows, np.float64).tolist())
    ]
    return ("\n".join(lines) + "\n").encode()


def assert_written_like_reference(path, rows):
    header = ["id"] + [f"v_{j + 1}" for j in range(rows.shape[1])]
    digest = write_csv(path, header, rows)
    written = path.read_bytes()
    assert digest == hashlib.sha256(written).digest()
    expected = reference(header, rows)
    if written != expected:  # name the first cell that differs
        for got, want in zip(written.split(b"\n"), expected.split(b"\n")):
            assert got == want
    assert written == expected


def _finite(bits) -> np.ndarray:
    x = np.array(bits, np.uint64).view(np.float64)
    return x[np.isfinite(x)]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=60), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_bit_patterns_match_format(tmp_path_factory, bits, width):
    x = _finite(bits)
    x = x[: x.size - x.size % width].reshape(-1, width)
    assert_written_like_reference(tmp_path_factory.mktemp("bits") / "t.csv", x)


_shapes = st.tuples(st.integers(0, 12), st.integers(0, 4))
_doubles = st.floats(allow_nan=False, allow_infinity=False)


@given(arrays(np.float64, _shapes, elements=_doubles))
@settings(max_examples=300, deadline=None)
def test_floats_match_format(tmp_path_factory, x):
    assert_written_like_reference(tmp_path_factory.mktemp("floats") / "t.csv", x)


def _neighbours(x, k: int) -> np.ndarray:
    """The ``k`` doubles on each side of each positive ``x``, and ``x``."""
    bits = np.asarray(x, np.float64).view(np.int64)[:, None] + np.arange(-k, k + 1)
    return bits.view(np.float64).ravel()


def _ties() -> list[float]:
    """Doubles exactly halfway between two 17-digit decimals: ``m / 2**j``
    with ``m`` odd has ``j`` decimals ending in 5, and 18 significant digits
    when ``m * 5**j`` has 18 digits."""
    ties = []
    for j in range(2, 26):
        low = -(-(10**17) // 5**j) | 1
        high = min((10**18 - 1) // 5**j, 2**53 - 1)
        for m in {low, high - (1 - high % 2), (low + high) // 2 | 1}:
            if low <= m <= high:
                ties.append(m / 2**j)
    return ties


_CATALOGUE = np.concatenate([
    [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     9.9999999999999995e-07, 99999999999999999.0, 26215 / 2**18],
    _neighbours([float(f"1e{k}") for k in range(-200, 201)], 20),
    _neighbours([1e-5, 1e-4, 1e16, 1e17], 200),
    _ties(),
])


def test_catalogue_matches_format(tmp_path):
    x = np.concatenate([_CATALOGUE, -_CATALOGUE])
    three = x[: x.size // 3 * 3].reshape(-1, 3)
    assert_written_like_reference(tmp_path / "t.csv", three)
    assert_written_like_reference(tmp_path / "t.csv", x.reshape(-1, 1))


def test_ties_take_the_fallback(tmp_path, monkeypatch):
    ties = _ties()
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    fallback = []

    def spy(x):
        fallback.append(float(x))
        return format(float(x), ".17g")

    monkeypatch.setattr(serialize, "fmt_float", spy)
    x = np.array(ties + [-t for t in ties])[:, None]
    assert_written_like_reference(tmp_path / "t.csv", x)
    assert sorted(fallback) == sorted(x[:, 0].tolist())
    assert format(26215 / 2**18, ".17g") == "0.10000228881835938"


# Zeros, subnormals, the extremes, the exact tie, magnitudes at the edges
# of fixed notation (e = -5, -4, 16, 17) and outside [1e-180, 1e180].
_SPECIAL = np.array([
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    26215 / 2**18, 1e-5, 9.87654321e-5, 1e-4, 5.5e-4, 1e16, 3.3e16, 1e17,
    4.4e17, 1e-180, 1e180, 1e-181, 3e-200, 1e181, 2e250,
])


@given(
    st.sampled_from([1, 9, 10, 99, 100, 16385]),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_tables_of_one_pass_match_format(tmp_path_factory, n, widths, seed, group):
    rng = np.random.Generator(np.random.Philox(seed))
    pool = np.concatenate([_SPECIAL, _finite(rng.integers(0, 2**64, 64, np.uint64))])
    rows = rng.choice(np.concatenate([pool, -pool]), (n, sum(widths)))
    rows *= rng.standard_normal(rows.shape) < 1.0  # some zeros and runs
    root = tmp_path_factory.mktemp("tables")
    headers = [["id"] + [f"t{k}_{j}" for j in range(w)] for k, w in enumerate(widths)]
    tables = [(root / f"t{k}.csv", header) for k, header in enumerate(headers)]
    with mock.patch.object(serialize, "_CSV_GROUP", group):
        digests = write_csvs(rows, tables)
    stops = np.cumsum(widths)
    for (path, header), digest, stop, w in zip(tables, digests, stops, widths):
        written = path.read_bytes()
        assert digest == hashlib.sha256(written).digest()
        assert written == reference(header, rows[:, stop - w : stop])


def test_more_tables_than_a_group_match_format(tmp_path):
    rows = np.random.Generator(np.random.Philox(5)).standard_normal((300, 41))
    widths = [3] + [1] * 38 + [0]
    headers = [["id"] + [f"t{k}_{j}" for j in range(w)] for k, w in enumerate(widths)]
    tables = [(tmp_path / f"t{k}.csv", header) for k, header in enumerate(headers)]
    assert len(tables) > serialize._CSV_GROUP
    digests = write_csvs(rows, tables)
    stops = np.cumsum(widths)
    for (path, header), digest, stop, w in zip(tables, digests, stops, widths):
        written = path.read_bytes()
        assert digest == hashlib.sha256(written).digest()
        assert written == reference(header, rows[:, stop - w : stop])


def test_bundle_of_more_models_than_open_files(tmp_path):
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    lowest_free = os.open(os.devnull, os.O_RDONLY)
    os.close(lowest_free)
    limit = lowest_free + 2 * serialize._CSV_GROUP
    if hard != resource.RLIM_INFINITY and limit > hard:
        pytest.skip(f"the hard limit of open files ({hard}) is too low")
    bundle = build_bundle(m=limit + 1, n_s=3, n_t=4)
    resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
    try:
        write_bundle(bundle, tmp_path / "b")
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert load_bundle(tmp_path / "b") == bundle


def test_tables_must_split_the_columns(tmp_path):
    with pytest.raises(ValueError, match="tables of 3 columns"):
        write_csvs(np.zeros((2, 2)), [(tmp_path / "a.csv", ["id", "a", "b", "c"])])
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 101, 10001])
@pytest.mark.parametrize("width", [0, 1, 2])
def test_ids_match_format(tmp_path, n, width):
    x = np.random.Generator(np.random.Philox(n)).standard_normal((n, width))
    scale = 10.0 ** (np.arange(n) % 9 - 6)[:, None]
    assert_written_like_reference(tmp_path / "t.csv", x * scale)


def test_id_only_target_csv(tmp_path):
    write_bundle(build_bundle(m=1, n_t=12, with_features=False), tmp_path / "b")
    text = "id\n" + "".join(f"{i}\n" for i in range(12))
    assert (tmp_path / "b" / "target.csv").read_text() == text


def test_traced_peak_of_a_20000_by_7_table(tmp_path):
    # The "%" formatter this kernel replaced peaked at 12.3 MB on this table.
    x = np.random.Generator(np.random.Philox(3)).standard_normal((20000, 7))
    header = ["id"] + [f"x_{j + 1}" for j in range(7)]
    write_csv(tmp_path / "t.csv", header, x)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", header, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12.3e6


def test_traced_peak_of_a_default_bundle(tmp_path):
    # Holding a whole side's text peaked at 10.6 MiB; one table at a time, 6.8.
    bundle = generate_task(
        SynthTaskConfig(n_s=5000, n_t=5000, family_size=20, seed=0)
    ).bundle
    write_bundle(bundle, tmp_path / "b")
    tracemalloc.start()
    try:
        write_bundle(bundle, tmp_path / "b")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
