"""``write_csv``'s array kernel against ``format(x, ".17g")``, byte for byte.

``reference`` is the table as the per-cell writer formats it: the id with
``%d``, every float with ``format(x, ".17g")``. The kernel must write the
same bytes for every finite float64, hand exact ties to ``fmt_float``, and
stay within the traced memory of the ``%`` formatter it replaced.
"""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftagg import serialize
from shiftagg.data import write_bundle
from shiftagg.serialize import write_csv

from conftest import build_bundle


def reference(header, rows) -> bytes:
    lines = [",".join(header)] + [
        ",".join([str(i)] + [format(x, ".17g") for x in row])
        for i, row in enumerate(np.asarray(rows, np.float64).tolist())
    ]
    return ("\n".join(lines) + "\n").encode()


def assert_written_like_reference(path, rows):
    header = ["id"] + [f"v_{j + 1}" for j in range(rows.shape[1])]
    written = write_csv(path, header, rows)
    assert written == path.read_bytes()
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
