"""The array speller against float.__repr__, and the stacked row dot against np.dot.

Both feed the bytes of every written file: a token that differs from repr,
or a row dot that rounds differently from np.dot, changes a trace or a
certificate, so each must match bit for bit with no tolerance.
"""

import json
import math
import struct

import numpy as np
import pytest

from accelcert import harness
from accelcert._floatrepr import BLOCK, reprs
from accelcert.lyapunov import row_dots

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    want = list(map(float.__repr__, values.tolist()))
    got = reprs(values)
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert wrong == [], f"{len(wrong)} tokens differ from repr, e.g. {wrong[:5]}"


def _edge_values() -> list[float]:
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
              1.7976931348623157e308, 1e15, 1e16, 9999999999999998.0, 1e-4, 1e-5, 0.1 + 0.2,
              math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0, 123456789012345678.0]
    values += [2.0 ** 53 + delta for delta in (-2, -1, 1, 2)]
    values += [2.0 ** e for e in range(-1074, 1024)]
    values += [float(f"1e{e}") for e in range(-323, 309)]
    finite = [v for v in values if math.isfinite(v)]
    with np.errstate(over="ignore"):
        values += np.nextafter(finite, np.inf).tolist() + np.nextafter(finite, -np.inf).tolist()
    return values + [-v for v in values]


def test_reprs_match_repr_on_edge_values():
    _assert_reprs(_edge_values())


def test_reprs_match_repr_on_random_bit_patterns():
    # Every exponent, subnormals, infinities and NaN payloads included.
    bits = np.random.default_rng(20240517).integers(0, 2 ** 64, 200_000, dtype=np.uint64,
                                                    endpoint=False)
    bits[:64] |= np.uint64(0x7FF << 52)  # infinities and NaN payloads
    bits[64:128] &= np.uint64((1 << 63) | ((1 << 52) - 1))  # zeros and subnormals
    _assert_reprs(bits.view(np.float64))


def test_reprs_match_repr_on_typical_values():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
    _assert_reprs(np.concatenate([values, np.round(values, 3), np.arange(-3000.0, 3000.0) / 8]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_reprs_match_repr_on_any_floats(values):
    _assert_reprs(values)


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_reprs_across_block_edges(n):
    values = np.random.default_rng(n).standard_normal(n) * 1e3
    values[::7] = 0.0
    _assert_reprs(values)


def test_reprs_spell_other_values_with_the_given_function():
    values = np.array([1.5, math.nan, -math.inf, 0.0, -0.0, 5e-324, math.inf])
    tokens = reprs(values, harness._json_token)
    assert tokens == ["1.5", "NaN", "-Infinity", "0.0", "-0.0", "5e-324", "Infinity"]
    assert tokens == [json.dumps(v) for v in values.tolist()]


def _bits(array):
    return [struct.pack("<d", v) for v in np.asarray(array).tolist()]


@pytest.mark.parametrize("d", [1, 2, 3, 50])
def test_row_dots_equal_per_row_np_dot(d):
    rng = np.random.default_rng(d)
    # Rows spanning 1e-20..1e20, mixed signs, -0.0 and exact zeros among them.
    a = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-20, 20, (2000, d))
    a[0] = 0.0
    a[1] = -0.0
    a[2::5, 0] = -0.0
    want = [np.dot(row, row) for row in a]
    assert _bits(row_dots(a)) == _bits(want)
    # The layout row_dots sees in _energies and _grad_norm: a C-contiguous
    # array and a row slice of one.
    assert _bits(row_dots(a[:1000])) == _bits(want[:1000])
