"""The vectorized CSV encoder against the per-value "%.17g" writer."""

import io
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from mwright import _csv
from test_ggbm import _EDGE_VALUES


def _per_value(values) -> bytes:
    """The reference: one "%.17g" per value, ',' and '\\n' between."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in values).encode()


_SHAPES = st.tuples(st.integers(0, 40), st.integers(1, 6))


def _bits(shape):
    return hnp.arrays(np.uint64, shape, elements=st.integers(0, 2**64 - 1))


class TestEncodeRows:
    @given(data=st.data(), shape=_SHAPES)
    def test_any_bit_pattern(self, data, shape):
        values = data.draw(_bits(shape)).view(np.float64)
        assert _csv.encode_rows(values) == _per_value(values)

    @given(data=st.data(), shape=_SHAPES)
    def test_any_float(self, data, shape):
        values = data.draw(hnp.arrays(np.float64, shape,
                                      elements=st.floats()))
        assert _csv.encode_rows(values) == _per_value(values)

    @given(data=st.data(), shape=_SHAPES)
    def test_edge_values(self, data, shape):
        edges = _EDGE_VALUES + [np.inf, -np.inf, np.nan, -np.nan]
        values = data.draw(hnp.arrays(np.float64, shape,
                                      elements=st.sampled_from(edges)))
        assert _csv.encode_rows(values) == _per_value(values)

    @given(data=st.data(), shape=_SHAPES)
    def test_exact_ties(self, data, shape):
        # k 2^-25, k odd: 2^-25 itself has 18 significant digits ending
        # in 5, so "%.17g" rounds a tie to even
        odd = data.draw(hnp.arrays(np.int64, shape,
                                   elements=st.integers(-2**40, 2**40)))
        values = (2 * odd + 1) * 2.0 ** -25
        assert _csv.encode_rows(values) == _per_value(values)

    def test_near_ties(self):
        # a = m 2^-(d+k) with m 5^k = 2^(d-1) + r (mod 2^d): the 17-digit
        # scaling a 10^k = m 5^k / 2^d lies r / 2^d from a half-integer, so
        # close that the double-double fraction cannot tell the side
        values = []
        for k, d in [(24, 53), (25, 55), (26, 56), (26, 57), (27, 59),
                     (28, 62)]:
            inv = pow(5 ** k, -1, 1 << d)
            for r in range(-64, 65):
                m = ((1 << (d - 1)) + r) * inv % (1 << d)
                if (r and (1 << 52) <= m < (1 << 53)
                        and 10 ** 16 <= m * 5 ** k >> d < 10 ** 17):
                    values.append(math.ldexp(m, -d - k))
        values = np.array(values)[:, None]
        assert len(values) > 20
        assert _csv.encode_rows(values) == _per_value(values)

    def test_every_exponent_and_digit_count(self):
        # every decimal exponent, fixed and scientific, each with 1 to 17
        # significant digits and trailing zeros after the point
        mantissas = ["1", "1.5", "12.25", "123456789", "9.999999999999999",
                     "1.2340000000000001", "5.0000000000000005", "3.14159"]
        values = np.array([float(f"{m}e{x}") for x in range(-330, 309)
                           for m in mantissas])
        values = np.concatenate([values, -values, np.nextafter(values, 0)])
        values = values[:values.size // 7 * 7].reshape(-1, 7)
        assert _csv.encode_rows(values) == _per_value(values)

    def test_round_trip_bits(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**63, (50, 4)).astype(np.uint64)
        values = (values | np.uint64(1 << 63) * (values & np.uint64(1))
                  ).view(np.float64)
        text = _csv.encode_rows(values).decode()
        back = np.array([[float(v) for v in line.split(",")]
                         for line in text.splitlines()])
        finite = np.isfinite(values)
        assert back[finite].tobytes() == values[finite].tobytes()


class TestWriteRows:
    @pytest.mark.parametrize("rows", [None, 1, 7, 1000])
    def test_blocks_join_to_one_encoding(self, monkeypatch, rows):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((2500, 5)) * 10.0 ** rng.integers(
            -30, 30, (2500, 5))
        if rows is not None:  # blocks of `rows` rows of 5 values
            monkeypatch.setattr(_csv, "_BLOCK", 5 * rows)
        binary, text = io.BytesIO(), io.StringIO()
        _csv.write_rows(binary, values)
        _csv.write_rows(text, values)
        want = _per_value(values)
        assert binary.getvalue() == want
        assert text.getvalue() == want.decode()

    def test_no_rows_write_nothing(self):
        out = io.BytesIO()
        _csv.write_rows(out, np.empty((0, 3)))
        assert out.getvalue() == b""
