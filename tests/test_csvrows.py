"""The numpy row formatter of samples.csv against Python's own repr."""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt._csvrows import rows


def _repr_rows(values: np.ndarray) -> bytes:
    it = iter(values.tolist())
    return "".join(f"{r!r},{i!r}\r\n" for r, i in zip(it, it)).encode("ascii")


def _assert_rows_match_repr(values):
    values = np.asarray(values, dtype=np.float64)
    if len(values) % 2:
        values = np.append(values, 0.5)
    got, want = rows(values).split(b"\r\n"), _repr_rows(values).split(b"\r\n")
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:5]


# The fast path: normal floats with 1e-4 <= |x| < 1e4, biased exponents
# 1009 .. 1036.
_FAST_BITS = st.tuples(st.booleans(), st.integers(1009, 1036),
                       st.integers(0, 2 ** 52 - 1)).map(
    lambda t: (t[0] << 63) | (t[1] << 52) | t[2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1) | _FAST_BITS, min_size=1, max_size=64))
def test_any_bit_pattern_matches_repr(bits):
    # NaN payloads, -0, subnormals, inf and huge or tiny magnitudes go to
    # repr; the fast-path patterns check the kernel
    _assert_rows_match_repr(np.array(bits, dtype=np.uint64).view(np.float64))


class TestSweep:
    """Seeded sweeps aimed at the fast path: 2^16 floats or more each,
    2^18 and more together."""

    SIZE = 2 ** 16

    def test_random_mantissas(self):
        rng = np.random.default_rng(2018)
        magnitude = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), self.SIZE))
        _assert_rows_match_repr(magnitude * rng.choice([-1.0, 1.0], self.SIZE))

    def test_short_decimals(self):
        rng = np.random.default_rng(7)
        k = rng.integers(1, 10 ** 7, self.SIZE)
        j = rng.integers(0, 11, self.SIZE)
        _assert_rows_match_repr(k / 10.0 ** j)

    def test_neighbours_of_decimals(self):
        # +-1..3 ulp around d 10^j, where the shortest digits are few
        rng = np.random.default_rng(11)
        d = rng.integers(1, 10 ** 4, self.SIZE // 6) * 10.0 ** rng.integers(-8, 1, self.SIZE // 6)
        near = [d]
        for direction in (np.inf, 0.0):
            x = d
            for _ in range(3):
                x = np.nextafter(x, direction)
                near.append(x)
        _assert_rows_match_repr(np.concatenate(near))

    def test_trailing_zero_mantissas(self):
        # few significant bits: exact decimals, and halfway cases where two
        # shortest candidates are equally near (they go to the even one)
        rng = np.random.default_rng(13)
        m = rng.integers(2 ** 52, 2 ** 53, self.SIZE, dtype=np.uint64)
        zeros = rng.integers(0, 48, self.SIZE).astype(np.uint64)
        exponent = rng.integers(-66, -38, self.SIZE).astype(np.int32)
        _assert_rows_match_repr(np.ldexp((m >> zeros << zeros).astype(np.float64),
                                         exponent))

    def test_bounds_of_the_fast_path(self):
        bounds = np.array([1e-4, 1e4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0])
        near = [bounds]
        for direction in (np.inf, 0.0):
            x = bounds
            for _ in range(3):
                x = np.nextafter(x, direction)
                near.append(x)
        values = np.concatenate(near)
        _assert_rows_match_repr(np.concatenate([values, -values]))


def test_digit_tables_are_built_on_first_use():
    # importing the CLI builds no digit table; the first rows call builds it
    code = ("import innerclt.cli; from innerclt import _csvrows; "
            "assert _csvrows._tables.cache_info().currsize == 0; "
            "assert _csvrows.rows([0.5, -1.25]) == b'0.5,-1.25\\r\\n'; "
            "assert _csvrows._tables.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
