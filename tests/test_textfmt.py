import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blasius_pinn.textfmt import CHUNK, format_g17


def per_value(values, seps):
    return "".join("%.17g%s" % (x, seps[i % len(seps)]) for i, x in enumerate(values))


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_formats_as_percent(bits):
    x = from_bits(bits)
    assert "".join(format_g17((x,), "\n")) == per_value(x.tolist(), "\n")


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
# %g's switches between fixed point and exponent: 1e-4 and the double below
# it, and 1e17 and the double below it
@example([1e-4, math.nextafter(1e-4, 0.0), 9.9999999999999995e-5, 1e17,
          math.nextafter(1e17, 0.0), 1e16, math.nextafter(1e16, 0.0)])
# the doubles nearest a carry to 10^17: the largest below 1 and below 1e-11
@example([math.nextafter(1.0, 0.0), math.nextafter(1e-11, 0.0), 1e-11,
          math.nextafter(1e-11, 1.0)])
# powers of ten and the doubles either side of them
@example([v for p in (1e-5, 0.1, 1.0, 10.0, 1e15)
          for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))])
# exact ties at the 17th digit, 2^-25 and 11 * 2^-23: to even, down and up
@example([2.0 ** -25, 11 * 2.0 ** -23, -(2.0 ** -25)])
# zeros, subnormals and non-finite values
@example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, math.inf, -math.inf,
          math.nan])
def test_any_float_formats_as_percent(values):
    assert "".join(format_g17((np.array(values),), "\n")) == per_value(values, "\n")


def test_every_power_of_ten_and_its_neighbours():
    # log10 can round across a power of ten; the exponent is corrected there
    values = []
    for m in range(-323, 309):
        p = float(f"1e{m}")
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
        values += [math.nextafter(values[-3], 0.0), math.nextafter(values[-1], math.inf)]
    assert "".join(format_g17((np.array(values),), "\n")) == per_value(values, "\n")


def test_rows_across_passes():
    # CSV rows whose values span several passes of CHUNK values, with the
    # separator following each value's column
    rng = np.random.default_rng(0)
    rows = rng.normal(scale=10.0 ** rng.integers(-12, 18, (2 * CHUNK // 5 + 3, 5)))
    rows[::7, 4] = 0.0
    rows[3, 1] = math.nan
    assert "".join(format_g17(rows.T, ",,,,\n")) == per_value(rows.ravel().tolist(), ",,,,\n")
    assert "".join(format_g17(np.empty((0, 5)).T, ",,,,\n")) == ""
