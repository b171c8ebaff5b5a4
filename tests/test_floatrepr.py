import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsync import floatrepr


def text(fields):
    """The strings a formatter's rows spell, NUL slots dropped."""
    return [bytes(row).replace(b"\0", b"").decode() for row in fields]


def from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(width=64), st.integers(0, 2**64 - 1).map(from_bits)), min_size=1, max_size=50))
def test_repr_fields_is_repr_on_any_float64(values):
    x = np.array(values, dtype=np.float64)
    assert text(floatrepr.repr_fields(x)) == [repr(v) for v in x.tolist()]


DIGITS_15_16_17 = [0.123456789012345, 0.1234567890123456, 0.12345678901234566, 12345.678901234567]
PINNED = DIGITS_15_16_17 + [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,  # zeros, subnormals, least normal
    1e-4, 1e-5, 0.00012345678901234567, -1.2345678901234567e-05,  # the point's last fixed place, and past it
    1e16, 9999999999999998.0, 1234567890123456.8, 123456789012345.0, 1e15 + 0.5,  # and at the other end
    2.0**-1022, 2.0**-100, 0.5, 1.0, 2.0, 2.0**52, 2.0**53, 2.0**100, 2.0**1023,  # powers of two
    0.1, 0.2 + 0.1, 1 / 3, 2 / 3, -1 / 7, 100 / 7, 1e23, 9.999999999999999e22,  # next to a power of ten too
    1.2345678901234567e-100, -9.876543210987654e200, 1e100, 1e-300, 1.7976931348623157e308,  # 3 exponent digits
    float("inf"), float("-inf"), float("nan"),
]


def test_repr_fields_on_pinned_cases():
    x = np.array(PINNED)
    assert text(floatrepr.repr_fields(x)) == [repr(v) for v in PINNED]
    # the fast path decides the 15-, 16- and 17-digit values, which repr spells as such
    fields, undecided = floatrepr.shortest_reprs(np.array(DIGITS_15_16_17))
    assert not undecided.any()
    assert [len(s.lstrip("0.").replace(".", "")) for s in text(fields)] == [15, 16, 17, 17]


def test_the_fast_path_decides_nearly_every_value():
    # a formatter that handed every value to repr would pass the tests above
    rng = np.random.default_rng(0)
    x = rng.uniform(-5, 5, 20000) * 10.0 ** rng.uniform(-8, 2, 20000)
    fields, undecided = floatrepr.shortest_reprs(x)
    assert undecided.mean() < 0.05
    assert text(fields[~undecided]) == [repr(v) for v in x[~undecided].tolist()]
