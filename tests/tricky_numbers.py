"""Hypothesis strategies for the numbers that are hardest to write with
``%d``, ``%.6f`` and ``%.10e``: exact rounding ties, powers of ten and
their neighbours, subnormals, signed zeros, non-finite values,
negatives and exponents past two digits."""

import math

from hypothesis import strategies as st


def _power_of_ten(e: int, side: int) -> float:
    """The float nearest ``10**e``, or its neighbour on ``side``, -1 or 1."""
    x = float(f"1e{e}")
    return math.nextafter(x, side * math.inf) if side else x


TIES = st.one_of(
    # 11 significant digits and then an exact 5: ties of %.10e
    st.integers(10**10, 10**11 - 1).map(lambda n: n + 0.5),
    st.integers(2**10, 10 * 2**10 - 1).map(lambda k: (2 * k + 1) / 2**11),
    # 7 significant digits and then an exact 5: ties of %.6f
    st.integers(2**6, 10 * 2**6 - 1).map(lambda k: (2 * k + 1) / 2**7),
)

FLOATS = st.one_of(
    TIES,
    TIES.map(lambda x: -x),
    st.builds(_power_of_ten, st.integers(-323, 308),
              st.sampled_from([-1, 0, 1])),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e100) | st.floats(min_value=0.0, max_value=1e-100),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]),
    st.floats(),
    st.floats(min_value=0.0, max_value=100.0),
)

INTS = (st.integers(0, 2**63 - 1) | st.integers(-2**63, -1)
        | st.sampled_from([0, 1, 9, 10, 2**63 - 1]))


def columns(*kinds, max_size: int = 30):
    """Lists of equal length, one per kind: ``INTS`` or ``FLOATS``."""
    return st.integers(1, max_size).flatmap(lambda n: st.tuples(
        *(st.lists(kind, min_size=n, max_size=n) for kind in kinds)))
