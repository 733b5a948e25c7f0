import math
import random
import sys
from fractions import Fraction

import pytest

from topodist import Bound
from topodist.common import eps_needed


def test_bound_exact_only_when_ends_meet():
    assert Bound(0.5, 0.5).exact
    assert Bound(math.inf, math.inf).exact
    assert not Bound(0.25, 0.5).exact
    assert not Bound(0.0, math.inf).exact


def test_bound_rejects_inverted_and_nan_ends():
    with pytest.raises(ValueError, match="lower 2.0 and upper 1.0"):
        Bound(2.0, 1.0)
    with pytest.raises(ValueError, match="lower nan and upper 1.0"):
        Bound(math.nan, 1.0)
    with pytest.raises(ValueError, match="lower 0.0 and upper nan"):
        Bound(0.0, math.nan)


def least_float_at_least(q):
    """Reference for eps_needed: the least float >= the rational q, found by
    stepping from float(q) over neighbouring floats."""
    top = Fraction(sys.float_info.max)
    if q > top:
        return math.inf
    if q <= -top:
        return -sys.float_info.max
    e = float(q)
    while Fraction(e) < q:
        e = math.nextafter(e, math.inf)
    while Fraction(math.nextafter(e, -math.inf)) >= q:
        e = math.nextafter(e, -math.inf)
    return e


def test_eps_needed_matches_fraction_reference():
    rng = random.Random(53)
    values = [
        0.0, 0.1, 0.3, 1 / 3, 2 / 3, 1.0, 1 + 2**-52, 2**-53 + 2**-60,
        1e300, -1e300, 5e-324, -5e-324, 1e-308, -1e-308,
        *(rng.random() for _ in range(6)),
        *(rng.uniform(-1e6, 1e6) for _ in range(4)),
        *(rng.randint(-30, 30) / 10 for _ in range(4)),
    ]
    for factor in (1.0, 2.0, 4.0, 0.5, 3.0, 1.5):
        for x in values:
            for base in values:
                want = least_float_at_least((Fraction(x) - Fraction(base)) / Fraction(factor))
                assert eps_needed(x, base, factor) == want, (x, base, factor)


def test_eps_needed_decides_the_exact_inequality():
    # the float difference 1 + 2**-52 - (2**-53 + 2**-60) rounds down to 1.0
    x, base = 1 + 2**-52, 2**-53 + 2**-60
    assert x - base == 1.0
    assert eps_needed(x, base) == math.nextafter(1.0, math.inf)
    assert eps_needed(0.3, 0.1) == 0.19999999999999998  # the float difference is exact
    assert eps_needed(1.0, 0.0, 3.0) == math.nextafter(1 / 3, math.inf)
    assert eps_needed(1e308, -1e308) == math.inf
    assert eps_needed(2.0, 2.0) == 0.0
    # infinite heights (a merge-tree root may sit at inf) compare as floats do
    assert eps_needed(math.inf, math.inf) == eps_needed(0.0, math.inf) == -math.inf
    assert eps_needed(math.inf, 0.0) == eps_needed(0.0, -math.inf) == math.inf
