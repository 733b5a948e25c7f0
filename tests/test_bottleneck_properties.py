"""Property tests: the bottleneck distance commutes exactly with scaling by a
power of two and with a dyadic shift of every coordinate."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from topodist.bottleneck import bottleneck_bruteforce, bottleneck_distance
from topodist.persistence import PersistenceDiagram

# (birth, persistence) in eighths on a narrow range, so costs tie often;
# a persistence of None is an infinite death
POINT = st.tuples(st.integers(0, 8), st.one_of(st.none(), st.integers(1, 8)))
DIAGRAM = st.lists(POINT, max_size=8).map(
    lambda pts: PersistenceDiagram(
        0, tuple((b / 8, math.inf if p is None else (b + p) / 8) for b, p in pts)
    )
)


def moved(d, scale, shift):
    return PersistenceDiagram(
        d.degree, tuple((scale * b + shift, scale * e + shift) for b, e in d.points)
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(DIAGRAM, DIAGRAM, st.integers(-20, 20), st.integers(-512, 512))
def test_scale_and_shift_change_the_distance_exactly(d1, d2, k, c):
    # every coordinate stays dyadic within 53 bits, so no step rounds
    scale, shift = 2.0**k, c / 64
    dist, _ = bottleneck_distance(d1, d2)
    assert dist == bottleneck_bruteforce(d1, d2)
    assert bottleneck_distance(moved(d1, scale, shift), moved(d2, scale, shift))[0] == scale * dist
