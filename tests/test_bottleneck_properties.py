"""Property tests: the bottleneck distance commutes exactly with scaling by a
power of two and with a dyadic shift of every coordinate, and it matches the
brute-force oracle on coordinates whose differences round."""

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


# coordinates like those of gen.non_dyadic_vertex_function
COORDS = (
    st.integers(-6, 6).map(lambda k: k / 3),
    st.integers(-20, 20).map(lambda k: k / 10),
    st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def non_dyadic_pair(draw):
    coord = draw(st.sampled_from(COORDS))

    def diagram():
        ends = draw(st.lists(st.tuples(coord, st.one_of(st.none(), coord)), max_size=8))
        return PersistenceDiagram(0, tuple(
            (b, math.inf) if e is None else (min(b, e), max(b, e)) for b, e in ends if b != e
        ))

    return diagram(), diagram()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(non_dyadic_pair())
def test_non_dyadic_coordinates_match_the_oracle(pair):
    d1, d2 = pair
    assert bottleneck_distance(d1, d2)[0] == bottleneck_bruteforce(d1, d2)


@pytest.mark.parametrize(
    "b, y",
    [
        (1.0, -(2.0**-60)),  # fl(b - y) == 1.0 although b - y exceeds 1 exactly
        (-1.9, 0.9),  # b + fl(y - b) rounds below y
        (1.9, -0.4),  # b - fl(b - y) rounds above y
    ],
)
def test_birth_window_is_decided_in_float_arithmetic(b, y):
    """One point per side with equal deaths far above: the pair costs
    fl|b - y|, and a birth window bounded exactly, or at b -/+ t, loses it."""
    d1, d2 = PersistenceDiagram(0, ((b, 10.0),)), PersistenceDiagram(0, ((y, 10.0),))
    assert bottleneck_distance(d1, d2)[0] == abs(b - y) == bottleneck_bruteforce(d1, d2)
