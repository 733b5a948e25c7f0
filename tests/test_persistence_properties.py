"""Property tests: lower-star diagrams scale exactly with a power-of-two
scaling of the vertex function, and a common dyadic shift of the function
shifts every point by exactly that amount.  The two-facet pivot of a
lower-star column is its max over all facets, and compute_diagrams agrees
with the explicit-values entry given the same values."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from topodist.complexes import VertexFunction, lower_star
from topodist.persistence import (
    PersistenceDiagram,
    _all_facet_lows,
    _reduce,
    _reduce_values,
    _two_facet_lows,
    compute_diagrams,
    shift_diagram,
)

from gen import (
    freudenthal_block,
    random_complex,
    random_complex_3d,
    simplex_value,
    value_diagrams,
)


@st.composite
def field(draw):
    """A random 2-D or 3-D complex or a Freudenthal block, with values in
    64ths; a narrow value range makes ties common."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("2d", "3d", "block")))
    if kind == "2d":
        K = random_complex(rng)
    elif kind == "3d":
        K = random_complex_3d(rng)
    else:
        K = freudenthal_block(draw(st.integers(2, 3)))
    top = draw(st.sampled_from((8, 128)))
    values = draw(st.lists(st.integers(-top, top), min_size=K.vertex_count, max_size=K.vertex_count))
    return K, values


def diagrams(K, values, scale=1.0, shift=0.0):
    f = VertexFunction(tuple(scale * v / 64 + shift for v in values))
    return compute_diagrams(lower_star(K, f), 2)


def scaled(d, scale):
    return PersistenceDiagram(d.degree, tuple((scale * b, scale * e) for b, e in d.points))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(field(), st.integers(-4, 4))
def test_scaling_by_a_power_of_two_scales_every_point(instance, k):
    # every value stays dyadic within 53 bits, so no product rounds
    base = diagrams(*instance)
    assert diagrams(*instance, scale=2.0**k) == [scaled(d, 2.0**k) for d in base]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(field(), st.integers(-512, 512))
def test_a_common_dyadic_shift_shifts_every_point(instance, c):
    base = diagrams(*instance)
    assert diagrams(*instance, shift=c / 64) == [shift_diagram(d, c / 64) for d in base]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(field())
def test_two_facet_pivot_is_the_max_over_all_facets(instance):
    K, values = instance
    fc = lower_star(K, VertexFunction(tuple(v / 64 for v in values)))
    for k in range(2, K.dim + 2):
        rows, simplices = fc.level(k - 1)[0], list(fc.level(k)[0])
        index = dict(zip(rows, range(len(rows)))).__getitem__
        assert list(_two_facet_lows(simplices, index, k)) == list(
            _all_facet_lows(simplices, index, k)
        )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(field())
def test_compute_diagrams_equals_the_explicit_values_entry(instance):
    K, values = instance
    fc = lower_star(K, VertexFunction(tuple(v / 64 for v in values)))
    value = simplex_value(fc)
    levels = [fc.level(k) for k in range(1, 5)]
    explicit_levels, *explicit = _reduce_values(K, value, 4)
    assert [tuple(map(tuple, level)) for level in explicit_levels] == levels
    assert list(_reduce(levels, _two_facet_lows)) == explicit
    assert compute_diagrams(fc, 2) == value_diagrams(K, value, 2)
