"""Property tests: the searched eps scales exactly with a power-of-two
scaling of both functions, and a common dyadic shift of both changes
neither eps nor the certificate."""

import random
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from topodist.certify import format_certificate, search_certificate
from topodist.complexes import VertexFunction

from gen import coned, random_connected_complex


@st.composite
def searched_pair(draw):
    """Connected complexes of at most 4 vertices, with values in 64ths; Y is
    X, X coned over a simplex, or an independent complex."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    X = random_connected_complex(rng, min_vertices=1, max_vertices=4)
    kind = draw(st.sampled_from(("same", "coned", "independent")))
    if kind == "independent":
        Y = random_connected_complex(rng, min_vertices=1, max_vertices=4)
    elif kind == "coned" and X.vertex_count < 4:
        Y = coned(rng, X)
    else:
        Y = X

    def values(n):
        return draw(st.lists(st.integers(-128, 128), min_size=n, max_size=n))

    return X, values(X.vertex_count), Y, values(Y.vertex_count)


def searched(X, f, Y, g, scale=1.0, shift=0.0):
    def fn(values):
        return VertexFunction(tuple(scale * v / 64 + shift for v in values))

    return search_certificate(X, fn(f), Y, fn(g))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(searched_pair(), st.integers(-4, 4))
def test_scaling_by_a_power_of_two_scales_the_searched_eps(pair, k):
    # every value stays dyadic within 53 bits, so no difference rounds
    eps, cert = searched(*pair)
    scaled_eps, scaled = searched(*pair, scale=2.0**k)
    assert scaled_eps == 2.0**k * eps
    if cert is None:
        assert scaled is None
    else:
        assert format_certificate(replace(scaled, eps=eps)) == format_certificate(cert)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(searched_pair(), st.integers(-512, 512))
def test_a_common_dyadic_shift_leaves_the_certificate_unchanged(pair, c):
    eps, cert = searched(*pair)
    shifted_eps, shifted = searched(*pair, shift=c / 64)
    assert shifted_eps == eps
    assert (format_certificate(shifted) if shifted else None) == (
        format_certificate(cert) if cert else None
    )
