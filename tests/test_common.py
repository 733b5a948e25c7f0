import math

import pytest

from topodist import Bound


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
