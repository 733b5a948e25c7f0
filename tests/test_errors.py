"""The ValueError of each constructor and builder check that no other test
reaches, with its exact message."""

import pytest

from topodist.certify import ShiftCertificate, parse_certificate
from topodist.complexes import (
    ContiguityChain,
    SimplicialComplex,
    SimplicialMap,
    VertexFunction,
    build_complex,
    compose,
    contiguous,
    identity_map,
    lower_star,
)
from topodist.mergetree import MergeTree, build_merge_tree

POINT = build_complex([[0]])
EDGE = build_complex([[0, 1]])


def _certificate(phi, psi, chain_x, chain_y):
    return ShiftCertificate(phi, psi, 0.0, ContiguityChain(chain_x), ContiguityChain(chain_y))


CASES = {
    "empty simplex": (
        lambda: SimplicialComplex(0, frozenset({()})),
        "empty simplex",
    ),
    "vertex_image length": (
        lambda: SimplicialMap(EDGE, EDGE, (0,)),
        "vertex_image length must match the source vertex count",
    ),
    "compose endpoints": (
        lambda: compose(identity_map(POINT), identity_map(EDGE)),
        "composition endpoints do not match",
    ),
    "contiguous mismatch": (
        lambda: contiguous(identity_map(POINT), identity_map(EDGE)),
        "contiguity requires maps with the same source and target",
    ),
    "empty chain": (
        lambda: ContiguityChain(()),
        "a contiguity chain needs at least one map",
    ),
    "certificate phi and psi shapes": (
        lambda: _certificate(
            SimplicialMap(POINT, EDGE, (0,)),
            identity_map(EDGE),
            (identity_map(POINT),),
            (identity_map(EDGE),),
        ),
        "phi and psi must be mutually inverse in shape",
    ),
    "certificate chain_y shape": (
        lambda: _certificate(
            SimplicialMap(POINT, EDGE, (0,)),
            SimplicialMap(EDGE, POINT, (0, 0)),
            (identity_map(POINT),),
            (identity_map(POINT),),
        ),
        "chain_y must consist of self-maps of phi's target",
    ),
    "certificate chain count": (
        lambda: parse_certificate("eps 0\nchainx 0\n", POINT, EDGE),
        "<string>:2: a chain needs at least one map",
    ),
    "merge tree without nodes": (
        lambda: MergeTree({}, {}, 0),
        "a merge tree needs at least one node",
    ),
    "merge tree root not a node": (
        lambda: MergeTree({0: 0.0}, {}, 1),
        "root is not a node",
    ),
    "merge tree of an empty complex": (
        lambda: build_merge_tree(lower_star(build_complex([]), VertexFunction(()))),
        "cannot build a merge tree of an empty complex",
    ),
}


@pytest.mark.parametrize("make, message", CASES.values(), ids=CASES.keys())
def test_value_error_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message
