"""The certificate search's output, pinned byte for byte.

`tests/data/search_golden.txt` holds, for a seeded set of small connected
pairs under every chain budget and control factor the tests use, the
``repr`` of the eps that `search_certificate` returns and the
`format_certificate` text of its witness.  A faster search must reproduce
it exactly: same eps, same (phi, psi), same chains.

Regenerate the file only when the search is meant to change its answers::

    PYTHONPATH=src:tests python -c \
        "import test_search_golden as t; t.GOLDEN.write_text(t.golden_text())"
"""

from __future__ import annotations

import random
from pathlib import Path

from topodist.certify import format_certificate, search_certificate
from topodist.complexes import build_complex

from gen import random_connected_complex, random_vertex_function, tied_vertex_function

GOLDEN = Path(__file__).parent / "data" / "search_golden.txt"
PAIRS = 120
BUDGETS = (1, 2, 4)
FACTORS = (1.0, 2.0, 3.0)


def golden_pairs():
    """Connected pairs on 2-6 vertices: a complex and its cone over one of
    its simplices (same homotopy type, so round trips reach the identity), or
    two independent complexes, with random or tied dyadic values.  One pair
    in ten has a 6-vertex side; the rest stay small to keep the test fast."""
    rng = random.Random(2017)
    for i in range(PAIRS):
        most = 5 if i % 10 < 2 else 4
        if i % 2:
            X = random_connected_complex(rng, min_vertices=2, max_vertices=most)
            base = rng.choice(sorted(X.simplices))
            n = X.vertex_count
            Y = build_complex([*X.simplices, (*base, n)], vertex_count=n + 1)
        else:
            X = random_connected_complex(rng, min_vertices=2, max_vertices=most + 1)
            Y = random_connected_complex(rng, min_vertices=2, max_vertices=most)
        function = (random_vertex_function, tied_vertex_function)[i // 2 % 2]
        yield i, (X, function(rng, X.vertex_count), Y, function(rng, Y.vertex_count))


def golden_text() -> str:
    """One search per pair; the chain budget and the control factor cycle
    independently, so every combination occurs."""
    out = []
    for i, pair in golden_pairs():
        budget = BUDGETS[i % len(BUDGETS)]
        factor = FACTORS[i // len(BUDGETS) % len(FACTORS)]
        eps, cert = search_certificate(*pair, max_chain_len=budget, control_factor=factor)
        out.append(f"pair {i} budget {budget} factor {factor!r} eps {eps!r}\n")
        out.append(format_certificate(cert) if cert else "none\n")
    return "".join(out)


def test_search_output_matches_golden():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")
