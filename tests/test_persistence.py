import math
import random

import pytest

from topodist.complexes import FilteredComplex, VertexFunction, build_complex, lower_star
from topodist.mergetree import build_merge_tree, diagram_from_tree
from topodist.persistence import (
    PersistenceDiagram,
    compute_diagrams,
    diagrams_to_tsv,
    h0_diagram_unionfind,
    parse_diagrams_tsv,
    reduce_filtration,
    shift_diagram,
)

from gen import (
    dyadic,
    freudenthal_block,
    random_complex,
    random_complex_3d,
    random_filtered,
    random_connected_complex,
    random_monotone_filtered,
    tied_filtered,
)


def path_instance():
    K = build_complex([[0, 1], [1, 2]])
    return lower_star(K, VertexFunction((0.0, 2.0, 1.0)))


def _filtered_inputs(rng, count, values=random_filtered):
    """``count`` random 2-D complexes, then 3-D ones (Freudenthal blocks at
    sides 2-4 and random complexes with hollow and solid tetrahedra), each
    filtered by ``values``."""
    for _ in range(count):
        yield values(rng, random_complex(rng))
    for side in (2, 3, 4):
        yield values(rng, freudenthal_block(side))
    for _ in range(12):
        yield values(rng, random_complex_3d(rng))


def test_path_diagrams():
    d = compute_diagrams(path_instance(), 1)
    assert d[0].points == ((0.0, math.inf), (1.0, 2.0))
    assert d[1].points == ()


def test_circle_diagrams():
    K = build_complex([[0, 1], [1, 2], [0, 2]])
    fc = lower_star(K, VertexFunction((0.0, 0.0, 0.0)))
    d = compute_diagrams(fc, 1)
    assert d[0].points == ((0.0, math.inf),)
    assert d[1].points == ((0.0, math.inf),)


def test_filled_triangle_kills_cycle():
    K = build_complex([[0, 1, 2]])
    filt = {s: (1.0 if len(s) == 3 else 0.0) for s in K.simplices}
    d = compute_diagrams(FilteredComplex(K, filt), 1)
    assert d[1].points == ((0.0, 1.0),)


def test_unionfind_single_point():
    fc = lower_star(build_complex([[0]]), VertexFunction((3.0,)))
    assert h0_diagram_unionfind(fc).points == ((3.0, math.inf),)


def test_unionfind_zero_persistence_discarded():
    fc = lower_star(build_complex([[0, 1]]), VertexFunction((0.0, 0.0)))
    assert h0_diagram_unionfind(fc).points == ((0.0, math.inf),)


def test_unionfind_path():
    assert h0_diagram_unionfind(path_instance()).points == ((0.0, math.inf), (1.0, 2.0))


def test_h0_oracle_equivalence_small():
    rng = random.Random(4242)
    for fc in _filtered_inputs(rng, 40):
        assert compute_diagrams(fc, 0)[0] == h0_diagram_unionfind(fc)


def test_h0_oracle_equivalence_arbitrary_monotone():
    rng = random.Random(77)
    for fc in _filtered_inputs(rng, 30, random_monotone_filtered):
        assert compute_diagrams(fc, 0)[0] == h0_diagram_unionfind(fc)


def reference_reduction(fc, max_dim=None):
    """The plain left-to-right column reduction with a tuple sort key: the
    oracle that the clearing reduction must match exactly."""
    order = sorted(
        (s for s in fc.complex.simplices if max_dim is None or len(s) - 1 <= max_dim),
        key=lambda s: (fc.filtration[s], len(s), s),
    )
    index = {s: i for i, s in enumerate(order)}
    reduced = {}
    pivot_of = {}
    pairs = []
    for j, s in enumerate(order):
        if len(s) == 1:
            continue
        col = {index[s[:k] + s[k + 1 :]] for k in range(len(s))}
        while col and max(col) in pivot_of:
            col ^= reduced[pivot_of[max(col)]]
        if col:
            pivot_of[max(col)] = j
            reduced[j] = col
            pairs.append((max(col), j))
    paired = {i for p in pairs for i in p}
    essential = [i for i in range(len(order)) if i not in paired]
    return order, pairs, essential


@pytest.mark.parametrize(
    "values", [random_filtered, tied_filtered, random_monotone_filtered]
)
def test_reduction_matches_left_to_right_oracle(values):
    rng = random.Random(5150)
    death_dims = set()
    for fc in _filtered_inputs(rng, 10, values):
        for max_dim in (None, 1, 2, 3):
            got = reduce_filtration(fc, max_dim)
            assert got == reference_reduction(fc, max_dim)
            order, pairs, _ = got
            death_dims.update(len(order[j]) - 1 for _, j in pairs)
    # columns of every dimension, tetrahedra included, kill some class
    assert death_dims == {1, 2, 3}


def test_reduction_order_is_a_fresh_list():
    rng = random.Random(31)
    for fc in _filtered_inputs(rng, 5):
        before = compute_diagrams(fc, 2)
        order, _, _ = reduce_filtration(fc)
        assert type(order) is list
        order.reverse()
        order.append((-1,))
        assert compute_diagrams(fc, 2) == before
        assert reduce_filtration(fc)[0] == list(fc.order)


def test_every_simplex_is_birth_death_or_essential_once():
    rng = random.Random(99)
    for _ in range(25):
        fc = random_filtered(rng, random_complex(rng))
        order, pairs, essential = reduce_filtration(fc)
        seen = sorted([i for p in pairs for i in p] + list(essential))
        assert seen == list(range(len(order)))


def test_infinite_points_count_components():
    rng = random.Random(123)
    for _ in range(25):
        fc = random_filtered(rng, random_complex(rng))
        diagram = compute_diagrams(fc, 0)[0]
        # independent component count
        K = fc.complex
        parent = list(range(K.vertex_count))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for u, v in (s for s in K.simplices if len(s) == 2):
            parent[find(u)] = find(v)
        components = len({find(v) for v in range(K.vertex_count)})
        assert diagram.infinite_count() == components


def _gf2_rank(columns):
    rank = 0
    pivots = {}
    for col in columns:
        col = set(col)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            col ^= other
    return rank


def test_infinite_points_match_betti_numbers():
    """Independent oracle: beta_k from GF(2) ranks of the boundary operators."""
    rng = random.Random(271)
    for fc in _filtered_inputs(rng, 20):
        K = fc.complex
        by_dim = {}
        for s in K.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        index = {d: {s: i for i, s in enumerate(sorted(sims))} for d, sims in by_dim.items()}
        ranks = {}
        for d, sims in by_dim.items():
            if d == 0:
                continue
            ranks[d] = _gf2_rank(
                [{index[d - 1][s[:k] + s[k + 1 :]] for k in range(len(s))} for s in sims]
            )
        diagrams = compute_diagrams(fc, 3)
        for k in range(4):
            betti = (
                len(by_dim.get(k, ()))
                - ranks.get(k, 0)
                - ranks.get(k + 1, 0)
            )
            assert diagrams[k].infinite_count() == betti


def test_shift_diagram_examples():
    d = PersistenceDiagram(0, ((0.0, math.inf),))
    assert shift_diagram(d, 1.0).points == ((1.0, math.inf),)
    assert shift_diagram(PersistenceDiagram(0, ()), 2.0).points == ()
    assert shift_diagram(PersistenceDiagram(0, ((1.0, 2.0),)), -1.0).points == ((0.0, 1.0),)


def test_shift_equivariance_exact():
    rng = random.Random(2024)
    for _ in range(15):
        K = random_complex(rng)
        f = VertexFunction(tuple(dyadic(rng) for _ in range(K.vertex_count)))
        base = compute_diagrams(lower_star(K, f), 2)
        for c in (1.0, -1.0, 0.5):
            shifted = compute_diagrams(lower_star(K, f.shifted(c)), 2)
            assert shifted == [shift_diagram(d, c) for d in base]


def test_diagram_validation():
    with pytest.raises(ValueError):
        PersistenceDiagram(0, ((1.0, 1.0),))  # zero persistence
    with pytest.raises(ValueError):
        PersistenceDiagram(0, ((2.0, 1.0),))
    with pytest.raises(ValueError):
        PersistenceDiagram(0, ((math.inf, math.inf),))
    with pytest.raises(ValueError):
        PersistenceDiagram(-1, ())


def test_compute_diagrams_rejects_negative_degree():
    with pytest.raises(ValueError):
        compute_diagrams(path_instance(), -1)


def test_degrees_above_dimension_are_empty():
    d = compute_diagrams(path_instance(), 3)
    assert d[2].points == () and d[3].points == ()


def test_tsv_format_and_roundtrip():
    d = compute_diagrams(path_instance(), 1)
    text = diagrams_to_tsv(d)
    assert text == "0\t0\tinf\n0\t1\t2\n"
    parsed = parse_diagrams_tsv(text)
    assert parsed == d[: len(parsed)]


def test_tsv_roundtrip_randomized():
    rng = random.Random(31)
    for _ in range(20):
        fc = random_filtered(rng, random_complex(rng))
        d = compute_diagrams(fc, 2)
        parsed = parse_diagrams_tsv(diagrams_to_tsv(d))
        assert parsed == d[: len(parsed)]
        for rest in d[len(parsed) :]:
            assert rest.points == ()


def test_tsv_lines_sorted():
    rng = random.Random(57)
    fc = random_filtered(rng, random_complex(rng))
    lines = diagrams_to_tsv(compute_diagrams(fc, 2)).splitlines()
    keys = []
    for line in lines:
        k, b, d = line.split("\t")
        keys.append((int(k), float(b), float(d)))
    assert keys == sorted(keys)


def _left_to_right_recording(fc):
    """``reference_reduction`` with a record: the dimensions in which some
    column adds a pivot column that received no additions itself, that is
    a column still equal to its boundary."""
    order = sorted(fc.complex.simplices, key=lambda s: (fc.filtration[s], len(s), s))
    index = {s: i for i, s in enumerate(order)}
    boundary = {}
    reduced = {}
    pivot_of = {}
    pairs = []
    unreduced_added = set()
    for j, s in enumerate(order):
        if len(s) == 1:
            continue
        col = boundary[j] = {index[s[:k] + s[k + 1 :]] for k in range(len(s))}
        while col and max(col) in pivot_of:
            other = pivot_of[max(col)]
            if reduced[other] == boundary[other]:
                unreduced_added.add(len(s) - 1)
            col = col ^ reduced[other]
        if col:
            pivot_of[max(col)] = j
            reduced[j] = col
            pairs.append((max(col), j))
    paired = {i for p in pairs for i in p}
    essential = [i for i in range(len(order)) if i not in paired]
    return (order, pairs, essential), unreduced_added


@pytest.mark.parametrize("values", [tied_filtered, random_monotone_filtered])
def test_reduction_adds_unreduced_pivot_columns_in_every_dimension(values):
    """On a 6x6x6 Freudenthal block, columns of dimensions 1, 2 and 3 add
    pivot columns that are still their own boundary, and the reduction
    matches the left-to-right oracle there."""
    rng = random.Random(606)
    fc = values(rng, freudenthal_block(6))
    expected, unreduced_added = _left_to_right_recording(fc)
    assert unreduced_added == {1, 2, 3}
    assert reduce_filtration(fc) == expected == reference_reduction(fc)


@pytest.mark.parametrize("values", [tied_filtered, random_monotone_filtered])
def test_cached_position_arrays(values):
    """``values`` and ``edges`` are read by position along ``order``."""
    rng = random.Random(607)
    for K in (freudenthal_block(6), random_complex(rng), random_complex_3d(rng)):
        fc = values(rng, K)
        assert fc.values == tuple(fc.filtration[s] for s in fc.order)
        assert fc.edges == tuple(
            (fc.filtration[s], *s) for s in fc.order if len(s) == 2
        )


def test_tree_readout_matches_unionfind_on_monotone_filtrations():
    rng = random.Random(608)
    blocks = [freudenthal_block(side) for side in (2, 4, 6)]
    complexes = blocks + [random_connected_complex(rng, max_vertices=16) for _ in range(30)]
    for K in complexes:
        fc = random_monotone_filtered(rng, K)
        assert diagram_from_tree(build_merge_tree(fc)) == h0_diagram_unionfind(fc)
