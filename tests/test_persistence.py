import math
import random

import pytest

from topodist.common import ParseError
from topodist.complexes import VertexFunction, build_complex, lower_star
from topodist.mergetree import build_merge_tree, diagram_from_tree
from topodist.persistence import (
    PersistenceDiagram,
    _reduce,
    _reduce_values,
    _two_facet_lows,
    compute_diagrams,
    diagrams_to_tsv,
    h0_diagram_unionfind,
    parse_diagrams_tsv,
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
    simplex_value,
    sweep_input,
    tied_filtered,
    value_diagrams,
)


def path_instance():
    K = build_complex([[0, 1], [1, 2]])
    return lower_star(K, VertexFunction((0.0, 2.0, 1.0)))


def _complexes(rng, count):
    """``count`` random 2-D complexes, then 3-D ones (Freudenthal blocks at
    sides 2-4 and random complexes with hollow and solid tetrahedra)."""
    for _ in range(count):
        yield random_complex(rng)
    for side in (2, 3, 4):
        yield freudenthal_block(side)
    for _ in range(12):
        yield random_complex_3d(rng)


def _filtered_inputs(rng, count, values=random_filtered):
    """The complexes of ``_complexes``, each filtered by ``values``."""
    return (values(rng, K) for K in _complexes(rng, count))


def _reduction(K, filtered, top=None):
    """The levels and the reduction of a lower star (two-facet pivots) or
    of explicit values (pivots over all facets), up to size ``top``."""
    top = K.dim + 1 if top is None else top
    if isinstance(filtered, dict):
        return _reduce_values(K, filtered.__getitem__, top)
    levels = [filtered.level(k) for k in range(1, top + 1)]
    return (levels, *_reduce(levels, _two_facet_lows))


def _as_positions(levels, pivots, essential):
    """A level reduction in ``reference_reduction``'s terms: the global
    (value, dimension, vertex tuple) order, pairs in increasing death
    position, and essential positions in increasing order."""
    order = [
        s for _, _, s in sorted((t, len(s), s) for level in levels for s, t in zip(*level))
    ]
    at = {s: i for i, s in enumerate(order)}
    pairs = sorted(
        ((at[levels[i - 1][0][b]], at[levels[i][0][d]])
         for i in range(1, len(levels)) for b, d in pivots[i].items()),
        key=lambda p: p[1],
    )
    ess = sorted(at[simplices[j]] for (simplices, _), js in zip(levels, essential) for j in js)
    return order, pairs, ess


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
    """A filtration that is no lower star, through the explicit-values entry."""
    K = build_complex([[0, 1, 2]])
    d = value_diagrams(K, lambda s: 1.0 if len(s) == 3 else 0.0, 1)
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
    for K in _complexes(rng, 30):
        value = simplex_value(random_monotone_filtered(rng, K))
        assert value_diagrams(K, value, 0)[0] == h0_diagram_unionfind(sweep_input(K, value))


def reference_reduction(K, value, max_dim=None):
    """The plain left-to-right column reduction over one global order with a
    tuple sort key: the oracle that the level reduction must match exactly."""
    order = sorted(
        (s for s in K.simplices if max_dim is None or len(s) - 1 <= max_dim),
        key=lambda s: (value(s), len(s), s),
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
    for K in _complexes(rng, 10):
        filtered = values(rng, K)
        for max_dim in (None, 1, 2, 3):
            top = None if max_dim is None else min(max_dim, K.dim) + 1
            got = _as_positions(*_reduction(K, filtered, top)[:3])
            assert got == reference_reduction(K, simplex_value(filtered), max_dim)
            order, pairs, _ = got
            death_dims.update(len(order[j]) - 1 for _, j in pairs)
    # columns of every dimension, tetrahedra included, kill some class
    assert death_dims == {1, 2, 3}


def test_levels_are_cached_and_read_only():
    """compute_diagrams reads the levels a FilteredComplex caches; they are
    tuples, so no caller can reorder them."""
    rng = random.Random(31)
    for fc in _filtered_inputs(rng, 5):
        before = compute_diagrams(fc, 2)
        levels = [fc.level(k) for k in range(1, 5)]
        assert all(type(part) is tuple for level in levels for part in level)
        assert compute_diagrams(fc, 2) == before
        assert [fc.level(k) for k in range(1, 5)] == levels
        assert all(fc.level(k) is level for k, level in enumerate(levels, 1))


def test_reduction_work_is_pinned():
    """The work of the level reduction on one seeded field: columns cleared,
    boundaries built and column additions.  Reducing without clearing, or
    without storing a reduced column, still gives the right pairs, but not
    these counts."""
    fc = random_filtered(random.Random(3), freudenthal_block(4))
    levels = [fc.level(k) for k in range(1, 5)]
    assert _reduce(levels, _two_facet_lows)[2] == (378, 157, 135)


def test_every_simplex_is_birth_death_or_essential_once():
    rng = random.Random(99)
    for _ in range(25):
        K = random_complex(rng)
        order, pairs, essential = _as_positions(*_reduction(K, random_filtered(rng, K))[:3])
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


TSV_ERRORS = [
    pytest.param("0\t0\tinf\n0\t1\n", 2, "expected `degree birth death`", id="two-tokens"),
    pytest.param("0\t1\t2\t3\n", 1, "expected `degree birth death`", id="four-tokens"),
    pytest.param("zero\t1\t2\n", 1, "expected an integer, got 'zero'", id="bad-degree"),
    pytest.param("0\t0\tinf\n-1\t1\t2\n", 2, "degree must be non-negative",
                 id="negative-degree"),
    pytest.param("# diagram\n0\tlow\t2\n", 2, "expected a number, got 'low'", id="bad-birth"),
    pytest.param("1\t1\thigh\n", 1, "expected a number, got 'high'", id="bad-death"),
]


@pytest.mark.parametrize("text, line, message", TSV_ERRORS)
def test_parse_diagrams_tsv_error_messages_and_lines(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_diagrams_tsv(text, source="d.tsv")
    assert (err.value.source, err.value.line, err.value.message) == ("d.tsv", line, message)


def test_tsv_lines_sorted():
    rng = random.Random(57)
    fc = random_filtered(rng, random_complex(rng))
    lines = diagrams_to_tsv(compute_diagrams(fc, 2)).splitlines()
    keys = []
    for line in lines:
        k, b, d = line.split("\t")
        keys.append((int(k), float(b), float(d)))
    assert keys == sorted(keys)


def _left_to_right_recording(K, value):
    """``reference_reduction`` with a record: the dimensions in which some
    column adds a pivot column that received no additions itself, that is
    a column still equal to its boundary."""
    order = sorted(K.simplices, key=lambda s: (value(s), len(s), s))
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
    K = freudenthal_block(6)
    filtered = values(rng, K)
    value = simplex_value(filtered)
    expected, unreduced_added = _left_to_right_recording(K, value)
    assert unreduced_added == {1, 2, 3}
    got = _as_positions(*_reduction(K, filtered)[:3])
    assert got == expected == reference_reduction(K, value)


@pytest.mark.parametrize("values", [tied_filtered, random_monotone_filtered])
def test_cached_position_arrays(values):
    """Each level holds the simplices of one size in (value, vertex tuple)
    order and their values by position; ``edges`` is level 2 as triples."""
    rng = random.Random(607)
    for K in (freudenthal_block(6), random_complex(rng), random_complex_3d(rng)):
        filtered = values(rng, K)
        value = simplex_value(filtered)
        levels = _reduction(K, filtered)[0]
        for k, (simplices, level_values) in enumerate(levels, 1):
            assert list(simplices) == sorted(
                (s for s in K.simplices if len(s) == k), key=lambda s: (value(s), s)
            )
            assert list(level_values) == list(map(value, simplices))
        if not isinstance(filtered, dict):
            assert filtered.edges == tuple((t, *s) for s, t in zip(*filtered.level(2)))


def test_tree_readout_matches_unionfind_on_monotone_filtrations():
    rng = random.Random(608)
    blocks = [freudenthal_block(side) for side in (2, 4, 6)]
    complexes = blocks + [random_connected_complex(rng, max_vertices=16) for _ in range(30)]
    for K in complexes:
        sweep = sweep_input(K, simplex_value(random_monotone_filtered(rng, K)))
        assert diagram_from_tree(build_merge_tree(sweep)) == h0_diagram_unionfind(sweep)
