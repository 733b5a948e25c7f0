import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import topodist

from topodist.common import ParseError
from topodist.complexes import (
    ContiguityChain,
    FilteredComplex,
    SimplicialComplex,
    SimplicialMap,
    VertexFunction,
    build_complex,
    check_contiguity_chain,
    check_simplicial,
    compose,
    contiguous,
    format_instance,
    homotopy_sup_control,
    identity_map,
    lower_star,
    parse_instance,
)
from topodist.complexes import _parse_batched, _parse_lines

from gen import (
    freudenthal_block,
    grid_complex,
    random_complex,
    random_complex_3d,
    random_connected_complex,
    level_values,
    random_filtered,
    random_vertex_function,
    tied_filtered,
)


def test_build_complex_face_closure():
    K = build_complex([[0, 1], [1, 2]])
    assert K.vertex_count == 3
    assert K.simplices == frozenset({(0,), (1,), (2,), (0, 1), (1, 2)})


def test_build_complex_single_point():
    K = build_complex([[0]])
    assert K.vertex_count == 1
    assert K.simplices == frozenset({(0,)})


def test_build_complex_full_triangle():
    K = build_complex([[0, 1, 2]])
    assert len([s for s in K.simplices if len(s) == 1]) == 3
    assert len([s for s in K.simplices if len(s) == 2]) == 3
    assert len([s for s in K.simplices if len(s) == 3]) == 1


def test_build_complex_rejects_repeated_vertex():
    with pytest.raises(ValueError, match="repeated vertex"):
        build_complex([[0, 0, 1]])


def test_build_complex_rejects_index_gap():
    with pytest.raises(ValueError, match="gap"):
        build_complex([[0, 2]])


def test_build_complex_rejects_negative_vertex():
    with pytest.raises(ValueError, match=r"^negative vertex index in \[0, -1\]$"):
        build_complex([[0, 1], [0, -1]])
    # the message names the simplex as a list, whatever sequence type came in
    with pytest.raises(ValueError, match=r"^negative vertex index in \[-2\]$"):
        build_complex([(-2,)], vertex_count=3)


def test_build_complex_rejects_empty_simplex():
    with pytest.raises(ValueError, match="^empty simplex in input$"):
        build_complex([[0, 1], []])


def test_build_complex_rejects_index_above_declared_count():
    with pytest.raises(
        ValueError, match="^simplex vertex index exceeds the declared count$"
    ):
        build_complex([[0, 1], [1, 3]], vertex_count=3)
    build_complex([[0, 1], [1, 3]], vertex_count=4)


def test_build_complex_names_the_first_invalid_simplex():
    """Simplices are checked in input order, each check in turn, so the
    first simplex that fails any check is the one named."""
    with pytest.raises(ValueError, match=r"^negative vertex index in \[0, -1\]$"):
        build_complex([[0, -1], [0, 0]])
    with pytest.raises(ValueError, match=r"^repeated vertex inside simplex \[0, 0\]$"):
        build_complex([[0, 0], [0, -1]])
    with pytest.raises(ValueError, match=r"^simplex \[0, 1, 2, 3\] exceeds the dimension cap 2$"):
        build_complex([[0, 1], [0, 1, 2, 3], []], max_dim=2)
    # the vertex list is shown in input order, not sorted
    with pytest.raises(ValueError, match=r"^repeated vertex inside simplex \[2, 0, 2\]$"):
        build_complex([[1, 0], [2, 0, 2]])


def test_build_complex_consumes_a_generator_once():
    pulled = []

    def simplices(rows):
        for row in rows:
            pulled.append(row)
            yield row

    rows = [[0, 1], [1, 2, 3]]
    assert build_complex(simplices(rows)) == build_complex(rows)
    assert pulled == rows
    with pytest.raises(ValueError, match=r"^repeated vertex inside simplex \[1, 1\]$"):
        build_complex(simplices([[0, 1], [1, 1]]))


def test_negative_vertex_count_rejected():
    for simplices in ([], [[0]]):
        with pytest.raises(ValueError, match="^vertex_count must be non-negative$"):
            build_complex(simplices, vertex_count=-1)
    with pytest.raises(ValueError, match="^vertex_count must be non-negative$"):
        SimplicialComplex(-1, frozenset())


def test_build_complex_explicit_count_adds_isolated_vertices():
    K = build_complex([[0, 2]], vertex_count=4)
    assert (1,) in K.simplices and (3,) in K.simplices


def test_build_complex_dimension_cap():
    with pytest.raises(ValueError, match="dimension cap"):
        build_complex([[0, 1, 2, 3, 4]])
    build_complex([[0, 1, 2, 3, 4]], max_dim=4)  # raised cap is allowed


def test_face_closure_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        K = random_complex(rng)
        again = build_complex(list(K.simplices), vertex_count=K.vertex_count)
        assert again == K


def test_complex_invariants_enforced():
    with pytest.raises(ValueError, match="closed under faces"):
        SimplicialComplex(3, frozenset({(0,), (1,), (2,), (0, 1), (0, 1, 2)}))
    with pytest.raises(ValueError, match="missing"):
        SimplicialComplex(2, frozenset({(0,)}))
    with pytest.raises(ValueError, match="strictly increasing"):
        SimplicialComplex(2, frozenset({(0,), (1,), (1, 1)}))
    with pytest.raises(ValueError, match="out of range"):
        SimplicialComplex(2, frozenset({(0,), (1,), (1, 2)}))


def test_vertex_function_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        VertexFunction((0.0, float("nan")))
    with pytest.raises(ValueError):
        VertexFunction((float("inf"),))


def test_lower_star_path_example():
    K = build_complex([[0, 1], [1, 2]])
    value = level_values(lower_star(K, VertexFunction((0.0, 2.0, 1.0))))
    assert value[(0, 1)] == 2.0
    assert value[(1, 2)] == 2.0
    assert [value[(v,)] for v in range(3)] == [0.0, 2.0, 1.0]


def test_lower_star_constant():
    K = build_complex([[0, 1, 2]])
    value = level_values(lower_star(K, VertexFunction((5.0, 5.0, 5.0))))
    assert len(value) == 7 and all(v == 5.0 for v in value.values())


def test_lower_star_triangle_max_rule():
    K = build_complex([[0, 1, 2]])
    value = level_values(lower_star(K, VertexFunction((0.0, 0.0, 1.0))))
    assert value[(0, 1, 2)] == 1.0
    assert value[(0, 1)] == 0.0


def test_lower_star_length_mismatch():
    K = build_complex([[0, 1]])
    with pytest.raises(ValueError, match="length"):
        lower_star(K, VertexFunction((0.0,)))


def test_lower_star_monotone_randomized():
    rng = random.Random(11)
    for _ in range(30):
        K = random_complex(rng)
        value = level_values(lower_star(K, random_vertex_function(rng, K.vertex_count)))
        assert set(value) == K.simplices
        for s, val in value.items():
            for k in range(len(s)):
                face = s[:k] + s[k + 1 :]
                if face:
                    assert value[face] <= val


def test_filtered_complex_constructor_checks_the_function_length():
    """Monotonicity holds by type; what the constructor can still reject is
    a function that does not fit the complex."""
    K = build_complex([[0, 1]])
    with pytest.raises(ValueError, match="function length 3 != vertex count 2"):
        FilteredComplex(K, VertexFunction((0.0, 0.0, 1.0)))


def test_shifted_rejects_overflow_to_inf():
    f = VertexFunction((1e308, 0.0))
    with pytest.raises(ValueError, match="vertex values must be finite"):
        f.shifted(1e308)


def _generated_complexes(rng):
    yield from (random_complex(rng) for _ in range(15))
    yield from (random_complex_3d(rng) for _ in range(15))
    yield from (random_connected_complex(rng) for _ in range(15))
    yield from (freudenthal_block(side) for side in (1, 2, 3))
    yield from (grid_complex(side) for side in (1, 2, 5))


def test_trusted_construction_equals_validated():
    """build_complex skips the public constructor's checks; re-validating
    what it returns passes and gives an equal object.  The levels of a lower
    star are the (value, dimension, vertex tuple) order cut by size, with
    f at the top vertex as each simplex's value."""
    rng = random.Random(2024)
    for K in _generated_complexes(rng):
        assert SimplicialComplex(K.vertex_count, K.simplices) == K
        for values in (random_filtered, tied_filtered):
            fc = values(rng, K)
            assert FilteredComplex(fc.complex, fc.function) == fc
            f = fc.function.values
            key = {s: (max(f[v] for v in s), len(s), s) for s in K.simplices}
            order = sorted(K.simplices, key=key.__getitem__)
            for k in range(1, K.dim + 2):
                simplices = [s for s in order if len(s) == k]
                assert fc.level(k) == (tuple(simplices), tuple(key[s][0] for s in simplices))
            assert fc.level(K.dim + 2) == ((), ())
            assert fc.edges == tuple((key[s][0], *s) for s in order if len(s) == 2)


def levels_all_at_once(fc):
    """Every level of ``fc``, built together as before levels were built on
    demand: one sort by size, then per size a lex sort and a stable sort by
    value."""
    f = fc.function.values
    levels = []
    for _, group in itertools.groupby(sorted(fc.complex.simplices, key=len), len):
        simplices = sorted(group)
        values = [max(f[v] for v in s) for s in simplices]
        by_value = sorted(range(len(values)), key=values.__getitem__)
        levels.append(tuple(tuple(seq[i] for i in by_value) for seq in (simplices, values)))
    return levels


def test_levels_built_on_demand_equal_levels_built_together():
    """Levels read one at a time, in any order, equal the levels built all
    at once, on random, tied and Freudenthal inputs."""
    rng = random.Random(2026)
    for K in _generated_complexes(rng):
        for values in (random_filtered, tied_filtered):
            fc = values(rng, K)
            want = levels_all_at_once(lower_star(K, fc.function))
            sizes = list(range(1, len(want) + 3))
            rng.shuffle(sizes)
            got = {k: fc.level(k) for k in sizes}
            assert [got[k] for k in range(1, len(want) + 1)] == want
            assert got[len(want) + 1] == got[len(want) + 2] == ((), ())
            assert fc.level(0) == fc.level(-1) == ((), ())


def test_reading_edges_builds_no_higher_level():
    fc = random_filtered(random.Random(5), freudenthal_block(3))
    assert fc.complex.dim == 3
    assert fc.edges == tuple((t, *s) for s, t in zip(*levels_all_at_once(fc)[1]))
    assert set(fc._levels) == {2}


def test_check_simplicial_identity():
    K = build_complex([[0, 1], [1, 2]])
    assert check_simplicial(identity_map(K))


def test_check_simplicial_edge_to_points_fails():
    edge = build_complex([[0, 1]])
    points = build_complex([[0], [1]])
    assert not check_simplicial(SimplicialMap(edge, points, (0, 1)))
    assert check_simplicial(SimplicialMap(edge, points, (0, 0)))  # collapse


def test_simplicial_map_out_of_range():
    edge = build_complex([[0, 1]])
    point = build_complex([[0]])
    with pytest.raises(ValueError, match="out of range"):
        SimplicialMap(edge, point, (0, 1))


def test_contiguity_chain_examples():
    edge = build_complex([[0, 1]])
    assert check_contiguity_chain(ContiguityChain((identity_map(edge),)))
    const0 = SimplicialMap(edge, edge, (0, 0))
    assert check_contiguity_chain(ContiguityChain((identity_map(edge), const0)))
    points = build_complex([[0], [1]])
    swap = SimplicialMap(points, points, (1, 0))
    assert not check_contiguity_chain(ContiguityChain((identity_map(points), swap)))
    # one map, so no contiguity pair: only the simplicial check can fail
    assert not check_contiguity_chain(ContiguityChain((SimplicialMap(edge, points, (0, 1)),)))


def test_contiguity_is_symmetric():
    rng = random.Random(3)
    for _ in range(20):
        K = random_complex(rng, max_vertices=5)
        n = K.vertex_count
        m1 = SimplicialMap(K, K, tuple(rng.randrange(n) for _ in range(n)))
        m2 = SimplicialMap(K, K, tuple(rng.randrange(n) for _ in range(n)))
        assert contiguous(m1, m2) == contiguous(m2, m1)


def test_chain_requires_shared_endpoints():
    edge = build_complex([[0, 1]])
    point = build_complex([[0]])
    with pytest.raises(ValueError, match="share source and target"):
        ContiguityChain((identity_map(edge), identity_map(point)))


def test_homotopy_sup_control_identity_chain():
    edge = build_complex([[0, 1]])
    f = VertexFunction((0.0, 1.0))
    chain = ContiguityChain((identity_map(edge),))
    assert homotopy_sup_control(chain, f) == (0.0, 1.0)


def test_homotopy_sup_control_collapse_sweeps_edge():
    edge = build_complex([[0, 1]])
    f = VertexFunction((0.0, 1.0))
    chain = ContiguityChain((identity_map(edge), SimplicialMap(edge, edge, (0, 0))))
    # vertex 1 travels across the edge, whose lower-star value is 1
    assert homotopy_sup_control(chain, f) == (0.0, 1.0)


def test_homotopy_sup_control_constant_chain():
    K = build_complex([[0, 1], [1, 2]])
    f = VertexFunction((0.5, 2.0, 1.0))
    const = SimplicialMap(K, K, (0, 0, 0))
    chain = ContiguityChain((const, const))
    assert homotopy_sup_control(chain, f) == (0.5, 0.5, 0.5)


def test_homotopy_sup_control_single_map_equals_pullback():
    rng = random.Random(5)
    for _ in range(20):
        K = random_complex(rng, max_vertices=6)
        f = random_vertex_function(rng, K.vertex_count)
        n = K.vertex_count
        img = tuple(rng.randrange(n) for _ in range(n))
        m = SimplicialMap(K, K, img)
        if not check_simplicial(m):
            continue
        bounds = homotopy_sup_control(ContiguityChain((m,)), f)
        assert bounds == tuple(f[img[v]] for v in range(n))


def test_homotopy_sup_control_target_mismatch():
    edge = build_complex([[0, 1]])
    with pytest.raises(ValueError, match="target"):
        homotopy_sup_control(
            ContiguityChain((identity_map(edge),)), VertexFunction((0.0, 0.0, 0.0))
        )


def test_compose_maps():
    edge = build_complex([[0, 1]])
    point = build_complex([[0]])
    phi = SimplicialMap(point, edge, (1,))
    psi = SimplicialMap(edge, point, (0, 0))
    assert compose(psi, phi).vertex_image == (0,)
    assert compose(phi, psi).vertex_image == (1, 1)


def test_maximal_simplices():
    K = build_complex([[0, 1, 2], [2, 3]])
    assert K.facets == ((2, 3), (0, 1, 2))
    rng = random.Random(73)
    for K in [random_complex(rng) for _ in range(20)] + [random_complex_3d(rng) for _ in range(20)]:
        facets = [set(s) for s in K.facets]
        assert not any(a < b for a in facets for b in facets)
        assert all(any(set(s) <= f for f in facets) for s in K.simplices)


def test_facets_do_not_keep_their_complex_alive():
    K = build_complex([[0, 1, 2], [2, 3]])
    assert check_simplicial(identity_map(K))  # reads K.facets
    assert K.facets == ((2, 3), (0, 1, 2))
    ref = weakref.ref(K)
    del K
    gc.collect()
    assert ref() is None


def test_instance_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        K = random_complex(rng)
        f = random_vertex_function(rng, K.vertex_count)
        K2, f2 = parse_instance(format_instance(K, f))
        assert K2 == K
        assert f2 == f


def test_parse_instance_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("n 2\n0\n1\ns 0 0\n", source="bad.txt")
    assert err.value.line == 4
    assert "repeated" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_instance("n 1\n0\ns\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_instance("n 2\n0\n")
    assert "vertex values" in str(err.value)

    with pytest.raises(ParseError):
        parse_instance("")


PARSE_ERRORS = [
    # each text is clean apart from its one fault
    pytest.param("", 1, "empty file; expected `n <vertex_count>`", id="empty"),
    pytest.param("m 2\n0\n1\n", 1, "expected header `n <vertex_count>`", id="bad-tag"),
    pytest.param("n 2 3\n0\n1\n", 1, "expected header `n <vertex_count>`", id="long-header"),
    pytest.param("n two\n0\n1\n", 1, "expected an integer, got 'two'", id="bad-count"),
    pytest.param("n -1\n", 1, "vertex count must be non-negative", id="negative-count"),
    pytest.param("n 3\n0\n1\n", 3, "expected 3 vertex values, got 2", id="missing-values"),
    pytest.param("n 2\n0\n1 2\ns 0 1\n", 3, "expected one vertex value per line",
                 id="two-values"),
    pytest.param("n 2\n0\nhalf\ns 0 1\n", 3, "expected a number, got 'half'", id="bad-value"),
    pytest.param("n 2\n0\n1\ns 0 1\nt 0 1\n", 5, "expected `s v0 v1 ...`, got 't'",
                 id="not-s"),
    pytest.param("n 2\n0\n1\n2\ns 0 1\n", 4, "expected `s v0 v1 ...`, got '2'",
                 id="extra-value"),
    pytest.param("n 2\n0\n1\ns 0 1\ns\n", 5, "empty simplex", id="empty-simplex"),
    pytest.param("n 2\n0\n1\ns 0 1.5\n", 4, "expected an integer, got '1.5'", id="bad-vertex"),
    pytest.param("n 3\n0\n1\n2\ns 0 1 2\ns 2 0 2\n", 6, "repeated vertex inside a simplex",
                 id="repeated"),
    pytest.param("n 3\n0\n1\n2\ns 0 1\ns 1 3\n", 6, "vertex index out of range",
                 id="above-range"),
    pytest.param("n 3\n0\n1\n2\ns 0 1\ns -1 2\n", 6, "vertex index out of range",
                 id="negative-vertex"),
    pytest.param("n 5\n0\n1\n2\n3\n4\ns 0 1\ns 0 1 2 3 4\n", 8,
                 "simplex exceeds dimension cap 3", id="dimension-cap"),
    # the first fault in line order is the one named
    pytest.param("n 3\n0\n1\n2\ns 0 0\ns 0 5\n", 5, "repeated vertex inside a simplex",
                 id="repeat-then-range"),
    pytest.param("n 3\n0\n1\n2\ns 0 5\ns 0 0\n", 5, "vertex index out of range",
                 id="range-then-repeat"),
    pytest.param("n 3\n0\n1\n2\ns 1 0\ns 2 x\ns 1 1\n", 6, "expected an integer, got 'x'",
                 id="token-then-repeat"),
    # comments, blank lines and CRLF count as lines
    pytest.param("# header next\n\nn 2\r\n0\r\n1 # one\r\n\r\ns 0 1\r\ns 1 1\r\n", 8,
                 "repeated vertex inside a simplex", id="messy"),
]


@pytest.mark.parametrize("text, line, message", PARSE_ERRORS)
def test_parse_instance_errors(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text, source="in.txt")
    assert (err.value.source, err.value.line, err.value.message) == ("in.txt", line, message)


def _messy_instance(rng: random.Random, K: SimplicialComplex, f: VertexFunction,
                    comments: bool) -> str:
    """K and f as an instance file that format_instance would not write:
    rows unsorted and shuffled, faces listed beside their facets, mixed
    whitespace and line endings and, with ``comments``, comment and blank
    lines."""
    rows = [list(s) for s in K.facets if len(s) > 1]
    rows += [list(s) for s in rng.sample(sorted(K.simplices), len(K.simplices) // 3)]
    rng.shuffle(rows)
    for row in rows:
        rng.shuffle(row)

    def join(tokens):
        return "".join(t + rng.choice((" ", "\t", "  ")) for t in tokens).rstrip()

    lines = [join(["n", str(K.vertex_count)])]
    lines += [rng.choice(("", " ", "\t")) + repr(v) for v in f]
    lines += [join(["s", *map(str, row)]) for row in rows]
    if comments:
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(lines))
            lines.insert(at, rng.choice(("", "# note", "   ", "\t# n 1")))
        at = rng.randrange(len(lines))
        lines[at] += " # trailing"
    return "".join(line + rng.choice(("\n", "\r\n")) for line in lines)


def test_parse_instance_paths_agree():
    """Clean, messy and commented texts of one instance parse to it through
    parse_instance and the line-by-line parser, and the first two through
    the batched parser too."""
    rng = random.Random(29)
    for trial in range(60):
        K = (random_complex_3d if trial % 2 else random_complex)(rng)
        f = random_vertex_function(rng, K.vertex_count)
        clean = format_instance(K, f)
        messy, commented = (_messy_instance(rng, K, f, comments) for comments in (False, True))
        for text in (clean, messy, commented):
            assert parse_instance(text) == (K, f)
            assert _parse_lines(text, "<string>") == (K, f)
        for text in (clean, messy):
            assert _parse_batched(text.splitlines()) == (K, f)


HUGE_COUNT_CHILD = """
import resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from topodist.common import ParseError
from topodist.complexes import parse_instance
tracemalloc.start()
try:
    parse_instance("n 1000000000000\\n0\\n")
except ParseError as exc:
    print(exc)
print(tracemalloc.get_traced_memory()[1])
"""


def test_parse_instance_huge_vertex_count_fails_without_allocating():
    """The header count is checked against the value lines as they are read,
    so an absurd ``n`` fails at the end of input before anything of that
    size is allocated.  The parse runs in a child Python whose address
    space is capped at 256 MiB, so a regression that allocates by ``n``
    dies there within seconds instead of filling the machine's memory."""
    src = str(Path(topodist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", HUGE_COUNT_CHILD],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    message, peak = child.stdout.splitlines()
    assert message == "<string>:2: expected 1000000000000 vertex values, got 1"
    assert int(peak) < 1 << 20


def test_parse_instance_comments_and_closure():
    text = "# a triangle\nn 3\n0\n0.5  # inline comment\n1\ns 0 1 2\n"
    K, f = parse_instance(text)
    assert (0, 1) in K.simplices
    assert f.values == (0.0, 0.5, 1.0)
