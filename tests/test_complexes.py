import gc
import random
import weakref

import pytest

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

from gen import (
    freudenthal_block,
    grid_complex,
    random_complex,
    random_complex_3d,
    random_connected_complex,
    random_filtered,
    random_monotone_filtered,
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
    fc = lower_star(K, VertexFunction((0.0, 2.0, 1.0)))
    assert fc.filtration[(0, 1)] == 2.0
    assert fc.filtration[(1, 2)] == 2.0
    assert [fc.filtration[(v,)] for v in range(3)] == [0.0, 2.0, 1.0]


def test_lower_star_constant():
    K = build_complex([[0, 1, 2]])
    fc = lower_star(K, VertexFunction((5.0, 5.0, 5.0)))
    assert all(v == 5.0 for v in fc.filtration.values())


def test_lower_star_triangle_max_rule():
    K = build_complex([[0, 1, 2]])
    fc = lower_star(K, VertexFunction((0.0, 0.0, 1.0)))
    assert fc.filtration[(0, 1, 2)] == 1.0
    assert fc.filtration[(0, 1)] == 0.0


def test_lower_star_length_mismatch():
    K = build_complex([[0, 1]])
    with pytest.raises(ValueError, match="length"):
        lower_star(K, VertexFunction((0.0,)))


def test_lower_star_monotone_randomized():
    rng = random.Random(11)
    for _ in range(30):
        K = random_complex(rng)
        fc = lower_star(K, random_vertex_function(rng, K.vertex_count))
        for s, val in fc.filtration.items():
            for k in range(len(s)):
                face = s[:k] + s[k + 1 :]
                if face:
                    assert fc.filtration[face] <= val


def test_filtered_complex_rejects_non_monotone():
    K = build_complex([[0, 1]])
    with pytest.raises(ValueError, match="monotone"):
        FilteredComplex(K, {(0,): 0.0, (1,): 0.0, (0, 1): -1.0})


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
    """build_complex and lower_star skip the public constructors' checks;
    re-validating what they return passes and gives an equal object, and the
    cached filtration order is the (value, dimension, vertex tuple) order."""
    rng = random.Random(2024)
    for K in _generated_complexes(rng):
        assert SimplicialComplex(K.vertex_count, K.simplices) == K
        for values in (random_filtered, tied_filtered, random_monotone_filtered):
            fc = values(rng, K)
            assert FilteredComplex(fc.complex, dict(fc.filtration)) == fc
            value = fc.filtration
            assert fc.order == tuple(
                sorted(K.simplices, key=lambda s: (value[s], len(s), s))
            )
            edges = [s for s in K.simplices if len(s) == 2]
            assert [s for s in fc.order if len(s) == 2] == sorted(
                edges, key=lambda e: (value[e], e)
            )


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


def test_parse_instance_comments_and_closure():
    text = "# a triangle\nn 3\n0\n0.5  # inline comment\n1\ns 0 1 2\n"
    K, f = parse_instance(text)
    assert (0, 1) in K.simplices
    assert f.values == (0.0, 0.5, 1.0)
