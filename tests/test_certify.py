import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import topodist.certify
from topodist.bottleneck import bottleneck_distance, linf_distance
from topodist.common import ParseError, SizeGuardExceeded, eps_needed
from topodist.certify import (
    CONDITIONS,
    DEFAULT_CONTROL_FACTOR,
    DEFAULT_MAX_CHAIN_LEN,
    CertificateCheck,
    ShiftCertificate,
    _chain_from,
    _chains_to_identity,
    check_certificate,
    dht_upper_bound,
    enumerate_simplicial_maps,
    format_certificate,
    parse_certificate,
    search_certificate,
    upshift_asymmetry_probe,
    verify_stability,
)
from topodist.complexes import (
    ContiguityChain,
    SimplicialMap,
    VertexFunction,
    build_complex,
    check_simplicial,
    contiguous,
    homotopy_sup_control,
    identity_map,
    lower_star,
)
from topodist.mergetree import build_merge_tree, interleaving_distance
from topodist.persistence import compute_diagrams

from gen import (
    coned,
    level_values,
    random_complex,
    random_connected_complex,
    random_vertex_function,
    tied_vertex_function,
)


def point_edge_setup():
    X = build_complex([[0]])
    Y = build_complex([[0, 1]])
    cert = ShiftCertificate(
        SimplicialMap(X, Y, (0,)),
        SimplicialMap(Y, X, (0, 0)),
        0.0,
        ContiguityChain((identity_map(X),)),
        ContiguityChain((SimplicialMap(Y, Y, (0, 0)), identity_map(Y))),
    )
    return (X, VertexFunction((0.0,)), Y, VertexFunction((0.0, 1.0))), cert


def identity_certificate(K, eps=0.0):
    ident = identity_map(K)
    chain = ContiguityChain((ident,))
    return ShiftCertificate(ident, ident, eps, chain, chain)


def test_identity_certificate_passes():
    K = build_complex([[0, 1], [1, 2]])
    f = VertexFunction((0.0, 2.0, 1.0))
    assert check_certificate(K, f, K, f, identity_certificate(K)).ok


def test_point_edge_certificate():
    pair, cert = point_edge_setup()
    assert check_certificate(*pair, cert).ok


def test_point_vs_point_understated_eps():
    X = build_complex([[0]])
    f, g = VertexFunction((0.0,)), VertexFunction((1.0,))
    cert = identity_certificate(X, eps=0.5)
    outcome = check_certificate(X, f, X, g, cert)
    assert not outcome.ok and outcome.condition == "shift_phi"


def test_certificate_monotone_in_eps():
    pair, cert = point_edge_setup()
    for eps in (0.25, 1.0, 7.5):
        assert check_certificate(*pair, replace(cert, eps=eps)).ok


def test_certificate_structural_errors():
    (X, f, Y, g), cert = point_edge_setup()
    with pytest.raises(ValueError, match="endpoints"):
        check_certificate(Y, g, X, f, cert)
    with pytest.raises(ValueError):
        replace(cert, eps=-1.0)
    with pytest.raises(ValueError):
        replace(cert, control_factor=0.0)
    with pytest.raises(ValueError, match="self-maps"):
        ShiftCertificate(cert.phi, cert.psi, 0.0, cert.chain_y, cert.chain_y)


def test_search_identity_pair_is_zero():
    K = build_complex([[0, 1], [1, 2], [0, 2]])
    f = VertexFunction((0.0, 0.25, 0.5))
    eps, cert = search_certificate(K, f, K, f)
    assert eps == 0.0 and cert is not None
    assert check_certificate(K, f, K, f, cert).ok
    # two empty complexes: the empty maps make a certificate
    E, e = build_complex([], vertex_count=0), VertexFunction(())
    eps, cert = search_certificate(E, e, E, e)
    assert eps == 0.0 and check_certificate(E, e, E, e, cert).ok


def test_search_two_points():
    X = build_complex([[0]])
    fa, fb = VertexFunction((0.25,)), VertexFunction((1.0,))
    eps, cert = search_certificate(X, fa, X, fb)
    assert eps == 0.75
    assert check_certificate(X, fa, X, fb, cert).ok


def test_search_point_vs_edge():
    pair, _ = point_edge_setup()
    eps, cert = search_certificate(*pair)
    assert eps == 0.0 and cert is not None


def test_search_respects_chain_budget():
    # the edge side needs a 2-map chain, so a budget of 1 finds nothing
    pair, _ = point_edge_setup()
    eps, cert = search_certificate(*pair, max_chain_len=1)
    assert math.isinf(eps) and cert is None
    with pytest.raises(ValueError, match="^max_chain_len must be at least 1$"):
        search_certificate(*pair, max_chain_len=0)


def test_search_vertex_guard():
    K = build_complex([[i, i + 1] for i in range(7)])
    f = VertexFunction(tuple(float(i) for i in range(8)))
    with pytest.raises(SizeGuardExceeded):
        search_certificate(K, f, K, f)


def test_search_no_homotopy_equivalence():
    # circle vs point: no contiguity chain can connect their round trips
    circle = build_complex([[0, 1], [1, 2], [0, 2]])
    point = build_complex([[0]])
    eps, cert = search_certificate(
        circle, VertexFunction((0.0, 0.0, 0.0)), point, VertexFunction((0.0,))
    )
    assert math.isinf(eps) and cert is None


def test_search_skips_enumeration_when_betti_numbers_differ(monkeypatch):
    def refuse(src, dst):
        raise AssertionError("maps enumerated between complexes of different homology")

    monkeypatch.setattr(topodist.certify, "enumerate_simplicial_maps", refuse)
    point = build_complex([[0]])
    circle = build_complex([[0, 1], [1, 2], [0, 2]])
    sphere = build_complex(itertools.combinations(range(4), 3))  # only b2 differs from a point
    disk = build_complex([[0, 1, 2]])
    for X, Y in ((circle, point), (sphere, point), (circle, disk)):
        f = VertexFunction((0.25,) * X.vertex_count)
        g = VertexFunction((0.5,) * Y.vertex_count)
        assert search_certificate(X, f, Y, g) == (math.inf, None)
        assert search_certificate(Y, g, X, f) == (math.inf, None)


def test_search_vertex_guard_comes_before_the_homology_precheck():
    # an 8-cycle and a point differ in b1, but the pair is above the guard
    cycle = build_complex([[i, (i + 1) % 8] for i in range(8)])
    point = build_complex([[0]])
    with pytest.raises(SizeGuardExceeded):
        search_certificate(cycle, VertexFunction((0.0,) * 8), point, VertexFunction((0.0,)))


def test_search_bounded_by_linf_on_same_domain():
    rng = random.Random(2718)
    for _ in range(12):
        K = random_complex(rng, max_vertices=4)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        eps, cert = search_certificate(K, f, K, g)
        assert eps <= linf_distance(f, g)
        assert cert is not None


def test_search_deterministic():
    K = build_complex([[0, 1], [1, 2]])
    fa = VertexFunction((0.0, 0.5, 0.25))
    fb = VertexFunction((0.25, 0.75, 0.0))
    runs = [search_certificate(K, fa, K, fb) for _ in range(3)]
    assert len({r[0] for r in runs}) == 1
    assert len({format_certificate(r[1]) for r in runs}) == 1


def bfs_oracle(K, max_steps):
    """Links of a BFS from the identity over all n^n self-maps, filtered by
    check_simplicial, with adjacency from complexes.contiguous; each newly
    reached map links to the smallest frontier map contiguous to it.
    Yields the links after 0, 1, ..., max_steps steps."""
    n = K.vertex_count
    self_maps = [
        m
        for m in (SimplicialMap(K, K, img) for img in itertools.product(range(n), repeat=n))
        if check_simplicial(m)
    ]
    prev = {tuple(range(n)): None}
    yield dict(prev)
    frontier = [identity_map(K)]
    for _ in range(max_steps):
        new = []
        for m in self_maps:
            if m.vertex_image not in prev:
                link = next((p for p in frontier if contiguous(p, m)), None)
                if link is not None:
                    prev[m.vertex_image] = link.vertex_image
                    new.append(m)
        frontier = new
        yield dict(prev)


def assert_bfs_matches_oracle(K):
    assert [_chains_to_identity(K, steps) for steps in range(4)] == list(bfs_oracle(K, 3))


def brute_force_map_count(src, dst):
    """The number of simplicial maps src -> dst, by checking all m^n vertex maps."""
    n, m = src.vertex_count, dst.vertex_count
    return sum(
        1
        for code in range(m**n)
        if check_simplicial(
            SimplicialMap(src, dst, tuple((code // m**v) % m for v in range(n)))
        )
    )


def test_enumerate_simplicial_maps_all_simplicial():
    rng = random.Random(5)
    for _ in range(10):
        src = random_complex(rng, max_vertices=4)
        dst = random_complex(rng, max_vertices=4)
        images = enumerate_simplicial_maps(src, dst)
        assert images == sorted(images)
        for img in images:
            assert check_simplicial(SimplicialMap(src, dst, img))
        assert len(images) == brute_force_map_count(src, dst)
        assert_bfs_matches_oracle(src)
    # an empty source has the empty map; an empty target receives none
    empty, point = build_complex([], vertex_count=0), build_complex([[0]])
    assert enumerate_simplicial_maps(empty, point) == [()]
    assert enumerate_simplicial_maps(point, empty) == []
    # hollow cycles, where the images of an edge under two maps can span a
    # missing triangle, so contiguity cuts the graph
    assert_bfs_matches_oracle(build_complex([[0, 1], [1, 2], [0, 2]]))
    assert_bfs_matches_oracle(build_complex([[0, 1], [1, 2], [2, 3], [0, 3]]))


def test_enumerate_and_bfs_match_brute_force_on_five_vertices():
    # the expansion shapes of the desk corpus: a filled triangle with a
    # pendant edge, that complex coned over an edge, a filled triangle coned
    # over an edge, and a cone over a triangle (a solid tetrahedron)
    pendant = build_complex([[0, 1, 2], [2, 3]])
    shapes = [
        build_complex([[0, 1, 2], [2, 3], [1, 2, 4]]),
        build_complex([[0, 1, 2], [2, 3], [2, 3, 4]]),
        build_complex([[0, 1, 2], [1, 2, 3]]),
        build_complex([[0, 1, 2], [2, 3], [0, 1, 2, 4]], max_dim=3),
    ]
    rng = random.Random(11)
    shapes += [random_connected_complex(rng, min_vertices=5, max_vertices=5) for _ in range(2)]
    for src in shapes:
        for dst in (pendant, src):
            images = enumerate_simplicial_maps(src, dst)
            assert len(images) == len(set(images)) == brute_force_map_count(src, dst)
            assert all(check_simplicial(SimplicialMap(src, dst, img)) for img in images)
        assert_bfs_matches_oracle(src)


def edge_walk_sup_control(chain, fc):
    """Per source vertex, the max of the filtration over its images and over
    the edges that consecutive images span: the sweep bound read off a
    filtration, the reference for homotopy_sup_control on lower stars."""
    value = level_values(fc)
    bounds = []
    for v in range(chain.source.vertex_count):
        images = [m.vertex_image[v] for m in chain.maps]
        bound = max(value[(w,)] for w in images)
        for a, b in zip(images, images[1:]):
            if a != b:
                bound = max(bound, value[(min(a, b), max(a, b))])
        bounds.append(bound)
    return tuple(bounds)


def test_homotopy_sup_control_matches_edge_walk():
    rng = random.Random(41)
    chains = moving = 0
    for i in range(40):
        if i % 2:
            K = random_connected_complex(rng, min_vertices=2, max_vertices=5)
        else:
            K = random_complex(rng, max_vertices=4)
        g = random_vertex_function(rng, K.vertex_count)
        fc = lower_star(K, g)
        reach = _chains_to_identity(K, 3)
        for h in reach:
            chain = _chain_from(K, reach, h)
            assert homotopy_sup_control(chain, g) == edge_walk_sup_control(chain, fc)
            chains += 1
            moving += len(chain) > 1
    assert moving > 100 and chains > moving


def product_search(X, f, Y, g, max_chain_len, control_factor):
    """search_certificate as a plain product over all (phi, psi) pairs: the
    reference that the join on image(phi) must reproduce exactly."""
    reach_x = _chains_to_identity(X, max_chain_len - 1)
    reach_y = _chains_to_identity(Y, max_chain_len - 1)
    shift_yx = {
        psi: max([0.0, *(eps_needed(f[psi[w]], g[w]) for w in range(len(g)))])
        for psi in enumerate_simplicial_maps(Y, X)
    }

    def control(K, fn, reach):
        """h -> the least eps that the checker's sweep of h's chain allows."""
        memo = {}

        def eps_of(h):
            if h not in memo:
                bounds = homotopy_sup_control(_chain_from(K, reach, h), fn)
                need = [eps_needed(b, y, control_factor) for b, y in zip(bounds, fn)]
                memo[h] = max([0.0, *need])
            return memo[h]

        return eps_of

    control_x, control_y = control(X, f, reach_x), control(Y, g, reach_y)
    best = None
    for phi in enumerate_simplicial_maps(X, Y):
        shift_phi = max([0.0, *(eps_needed(g[phi[v]], f[v]) for v in range(len(f)))])
        for psi, shift_psi in shift_yx.items():
            hx = tuple(psi[w] for w in phi)
            hy = tuple(phi[v] for v in psi)
            if hx not in reach_x or hy not in reach_y:
                continue
            eps = max(
                shift_phi,
                shift_psi,
                control_x(hx),
                control_y(hy),
            )
            key = (eps, phi, psi)
            if best is None or key < best:
                best = key
    if best is None:
        return math.inf, None
    eps, phi, psi = best
    return eps, ShiftCertificate(
        SimplicialMap(X, Y, phi),
        SimplicialMap(Y, X, psi),
        eps,
        _chain_from(X, reach_x, tuple(psi[w] for w in phi)),
        _chain_from(Y, reach_y, tuple(phi[v] for v in psi)),
        control_factor,
    )


def flat_function(rng, n):
    """A constant function: every round trip ties at eps 0, so the (phi, psi)
    order alone picks the witness."""
    return VertexFunction((0.5,) * n)


def betti_numbers(K, top):
    """K's mod-2 Betti numbers in degrees 0..top: the essential classes of
    any filtration of K."""
    flat = VertexFunction((0.0,) * K.vertex_count)
    return [d.infinite_count() for d in compute_diagrams(lower_star(K, flat), top)]


def test_search_matches_product_oracle():
    # The oracle has no homology precheck, so pairs whose Betti numbers
    # differ check the search's "inf" against exhaustion.
    rng = random.Random(31)
    same_homology = set()
    for i in range(48):
        if i % 2:
            X = random_connected_complex(rng, min_vertices=2, max_vertices=3)
            Y = coned(rng, X)
        else:
            X, Y = random_complex(rng, max_vertices=4), random_complex(rng, max_vertices=4)
        function = (random_vertex_function, tied_vertex_function, flat_function)[i // 2 % 3]
        pair = (X, function(rng, X.vertex_count), Y, function(rng, Y.vertex_count))
        top = max(X.dim, Y.dim, 0)
        same_homology.add(betti_numbers(X, top) == betti_numbers(Y, top))
        for j, budget in enumerate((1, 2, 4)):
            factor = (1.0, 2.0, 3.0)[(i + j) % 3]
            eps, cert = search_certificate(*pair, max_chain_len=budget, control_factor=factor)
            ref_eps, ref_cert = product_search(*pair, budget, factor)
            assert eps == ref_eps
            text = format_certificate(cert) if cert else None
            assert text == (format_certificate(ref_cert) if ref_cert else None)
    assert same_homology == {True, False}


def test_certificates_reject_functions_of_the_wrong_length():
    edge = build_complex([[0, 1]])
    f = VertexFunction((0.0, 0.0))
    short = VertexFunction((0.0,))
    cert = identity_certificate(edge)
    for pair in ((edge, short, edge, f), (edge, f, edge, short)):
        with pytest.raises(ValueError, match="function length 1 != vertex count 2"):
            search_certificate(*pair)
        with pytest.raises(ValueError, match="function length 1 != vertex count 2"):
            check_certificate(*pair, cert)
        with pytest.raises(ValueError, match="function length 1 != vertex count 2"):
            verify_stability(*pair, cert, max_degree=1)
        with pytest.raises(ValueError, match="function length 1 != vertex count 2"):
            upshift_asymmetry_probe(*pair, cert, 0.25)


def test_search_ties_pick_the_smallest_pair():
    # Every round trip ties at eps 0, so the smallest (phi, psi) must win.
    # The path's constant self-maps are reached in BFS order, (1, 1, 1)
    # before (0, 0, 0), so the winning partner is not the first one the join
    # meets.  The join runs from X on path/path and from Y on triangle/path.
    path = build_complex([[0, 1], [1, 2]])
    triangle = build_complex([[0, 1, 2]])
    flat = flat_function(None, 3)
    for X in (path, triangle):
        eps, cert = search_certificate(X, flat, path, flat)
        assert eps == 0.0
        assert (cert.phi.vertex_image, cert.psi.vertex_image) == ((0, 0, 0), (0, 0, 0))
        assert format_certificate(cert) == format_certificate(
            product_search(X, flat, path, flat, DEFAULT_MAX_CHAIN_LEN, DEFAULT_CONTROL_FACTOR)[1]
        )


def test_search_raises_on_a_witness_the_checker_rejects(monkeypatch):
    monkeypatch.setattr(
        topodist.certify,
        "check_certificate",
        lambda X, f, Y, g, cert: CertificateCheck(False, "control_x", "rejected"),
    )
    pair, _ = point_edge_setup()
    with pytest.raises(AssertionError, match="control_x"):
        search_certificate(*pair)


def test_verify_stability_point_edge():
    pair, cert = point_edge_setup()
    report = verify_stability(*pair, cert, max_degree=1)
    assert report.ok
    assert [e.bottleneck for e in report.entries] == [0.0, 0.0]
    assert [e.slack for e in report.entries] == [0.0, 0.0]


def test_verify_stability_refuses_bad_cert():
    X = build_complex([[0]])
    f, g = VertexFunction((0.0,)), VertexFunction((1.0,))
    with pytest.raises(ValueError, match="refusing"):
        verify_stability(X, f, X, g, identity_certificate(X, eps=0.5))


def test_verify_stability_same_domain_linf_certificate():
    rng = random.Random(1618)
    for _ in range(10):
        K = random_complex(rng, max_vertices=8)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        cert = identity_certificate(K, eps=linf_distance(f, g))
        assert check_certificate(K, f, K, g, cert).ok
        assert verify_stability(K, f, K, g, cert).ok


def test_dht_upper_bound_is_the_least_float_above_the_factor_rule():
    assert dht_upper_bound(0.8125, 3.0) == 1.21875
    for factor in (0.5, 1.0, 2.0):
        assert dht_upper_bound(0.8125, factor) == 0.8125
    assert dht_upper_bound(0.0, 4.0) == 0.0
    assert dht_upper_bound(math.inf, 4.0) == math.inf
    assert dht_upper_bound(1e308, 4.0) == math.inf
    # 3 * 0.1 / 2 rounds in floats: the bound is the float just above it
    exact = Fraction(3) * Fraction(0.1) / 2
    bound = dht_upper_bound(0.1, 3.0)
    assert Fraction(bound) >= exact > Fraction(math.nextafter(bound, -math.inf))


def test_searched_certificates_bound_the_bottleneck_at_every_factor():
    """At control factors 1-4, max d_B <= dht_upper_bound(eps, k) on every
    finite search, and so is the merge-tree interleaving where it is exact;
    at factors above 2 some searches have d_B above the bare eps."""
    rng = random.Random(11)
    finite = above_eps = 0
    for i in range(60):
        X = random_connected_complex(rng, min_vertices=1, max_vertices=4)
        Y = coned(rng, X) if i % 2 == 0 else random_complex(rng, max_vertices=5)
        f, g = random_vertex_function(rng, X.vertex_count), random_vertex_function(rng, Y.vertex_count)
        top = max(X.dim, Y.dim, 0)
        dx, dy = (compute_diagrams(lower_star(K, h), top) for K, h in ((X, f), (Y, g)))
        db = max(bottleneck_distance(a, b)[0] for a, b in zip(dx, dy))
        lower = db
        if dx[0].infinite_count() == dy[0].infinite_count() == 1:
            inter = interleaving_distance(
                build_merge_tree(lower_star(X, f)), build_merge_tree(lower_star(Y, g))
            )
            if inter.exact:
                lower = max(lower, inter.upper)
        for factor in (1.0, 2.0, 3.0, 4.0):
            eps, cert = search_certificate(X, f, Y, g, control_factor=factor)
            if cert is None:
                continue
            finite += 1
            above_eps += db > eps
            bound = dht_upper_bound(eps, factor)
            assert lower <= bound, (i, factor, eps, db, lower)
            report = verify_stability(X, f, Y, g, cert, max_degree=top)
            assert report.ok and report.bound == bound
    assert finite >= 150 and above_eps >= 4, (finite, above_eps)


def test_search_certifies_a_rounded_difference_exactly():
    # g - f rounds down to 1.0 in floats, but the exact difference is above 1
    X = build_complex([[0]])
    f, g = VertexFunction((2**-53 + 2**-60,)), VertexFunction((1 + 2**-52,))
    eps, cert = search_certificate(X, f, X, g)
    assert eps == math.nextafter(1.0, math.inf)
    outcome = check_certificate(X, f, X, g, replace(cert, eps=1.0))
    assert not outcome.ok and outcome.condition == "shift_phi"


def test_probe_zero_delta_both_pass():
    pair, cert = point_edge_setup()
    report = upshift_asymmetry_probe(*pair, cert, 0.0)
    assert report.up.ok and report.down.ok


def test_probe_upshift_always_passes_downshift_here_fails():
    X = build_complex([[0]])
    f = VertexFunction((0.0,))
    cert = identity_certificate(X, eps=0.0)
    report = upshift_asymmetry_probe(X, f, X, f, cert, 1.0)
    assert report.up.ok
    assert report.up_eps == 1.0
    assert not report.down.ok and report.down.condition == "shift_psi"


def test_probe_requires_valid_cert_and_nonneg_delta():
    pair, cert = point_edge_setup()
    for delta in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be finite and non-negative"):
            upshift_asymmetry_probe(*pair, cert, delta)
    X = build_complex([[0]])
    fa, fb = VertexFunction((0.0,)), VertexFunction((5.0,))
    with pytest.raises(ValueError, match="valid certificate"):
        upshift_asymmetry_probe(X, fa, X, fb, identity_certificate(X, eps=0.0), 1.0)


def test_certificate_file_roundtrip():
    (X, _, Y, _), cert = point_edge_setup()
    text = format_certificate(cert)
    again = parse_certificate(text, X, Y)
    assert again == cert


def test_certificate_parse_errors():
    X = build_complex([[0]])
    Y = build_complex([[0, 1]])
    with pytest.raises(ParseError, match="missing"):
        parse_certificate("eps 0\n", X, Y)
    with pytest.raises(ParseError, match="truncated"):
        parse_certificate("eps 0\nphi 0\npsi 0 0\nchainy 1\n0 1\nchainx 2\n0\n", X, Y)
    with pytest.raises(ParseError):  # chain rows must be integer image lists
        parse_certificate("eps 0\nphi 0\npsi 0 0\nchainx 2\n0\nchainy 1\n0 1\n", X, Y)
    with pytest.raises(ParseError):
        parse_certificate("eps 0\nphi 9\npsi 0 0\nchainx 1\n0\nchainy 1\n0 1\n", X, Y)
    with pytest.raises(ParseError, match="unrecognized"):
        parse_certificate("epsilon 0\n", X, Y)


def test_condition_names_are_stable():
    assert CONDITIONS == (
        "phi_not_simplicial",
        "psi_not_simplicial",
        "chain_x_invalid",
        "chain_y_invalid",
        "chain_x_endpoints",
        "chain_y_endpoints",
        "shift_phi",
        "shift_psi",
        "control_x",
        "control_y",
    )


@pytest.fixture(scope="module")
def searched_pool():
    """Valid searched certificates on seeded pairs: X connected on 2-4
    vertices, Y either X or X coned over one of its simplices."""
    rng = random.Random(10)
    pool = []
    for i in range(40):
        X = random_connected_complex(rng, min_vertices=2, max_vertices=4)
        Y = coned(rng, X) if i % 2 else X
        f = random_vertex_function(rng, X.vertex_count)
        g = random_vertex_function(rng, Y.vertex_count)
        _, cert = search_certificate(X, f, Y, g)
        if cert is not None:
            assert check_certificate(X, f, Y, g, cert).ok
            pool.append((X, f, Y, g, cert))
    return pool


def _non_simplicial_map(src, dst):
    """The first vertex map src -> dst, by image tuple, that is not
    simplicial; None when every vertex map is."""
    for image in itertools.product(range(dst.vertex_count), repeat=src.vertex_count):
        m = SimplicialMap(src, dst, image)
        if not check_simplicial(m):
            return m
    return None


def _corrupted(name, X, f, Y, g, cert):
    """``cert`` changed so that it breaks condition ``name`` and none checked
    before it; None when this certificate cannot be changed so."""
    field = next((part for part in ("phi", "psi", "chain_x", "chain_y") if name.startswith(part)), None)
    src, dst = {"phi": (X, Y), "psi": (Y, X), "chain_x": (X, X), "chain_y": (Y, Y)}.get(field, (X, X))
    if name.endswith("not_simplicial") or name.endswith("invalid"):
        bad = _non_simplicial_map(src, dst)
        if bad is not None and field.startswith("chain"):
            bad = ContiguityChain((*getattr(cert, field).maps, bad))
        return None if bad is None else replace(cert, **{field: bad})
    if name.endswith("endpoints"):  # a one-map chain that is not the identity
        constant = ContiguityChain((SimplicialMap(src, src, (0,) * src.vertex_count),))
        return replace(cert, **{field: constant}) if src.vertex_count > 1 else None
    need_phi = max([0.0, *(eps_needed(g[cert.phi(v)], f[v]) for v in range(len(f)))])
    need_psi = max(eps_needed(f[cert.psi(w)], g[w]) for w in range(len(g)))
    if name == "shift_phi":
        return replace(cert, eps=0.0) if need_phi > 0 else None
    if name == "shift_psi":
        return replace(cert, eps=need_phi) if need_psi > need_phi else None
    # values are in 64ths, so a tiny control factor leaves the shifts alone
    # and fails the first chain that sweeps above some vertex's own value
    above_x, above_y = (
        any(b > h[v] for v, b in enumerate(homotopy_sup_control(chain, h)))
        for chain, h in ((cert.chain_x, f), (cert.chain_y, g))
    )
    breaks = above_x if name == "control_x" else above_y and not above_x
    return replace(cert, control_factor=2.0**-20) if breaks else None


@pytest.mark.parametrize("name", CONDITIONS)
def test_a_corrupted_certificate_is_rejected_under_its_condition(name, searched_pool):
    """Valid searched certificates, each changed to break one condition:
    check_certificate names exactly that condition."""
    rejected = 0
    for X, f, Y, g, cert in searched_pool:
        bad = _corrupted(name, X, f, Y, g, cert)
        if bad is not None:
            assert check_certificate(X, f, Y, g, bad).condition == name
            rejected += 1
    assert rejected >= 5
