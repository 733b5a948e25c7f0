import itertools
import math
import random
from dataclasses import replace

import pytest

import topodist.certify
from topodist.bottleneck import linf_distance
from topodist.common import ParseError, SizeGuardExceeded
from topodist.certify import (
    CONDITIONS,
    DEFAULT_CONTROL_FACTOR,
    DEFAULT_MAX_CHAIN_LEN,
    CertificateCheck,
    ShiftCertificate,
    _chain_from,
    _chains_to_identity,
    _control_excess,
    _min_eps,
    check_certificate,
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

from gen import (
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
    reached map links to the smallest frontier map contiguous to it."""
    n = K.vertex_count
    self_maps = [
        m
        for m in (SimplicialMap(K, K, img) for img in itertools.product(range(n), repeat=n))
        if check_simplicial(m)
    ]
    prev = {tuple(range(n)): None}
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
    return prev


def assert_bfs_matches_oracle(K):
    for steps in range(4):
        assert _chains_to_identity(K, steps) == bfs_oracle(K, steps)


def test_enumerate_simplicial_maps_all_simplicial():
    rng = random.Random(5)
    for _ in range(10):
        src = random_complex(rng, max_vertices=4)
        dst = random_complex(rng, max_vertices=4)
        images = enumerate_simplicial_maps(src, dst)
        assert images == sorted(images)
        for img in images:
            assert check_simplicial(SimplicialMap(src, dst, img))
        n, m = src.vertex_count, dst.vertex_count
        brute = sum(
            1
            for code in range(m**n)
            if check_simplicial(
                SimplicialMap(
                    src, dst, tuple((code // m**v) % m for v in range(n))
                )
            )
        )
        assert len(images) == brute
        assert_bfs_matches_oracle(src)
    # hollow cycles, where the images of an edge under two maps can span a
    # missing triangle, so contiguity cuts the graph
    assert_bfs_matches_oracle(build_complex([[0, 1], [1, 2], [0, 2]]))
    assert_bfs_matches_oracle(build_complex([[0, 1], [1, 2], [2, 3], [0, 3]]))


def edge_walk_sup_control(chain, fc):
    """Per source vertex, the max of the filtration over its images and over
    the edges that consecutive images span: the sweep bound read off a
    filtration, the reference for homotopy_sup_control on lower stars."""
    values = fc.filtration
    bounds = []
    for v in range(chain.source.vertex_count):
        images = [m.vertex_image[v] for m in chain.maps]
        bound = max(values[(w,)] for w in images)
        for a, b in zip(images, images[1:]):
            if a != b:
                bound = max(bound, values[(min(a, b), max(a, b))])
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
    maps_yx = enumerate_simplicial_maps(Y, X)
    excess_x, excess_y = {}, {}
    best = None
    for phi in enumerate_simplicial_maps(X, Y):
        for psi in maps_yx:
            hx = tuple(psi[w] for w in phi)
            hy = tuple(phi[v] for v in psi)
            if hx not in reach_x or hy not in reach_y:
                continue
            shifts = [g[phi[v]] - f[v] for v in range(len(f))]
            shifts += [f[psi[w]] - g[w] for w in range(len(g))]
            excess = _control_excess(X, f, reach_x, excess_x, hx)
            excess += _control_excess(Y, g, reach_y, excess_y, hy)
            key = (_min_eps(max([0.0, *shifts]), excess, control_factor), phi, psi)
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


def coned(rng, K):
    """K with a new vertex coned onto one of its simplices: the same homotopy
    type, so round trips that reach the identity exist."""
    n = K.vertex_count
    base = rng.choice(sorted(K.simplices))
    return build_complex([*K.simplices, (*base, n)], vertex_count=n + 1)


def test_search_matches_product_oracle():
    rng = random.Random(31)
    for i in range(48):
        if i % 2:
            X = random_connected_complex(rng, min_vertices=2, max_vertices=3)
            Y = coned(rng, X)
        else:
            X, Y = random_complex(rng, max_vertices=4), random_complex(rng, max_vertices=4)
        function = (random_vertex_function, tied_vertex_function, flat_function)[i // 2 % 3]
        pair = (X, function(rng, X.vertex_count), Y, function(rng, Y.vertex_count))
        for j, budget in enumerate((1, 2, 4)):
            factor = (1.0, 2.0, 3.0)[(i + j) % 3]
            eps, cert = search_certificate(*pair, max_chain_len=budget, control_factor=factor)
            ref_eps, ref_cert = product_search(*pair, budget, factor)
            assert eps == ref_eps
            text = format_certificate(cert) if cert else None
            assert text == (format_certificate(ref_cert) if ref_cert else None)


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
