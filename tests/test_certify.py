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
    FilteredComplex,
    SimplicialMap,
    VertexFunction,
    build_complex,
    check_simplicial,
    contiguous,
    identity_map,
    lower_star,
)

from gen import (
    random_complex,
    random_connected_complex,
    random_filtered,
    random_monotone_filtered,
    random_vertex_function,
)


def point_edge_setup():
    X = build_complex([[0]])
    Y = build_complex([[0, 1]])
    fx = lower_star(X, VertexFunction((0.0,)))
    fy = lower_star(Y, VertexFunction((0.0, 1.0)))
    cert = ShiftCertificate(
        SimplicialMap(X, Y, (0,)),
        SimplicialMap(Y, X, (0, 0)),
        0.0,
        ContiguityChain((identity_map(X),)),
        ContiguityChain((SimplicialMap(Y, Y, (0, 0)), identity_map(Y))),
    )
    return fx, fy, cert


def identity_certificate(fc, eps=0.0):
    ident = identity_map(fc.complex)
    chain = ContiguityChain((ident,))
    return ShiftCertificate(ident, ident, eps, chain, chain)


def test_identity_certificate_passes():
    fc = lower_star(build_complex([[0, 1], [1, 2]]), VertexFunction((0.0, 2.0, 1.0)))
    assert check_certificate(fc, fc, identity_certificate(fc)).ok


def test_point_edge_certificate():
    fx, fy, cert = point_edge_setup()
    assert check_certificate(fx, fy, cert).ok


def test_point_vs_point_understated_eps():
    X = build_complex([[0]])
    fx = lower_star(X, VertexFunction((0.0,)))
    fy = lower_star(X, VertexFunction((1.0,)))
    cert = identity_certificate(fx, eps=0.5)
    outcome = check_certificate(fx, fy, cert)
    assert not outcome.ok and outcome.condition == "shift_phi"


def test_certificate_monotone_in_eps():
    fx, fy, cert = point_edge_setup()
    for eps in (0.25, 1.0, 7.5):
        assert check_certificate(fx, fy, replace(cert, eps=eps)).ok


def test_certificate_structural_errors():
    fx, fy, cert = point_edge_setup()
    with pytest.raises(ValueError, match="endpoints"):
        check_certificate(fy, fx, cert)
    with pytest.raises(ValueError):
        replace(cert, eps=-1.0)
    with pytest.raises(ValueError):
        replace(cert, control_factor=0.0)
    with pytest.raises(ValueError, match="self-maps"):
        ShiftCertificate(cert.phi, cert.psi, 0.0, cert.chain_y, cert.chain_y)


def test_search_identity_pair_is_zero():
    K = build_complex([[0, 1], [1, 2], [0, 2]])
    fc = lower_star(K, VertexFunction((0.0, 0.25, 0.5)))
    eps, cert = search_certificate(fc, fc)
    assert eps == 0.0 and cert is not None
    assert check_certificate(fc, fc, cert).ok


def test_search_two_points():
    X = build_complex([[0]])
    fa = lower_star(X, VertexFunction((0.25,)))
    fb = lower_star(X, VertexFunction((1.0,)))
    eps, cert = search_certificate(fa, fb)
    assert eps == 0.75
    assert check_certificate(fa, fb, cert).ok


def test_search_point_vs_edge():
    fx, fy, _ = point_edge_setup()
    eps, cert = search_certificate(fx, fy)
    assert eps == 0.0 and cert is not None


def test_search_respects_chain_budget():
    # the edge side needs a 2-map chain, so a budget of 1 finds nothing
    fx, fy, _ = point_edge_setup()
    eps, cert = search_certificate(fx, fy, max_chain_len=1)
    assert math.isinf(eps) and cert is None


def test_search_vertex_guard():
    K = build_complex([[i, i + 1] for i in range(7)])
    fc = lower_star(K, VertexFunction(tuple(float(i) for i in range(8))))
    with pytest.raises(SizeGuardExceeded):
        search_certificate(fc, fc)


def test_search_no_homotopy_equivalence():
    # circle vs point: no contiguity chain can connect their round trips
    circle = build_complex([[0, 1], [1, 2], [0, 2]])
    fx = lower_star(circle, VertexFunction((0.0, 0.0, 0.0)))
    point = build_complex([[0]])
    fy = lower_star(point, VertexFunction((0.0,)))
    eps, cert = search_certificate(fx, fy)
    assert math.isinf(eps) and cert is None


def test_search_bounded_by_linf_on_same_domain():
    rng = random.Random(2718)
    for _ in range(12):
        K = random_complex(rng, max_vertices=4)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        eps, cert = search_certificate(lower_star(K, f), lower_star(K, g))
        assert eps <= linf_distance(f, g)
        assert cert is not None


def test_search_deterministic():
    K = build_complex([[0, 1], [1, 2]])
    fa = lower_star(K, VertexFunction((0.0, 0.5, 0.25)))
    fb = lower_star(K, VertexFunction((0.25, 0.75, 0.0)))
    runs = [search_certificate(fa, fb) for _ in range(3)]
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


def product_search(fx, fy, max_chain_len, control_factor):
    """search_certificate as a plain product over all (phi, psi) pairs: the
    reference that the join on image(phi) must reproduce exactly."""
    X, Y = fx.complex, fy.complex
    f, g = fx.vertex_values(), fy.vertex_values()
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
            excess = _control_excess(fx, reach_x, excess_x, hx)
            excess += _control_excess(fy, reach_y, excess_y, hy)
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


def flat_filtered(rng, K):
    """A constant function: every round trip ties at eps 0, so the (phi, psi)
    order alone picks the witness."""
    return lower_star(K, VertexFunction((0.5,) * K.vertex_count))


def coned(rng, K):
    """K with a new vertex coned onto one of its simplices: the same homotopy
    type, so round trips that reach the identity exist."""
    n = K.vertex_count
    base = rng.choice(sorted(K.simplices))
    return build_complex([*K.simplices, (*base, n)], vertex_count=n + 1)


def test_search_matches_product_oracle():
    rng = random.Random(31)
    refused = 0
    for i in range(48):
        if i % 2:
            X = random_connected_complex(rng, min_vertices=2, max_vertices=3)
            complexes = (X, coned(rng, X))
        else:
            complexes = (random_complex(rng, max_vertices=4), random_complex(rng, max_vertices=4))
        filtered = (random_filtered, random_monotone_filtered, flat_filtered)[i // 2 % 3]
        sides = [filtered(rng, K) for K in complexes]
        if any(
            fc.filtration != lower_star(fc.complex, fc.vertex_values()).filtration
            for fc in sides
        ):
            # only random_monotone_filtered makes these; some of its draws are lower stars
            assert filtered is random_monotone_filtered
            with pytest.raises(ValueError, match="lower-star"):
                search_certificate(*sides)
            refused += 1
            continue
        for j, budget in enumerate((1, 2, 4)):
            factor = (1.0, 2.0, 3.0)[(i + j) % 3]
            eps, cert = search_certificate(*sides, max_chain_len=budget, control_factor=factor)
            ref_eps, ref_cert = product_search(*sides, budget, factor)
            assert eps == ref_eps
            text = format_certificate(cert) if cert else None
            assert text == (format_certificate(ref_cert) if ref_cert else None)
    assert refused > 0


def test_certificates_refuse_filtrations_that_are_not_lower_stars():
    # Both vertices of the edge sit at 0 on each side, but fy raises the edge
    # itself to 10.  Every vertex condition holds at eps 0, yet d_B(H0) = 5:
    # accepting the pair would report a false stability falsification.
    edge = build_complex([[0, 1]])
    fx = lower_star(edge, VertexFunction((0.0, 0.0)))
    fy = FilteredComplex(edge, {(0,): 0.0, (1,): 0.0, (0, 1): 10.0})
    cert = identity_certificate(fx)
    with pytest.raises(ValueError, match="lower-star filtrations: fy gives simplex"):
        search_certificate(fx, fy)
    with pytest.raises(ValueError, match="lower-star filtrations: fy gives simplex"):
        check_certificate(fx, fy, cert)
    with pytest.raises(ValueError, match="lower-star filtrations: fx gives simplex"):
        check_certificate(fy, fx, cert)
    with pytest.raises(ValueError, match="lower-star"):
        verify_stability(fx, fy, cert, max_degree=1)
    with pytest.raises(ValueError, match="lower-star"):
        upshift_asymmetry_probe(fx, fy, cert, 0.25)


def test_search_ties_pick_the_smallest_pair():
    # Every round trip ties at eps 0, so the smallest (phi, psi) must win.
    # The path's constant self-maps are reached in BFS order, (1, 1, 1)
    # before (0, 0, 0), so the winning partner is not the first one the join
    # meets.  The join runs from X on path/path and from Y on triangle/path.
    path = flat_filtered(None, build_complex([[0, 1], [1, 2]]))
    triangle = flat_filtered(None, build_complex([[0, 1, 2]]))
    for fx in (path, triangle):
        eps, cert = search_certificate(fx, path)
        assert eps == 0.0
        assert (cert.phi.vertex_image, cert.psi.vertex_image) == ((0, 0, 0), (0, 0, 0))
        assert format_certificate(cert) == format_certificate(
            product_search(fx, path, DEFAULT_MAX_CHAIN_LEN, DEFAULT_CONTROL_FACTOR)[1]
        )


def test_search_raises_on_a_witness_the_checker_rejects(monkeypatch):
    monkeypatch.setattr(
        topodist.certify,
        "check_certificate",
        lambda fx, fy, cert: CertificateCheck(False, "control_x", "rejected"),
    )
    fx, fy, _ = point_edge_setup()
    with pytest.raises(AssertionError, match="control_x"):
        search_certificate(fx, fy)


def test_verify_stability_point_edge():
    fx, fy, cert = point_edge_setup()
    report = verify_stability(fx, fy, cert, max_degree=1)
    assert report.ok
    assert [e.bottleneck for e in report.entries] == [0.0, 0.0]
    assert [e.slack for e in report.entries] == [0.0, 0.0]


def test_verify_stability_refuses_bad_cert():
    X = build_complex([[0]])
    fx = lower_star(X, VertexFunction((0.0,)))
    fy = lower_star(X, VertexFunction((1.0,)))
    with pytest.raises(ValueError, match="refusing"):
        verify_stability(fx, fy, identity_certificate(fx, eps=0.5))


def test_verify_stability_same_domain_linf_certificate():
    rng = random.Random(1618)
    for _ in range(10):
        K = random_complex(rng, max_vertices=8)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        fx, fy = lower_star(K, f), lower_star(K, g)
        cert = identity_certificate(fx, eps=linf_distance(f, g))
        assert check_certificate(fx, fy, cert).ok
        assert verify_stability(fx, fy, cert).ok


def test_probe_zero_delta_both_pass():
    fx, fy, cert = point_edge_setup()
    report = upshift_asymmetry_probe(fx, fy, cert, 0.0)
    assert report.up.ok and report.down.ok


def test_probe_upshift_always_passes_downshift_here_fails():
    X = build_complex([[0]])
    fx = lower_star(X, VertexFunction((0.0,)))
    cert = identity_certificate(fx, eps=0.0)
    report = upshift_asymmetry_probe(fx, fx, cert, 1.0)
    assert report.up.ok
    assert report.up_eps == 1.0
    assert not report.down.ok and report.down.condition == "shift_psi"


def test_probe_requires_valid_cert_and_nonneg_delta():
    fx, fy, cert = point_edge_setup()
    with pytest.raises(ValueError):
        upshift_asymmetry_probe(fx, fy, cert, -0.5)
    X = build_complex([[0]])
    fa = lower_star(X, VertexFunction((0.0,)))
    fb = lower_star(X, VertexFunction((5.0,)))
    with pytest.raises(ValueError, match="valid certificate"):
        upshift_asymmetry_probe(fa, fb, identity_certificate(fa, eps=0.0), 1.0)


def test_certificate_file_roundtrip():
    fx, fy, cert = point_edge_setup()
    text = format_certificate(cert)
    again = parse_certificate(text, fx.complex, fy.complex)
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
