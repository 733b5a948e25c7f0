"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite targets well under a minute.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from topodist.bottleneck import (
    bottleneck_bruteforce,
    bottleneck_distance,
    linf_distance,
    natural_pseudo_upper,
)
from topodist.certify import (
    ShiftCertificate,
    check_certificate,
    load_certificate,
    search_certificate,
    upshift_asymmetry_probe,
    verify_stability,
)
from topodist.complexes import (
    ContiguityChain,
    SimplicialMap,
    VertexFunction,
    build_complex,
    identity_map,
    load_instance,
    lower_star,
)
from topodist.mergetree import (
    build_merge_tree,
    check_interleaving,
    diagram_from_tree,
    interleaving_candidates,
    interleaving_distance,
)
from topodist.persistence import compute_diagrams, h0_diagram_unionfind, shift_diagram

from gen import (
    random_complex,
    random_connected_complex,
    random_diagram,
    random_filtered,
    random_monotone_filtered,
    random_vertex_function,
    simplex_value,
    sweep_input,
    value_diagrams,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
PAIR_NAMES = (
    "point_vs_edge",
    "cycle3_vs_cycle6",
    "hollow_triangle_vs_strip",
    "comb_pair",
    "same_domain_path",
)


def load_pair(name):
    """The shipped pair as (X, f, Y, g)."""
    return (*load_instance(CORPUS / name / "x.txt"), *load_instance(CORPUS / name / "y.txt"))


def load_pair_certificate(name, pair):
    return load_certificate(CORPUS / name / "cert.txt", pair[0], pair[2])


def test_criterion_1_classical_stability():
    """d_B(Dgm_k f, Dgm_k g) <= L_inf(f, g) on 200 random same-domain pairs."""
    rng = random.Random(101)
    for _ in range(200):
        K = random_connected_complex(rng, max_vertices=30)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        df = compute_diagrams(lower_star(K, f), 2)
        dg = compute_diagrams(lower_star(K, g), 2)
        bound = linf_distance(f, g)
        for k in range(3):
            db, _ = bottleneck_distance(df[k], dg[k])
            assert db <= bound, (K, f, g, k)
    print("ACCEPTANCE 1 (classical stability, 200 pairs x degrees 0..2): PASS")


def test_criterion_2_main_theorem_on_curated_pairs():
    """d_B <= certified eps in every degree, for shipped and searched certs."""
    for name in PAIR_NAMES:
        pair = load_pair(name)
        kmax = max(pair[0].dim, pair[2].dim, 0)
        certs = [load_pair_certificate(name, pair)]
        searched_eps, searched = search_certificate(*pair)
        assert searched is not None, f"{name}: no certificate found"
        certs.append(searched)
        for cert in certs:
            report = verify_stability(*pair, cert, max_degree=kmax)
            assert report.ok, (name, report)
            for entry in report.entries:
                assert entry.bottleneck <= cert.eps
    print("ACCEPTANCE 2 (main theorem on curated pairs, zero violations): PASS")


def test_criterion_3a_reduction_vs_unionfind():
    rng = random.Random(303)
    for i in range(100):
        K = random_complex(rng)
        if i % 2 == 0:
            fc = random_filtered(rng, K)
            assert compute_diagrams(fc, 0)[0] == h0_diagram_unionfind(fc)
        else:  # no lower star: through the explicit-values entry
            value = simplex_value(random_monotone_filtered(rng, K))
            assert value_diagrams(K, value, 0)[0] == h0_diagram_unionfind(sweep_input(K, value))
    print("ACCEPTANCE 3a (reduction vs union-find, 100 instances): PASS")


def test_criterion_3b_bottleneck_vs_bruteforce():
    rng = random.Random(304)
    for _ in range(200):
        d1, d2 = random_diagram(rng), random_diagram(rng)
        dist, _ = bottleneck_distance(d1, d2)
        assert dist == bottleneck_bruteforce(d1, d2)
    print("ACCEPTANCE 3b (bottleneck vs brute force, 200 diagram pairs): PASS")


def test_criterion_3c_tree_readout_vs_unionfind():
    rng = random.Random(305)
    for _ in range(100):
        K = random_connected_complex(rng, max_vertices=20)
        fc = random_filtered(rng, K)
        assert diagram_from_tree(build_merge_tree(fc)) == h0_diagram_unionfind(fc)
    print("ACCEPTANCE 3c (merge tree readout vs union-find, 100 instances): PASS")


def test_criterion_4_sandwich_chain():
    """d_B <= dht_upper <= np_upper, and dht_upper <= linf on a shared domain."""
    for name in PAIR_NAMES:
        X, f, Y, g = pair = load_pair(name)
        kmax = max(X.dim, Y.dim, 0)
        cert = load_pair_certificate(name, pair)
        searched_eps, _ = search_certificate(*pair)
        dht_upper = min(cert.eps, searched_eps)
        np_upper = natural_pseudo_upper(*pair)
        dx = compute_diagrams(lower_star(X, f), kmax)
        dy = compute_diagrams(lower_star(Y, g), kmax)
        for k in range(kmax + 1):
            db, _ = bottleneck_distance(dx[k], dy[k])
            assert db <= dht_upper, (name, k)
        assert dht_upper <= np_upper, name
        if X == Y:
            assert dht_upper <= linf_distance(f, g), name
    print("ACCEPTANCE 4 (sandwich bottleneck <= dht_upper <= np_upper): PASS")


def _grid_scan_interleaving(t1, t2):
    """Unpruned oracle: scan all candidates and their midpoints from below."""
    cands = interleaving_candidates(t1, t2)
    grid = sorted(set(cands) | {(a + b) / 2.0 for a, b in zip(cands, cands[1:])})
    for eps in grid:
        if check_interleaving(t1, t2, eps):
            return eps
    raise AssertionError("no feasible grid point")


def test_criterion_5_merge_tree_inequalities():
    rng = random.Random(505)
    done = oracle_checked = 0
    while done < 100:
        K = random_connected_complex(rng, min_vertices=3, max_vertices=10)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        t1 = build_merge_tree(lower_star(K, f))
        t2 = build_merge_tree(lower_star(K, g))
        if len(t1) > 12 or len(t2) > 12:
            continue
        bound = interleaving_distance(t1, t2)
        assert bound.exact
        db, _ = bottleneck_distance(diagram_from_tree(t1), diagram_from_tree(t2))
        assert db <= bound.lower
        assert bound.upper <= linf_distance(f, g)
        if oracle_checked < 30 and len(t1) <= 9 and len(t2) <= 9:
            assert bound.upper == _grid_scan_interleaving(t1, t2)
            oracle_checked += 1
        done += 1
    assert oracle_checked >= 30
    print(
        "ACCEPTANCE 5 (merge tree inequalities, 100 pairs; "
        f"{oracle_checked} grid-oracle matches): PASS"
    )


def test_criterion_6_shift_equivariance():
    rng = random.Random(606)
    for _ in range(50):
        K = random_complex(rng)
        f = random_vertex_function(rng, K.vertex_count)
        base = compute_diagrams(lower_star(K, f), 2)
        for c in (1.0, -1.0, 0.5):
            shifted = compute_diagrams(lower_star(K, f.shifted(c)), 2)
            assert shifted == [shift_diagram(d, c) for d in base]
    print("ACCEPTANCE 6 (shift equivariance, 50 instances x 3 shifts): PASS")


def test_criterion_7_upshift_asymmetry_probe():
    observations = []
    for name in PAIR_NAMES:
        pair = load_pair(name)
        cert = load_pair_certificate(name, pair)
        for delta in (0.25, 1.0):
            report = upshift_asymmetry_probe(*pair, cert, delta)
            assert report.up.ok, (name, delta, report.up.condition)
            observations.append(
                f"{name} delta={delta:g}: down-shift "
                + ("holds" if report.down.ok else f"fails ({report.down.condition})")
            )
    print("ACCEPTANCE 7 (up-shift re-certification, 100% of corpus): PASS")
    for line in observations:
        print("  observation:", line)


def _valid_comb_certificate():
    pair = load_pair("comb_pair")
    return pair, load_pair_certificate("comb_pair", pair)


def _control_violation_setup():
    """A path whose middle vertex is a bump: collapsing the far end drags it
    across the bump, beyond its own value."""
    path = build_complex([[0, 1], [1, 2]])
    point = build_complex([[0]])
    f_path = VertexFunction((0.0, 1.0, 0.0))
    f_point = VertexFunction((0.0,))
    const0 = SimplicialMap(path, path, (0, 0, 0))
    mid = SimplicialMap(path, path, (0, 1, 1))
    sweep_chain = ContiguityChain((const0, mid, identity_map(path)))
    return path, point, f_path, f_point, sweep_chain


def test_criterion_8_negative_controls():
    cases = []

    # corruptions of the cycle pair certificate
    pair = X, _, Y, _ = load_pair("cycle3_vs_cycle6")
    cert = load_pair_certificate("cycle3_vs_cycle6", pair)
    cases.append((pair, replace(cert, phi=SimplicialMap(X, Y, (0, 3, 4))), "phi_not_simplicial"))
    cases.append((pair, replace(cert, psi=SimplicialMap(Y, X, (0, 1, 2, 1, 2, 0))), "psi_not_simplicial"))
    rot_x = SimplicialMap(X, X, (1, 2, 0))
    cases.append(
        (pair, replace(cert, chain_x=ContiguityChain((rot_x, identity_map(X)))), "chain_x_invalid")
    )
    rot_y = SimplicialMap(Y, Y, (2, 3, 4, 5, 0, 1))
    cases.append(
        (pair, replace(cert, chain_y=ContiguityChain((rot_y, identity_map(Y)))), "chain_y_invalid")
    )
    cases.append((pair, replace(cert, eps=0.0625), "shift_phi"))

    # comb pair: the round trip is not the identity, so a bare identity chain
    # has the wrong endpoints
    comb, comb_cert = _valid_comb_certificate()
    cases.append(
        (
            comb,
            replace(comb_cert, chain_x=ContiguityChain((identity_map(comb[0]),))),
            "chain_x_endpoints",
        )
    )
    cases.append(
        (
            comb,
            replace(comb_cert, chain_y=ContiguityChain((identity_map(comb[2]),))),
            "chain_y_endpoints",
        )
    )

    # edge vs point with psi landing on the expensive endpoint
    edge = build_complex([[0, 1]])
    point = build_complex([[0]])
    f_edge = VertexFunction((0.0, 1.0))
    f_point = VertexFunction((0.0,))
    const1 = SimplicialMap(edge, edge, (1, 1))
    cases.append(
        (
            (edge, f_edge, point, f_point),
            ShiftCertificate(
                SimplicialMap(edge, point, (0, 0)),
                SimplicialMap(point, edge, (1,)),
                0.0,
                ContiguityChain((const1, identity_map(edge))),
                ContiguityChain((identity_map(point),)),
            ),
            "shift_psi",
        )
    )

    # homotopies sweeping over a bump exceed the control allowance at eps 0
    path, pt, f_path, f_pt, sweep_chain = _control_violation_setup()
    cases.append(
        (
            (path, f_path, pt, f_pt),
            ShiftCertificate(
                SimplicialMap(path, pt, (0, 0, 0)),
                SimplicialMap(pt, path, (0,)),
                0.0,
                sweep_chain,
                ContiguityChain((identity_map(pt),)),
            ),
            "control_x",
        )
    )
    cases.append(
        (
            (pt, f_pt, path, f_path),
            ShiftCertificate(
                SimplicialMap(pt, path, (0,)),
                SimplicialMap(path, pt, (0, 0, 0)),
                0.0,
                ContiguityChain((identity_map(pt),)),
                sweep_chain,
            ),
            "control_y",
        )
    )

    # second understated-eps case, on the strip pair
    strip = load_pair("hollow_triangle_vs_strip")
    strip_cert = load_pair_certificate("hollow_triangle_vs_strip", strip)
    cases.append((strip, replace(strip_cert, eps=0.125), "shift_phi"))

    assert len(cases) >= 10
    for case_pair, corrupted, expected in cases:
        outcome = check_certificate(*case_pair, corrupted)
        assert not outcome.ok
        assert outcome.condition == expected, (expected, outcome)

    # structural mismatches raise instead of naming a condition
    X, f, Y, g = pair
    with pytest.raises(ValueError):
        check_certificate(Y, g, X, f, cert)
    print(f"ACCEPTANCE 8 (negative controls, {len(cases)} corrupted certificates): PASS")
