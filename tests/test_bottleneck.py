import itertools
import math
import random
import threading

import pytest

from topodist.bottleneck import (
    Matching,
    bottleneck_bruteforce,
    bottleneck_distance,
    linf_distance,
    natural_pseudo_upper,
)
from topodist.common import SizeGuardExceeded, eps_needed
from topodist.complexes import VertexFunction, build_complex, lower_star
from topodist.persistence import PersistenceDiagram, compute_diagrams

from gen import (
    grid_complex,
    non_dyadic_vertex_function,
    random_complex,
    random_complex_3d,
    random_connected_complex,
    random_diagram,
    random_vertex_function,
    tied_diagram,
    tied_vertex_function,
)


def D(*points):
    return PersistenceDiagram(0, tuple(points))


def witness_cost(d1, d2, matching):
    """Check that the matching uses every point exactly once; return its
    max pair cost."""
    used1 = [i for i, _ in matching.pairs if i is not None]
    used2 = [j for _, j in matching.pairs if j is not None]
    assert sorted(used1) == list(range(len(d1.points)))
    assert sorted(used2) == list(range(len(d2.points)))
    worst = 0.0
    for i, j in matching.pairs:
        if i is not None and j is not None:
            p, q = d1.points[i], d2.points[j]
            if math.isinf(p[1]):
                worst = max(worst, abs(p[0] - q[0]))
            else:
                worst = max(worst, abs(p[0] - q[0]), abs(p[1] - q[1]))
        elif i is not None:
            p = d1.points[i]
            worst = max(worst, (p[1] - p[0]) / 2.0)
        else:
            q = d2.points[j]
            worst = max(worst, (q[1] - q[0]) / 2.0)
    return worst


def test_identity_distance_zero():
    d = D((0.0, 1.0), (2.0, math.inf))
    dist, _ = bottleneck_distance(d, d)
    assert dist == 0.0


def test_single_point_vs_empty():
    dist, matching = bottleneck_distance(D((1.0, 3.0)), D())
    assert dist == 1.0
    assert matching.pairs == ((0, None),)


def test_direct_match_beats_diagonal():
    dist, matching = bottleneck_distance(D((0.0, 4.0)), D((1.0, 5.0)))
    assert dist == 1.0
    assert matching.pairs == ((0, 0),)


def test_extra_point_to_diagonal():
    dist, _ = bottleneck_distance(D((0.0, 2.0)), D((0.0, 2.0), (5.0, 6.0)))
    assert dist == 0.5


def test_infinite_count_mismatch_is_infinite():
    dist, matching = bottleneck_distance(D((0.0, math.inf)), D())
    assert math.isinf(dist)
    assert matching.pairs == ((0, None),)
    assert math.isinf(bottleneck_bruteforce(D((0.0, math.inf)), D()))


def test_infinite_points_match_by_birth():
    dist, _ = bottleneck_distance(
        D((0.0, math.inf), (4.0, math.inf)), D((1.0, math.inf), (4.25, math.inf))
    )
    assert dist == 1.0


def test_degree_mismatch_raises():
    with pytest.raises(ValueError, match="degree"):
        bottleneck_distance(PersistenceDiagram(0, ()), PersistenceDiagram(1, ()))
    with pytest.raises(ValueError, match="degree"):
        bottleneck_bruteforce(PersistenceDiagram(0, ()), PersistenceDiagram(1, ()))


def test_bruteforce_examples():
    assert bottleneck_bruteforce(D(), D()) == 0.0
    assert bottleneck_bruteforce(D((0.0, 2.0)), D((0.0, 2.0), (5.0, 6.0))) == 0.5


def test_bruteforce_guard():
    big = D(*[(float(i), float(i) + 1.0) for i in range(9)])
    with pytest.raises(SizeGuardExceeded):
        bottleneck_bruteforce(big, D())


def test_matching_is_a_witness():
    rng = random.Random(404)
    for _ in range(60):
        d1, d2 = random_diagram(rng), random_diagram(rng)
        dist, matching = bottleneck_distance(d1, d2)
        worst = witness_cost(d1, d2, matching)
        if not math.isinf(dist):
            assert worst == dist


def test_matching_vs_bruteforce_randomized():
    rng = random.Random(808)
    for _ in range(80):
        d1, d2 = random_diagram(rng), random_diagram(rng)
        dist, _ = bottleneck_distance(d1, d2)
        assert dist == bottleneck_bruteforce(d1, d2)


def test_matching_vs_bruteforce_on_ties():
    """Coarse-grid diagrams tie many costs and put points exactly at probe
    thresholds.  A warm-started probe keeps pairs whose non-forced points
    block the only edges of a forced point; only a path that drops such a
    pair finds the optimum then."""
    # the smallest such case: the probe at 0.25 starts from the pair
    # (0.5, 1.25)-(0.5, 1.0), and the forced (0.5, 1.5) must take its partner
    d1, d2 = D((0.5, 1.25)), D((0.5, 1.0), (0.5, 1.5))
    assert bottleneck_distance(d1, d2)[0] == bottleneck_bruteforce(d1, d2) == 0.25
    rng = random.Random(1717)
    for _ in range(2000):
        d1, d2 = tied_diagram(rng), tied_diagram(rng)
        dist, matching = bottleneck_distance(d1, d2)
        assert dist == bottleneck_bruteforce(d1, d2)
        if not math.isinf(dist):
            assert witness_cost(d1, d2, matching) == dist


def test_pseudo_metric_axioms_sampled():
    rng = random.Random(5150)
    diagrams = [random_diagram(rng, max_points=5) for _ in range(12)]
    for d in diagrams:
        assert bottleneck_distance(d, d)[0] == 0.0
    for a in diagrams[:6]:
        for b in diagrams[6:]:
            assert bottleneck_distance(a, b)[0] == bottleneck_distance(b, a)[0]
    for a, b, c in zip(diagrams[:4], diagrams[4:8], diagrams[8:]):
        ab = bottleneck_distance(a, b)[0]
        bc = bottleneck_distance(b, c)[0]
        ac = bottleneck_distance(a, c)[0]
        if not (math.isinf(ab) or math.isinf(bc)):
            assert ac <= ab + bc


def test_linf_examples():
    f = VertexFunction((0.0, 2.0, 1.0))
    assert linf_distance(f, f) == 0.0
    assert linf_distance(f, VertexFunction((1.0, 1.0, 1.0))) == 1.0
    assert linf_distance(VertexFunction((0.0, 0.0)), VertexFunction((0.0, -3.0))) == 3.0
    with pytest.raises(ValueError):
        linf_distance(f, VertexFunction((0.0,)))


def test_classical_stability_sampled():
    rng = random.Random(616)
    for _ in range(20):
        K = random_connected_complex(rng, max_vertices=12)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        df = compute_diagrams(lower_star(K, f), 2)
        dg = compute_diagrams(lower_star(K, g), 2)
        bound = linf_distance(f, g)
        for k in range(3):
            assert bottleneck_distance(df[k], dg[k])[0] <= bound


def test_np_identity_and_swap():
    K = build_complex([[0, 1], [1, 2]])
    f = VertexFunction((0.0, 2.0, 1.0))
    assert natural_pseudo_upper(K, f, K, f) == 0.0
    empty, none = build_complex([], vertex_count=0), VertexFunction(())
    assert natural_pseudo_upper(empty, none, empty, none) == 0.0
    points = build_complex([[0], [1]])
    assert (
        natural_pseudo_upper(
            points, VertexFunction((0.0, 5.0)), points, VertexFunction((5.0, 0.0))
        )
        == 0.0
    )


def test_np_no_isomorphism_is_infinite():
    point = build_complex([[0]])
    two = build_complex([[0], [1]])
    assert math.isinf(
        natural_pseudo_upper(point, VertexFunction((0.0,)), two, VertexFunction((0.0, 0.0)))
    )


def test_np_guard():
    n = 10
    K = build_complex([[i, i + 1] for i in range(n - 1)])
    f = VertexFunction(tuple(float(i) for i in range(n)))
    with pytest.raises(SizeGuardExceeded):
        natural_pseudo_upper(K, f, K, f)


def test_np_bounded_by_linf_and_bounds_bottleneck():
    rng = random.Random(321)
    for _ in range(15):
        K = random_connected_complex(rng, max_vertices=6)
        f = random_vertex_function(rng, K.vertex_count)
        g = random_vertex_function(rng, K.vertex_count)
        np_upper = natural_pseudo_upper(K, f, K, g)
        assert np_upper <= linf_distance(f, g)
        df = compute_diagrams(lower_star(K, f), 2)
        dg = compute_diagrams(lower_star(K, g), 2)
        for k in range(3):
            assert bottleneck_distance(df[k], dg[k])[0] <= np_upper


def np_oracle(X, f, Y, g):
    """Min over the vertex bijections p that map X's simplex set onto Y's of
    max_v |f(v) - g(p(v))| rounded up; inf when there is none."""
    n = X.vertex_count
    if Y.vertex_count != n or len(X.simplices) != len(Y.simplices):
        return math.inf
    best = math.inf
    for p in itertools.permutations(range(n)):
        # p is one-to-one on simplices, so mapping into Y's equally many is onto
        if all(tuple(sorted(p[v] for v in s)) in Y.simplices for s in X.simplices):
            cost = max((eps_needed(max(f[v], g[p[v]]), min(f[v], g[p[v]])) for v in range(n)), default=0.0)
            best = min(best, cost)
    return best


def relabelled(rng, K):
    perm = list(range(K.vertex_count))
    rng.shuffle(perm)
    return build_complex(
        [[perm[v] for v in s] for s in K.simplices], vertex_count=K.vertex_count, max_dim=3
    )


def test_np_equals_bijection_oracle():
    """natural_pseudo_upper equals the minimum over all vertex bijections
    that map one simplex set onto the other, on independent pairs and on
    relabelled copies, with random, tied and non-dyadic values."""
    rng = random.Random(2025)
    values = (
        random_vertex_function,
        tied_vertex_function,
        lambda rng, n: non_dyadic_vertex_function(rng, n, "thirds"),
    )
    finite = infinite = 0
    for i in range(420):
        make = random_complex_3d if i % 5 == 4 else random_complex
        X = make(rng, max_vertices=6)
        if i % 3 == 0:  # independent; few vertices, so some are isomorphic
            Y = make(rng, max_vertices=rng.choice((3, 6)))
        else:
            Y = relabelled(rng, X)
        value = values[(i // 3) % 3]
        f, g = value(rng, X.vertex_count), value(rng, Y.vertex_count)
        want = np_oracle(X, f, Y, g)
        assert natural_pseudo_upper(X, f, Y, g) == want, (sorted(X.simplices), f, sorted(Y.simplices), g)
        finite += want < math.inf
        infinite += want == math.inf
    assert finite >= 250 and infinite >= 50, (finite, infinite)


def test_matching_dataclass_holds_cost():
    dist, matching = bottleneck_distance(D((0.0, 4.0)), D((1.0, 5.0)))
    assert isinstance(matching, Matching)
    assert matching.cost == dist


def test_duplicate_points_are_multiset_matched():
    d1 = D((0.0, 2.0), (0.0, 2.0))
    d2 = D((0.0, 2.0))
    dist, matching = bottleneck_distance(d1, d2)
    assert dist == 1.0  # the spare copy pays its diagonal cost
    assert dist == bottleneck_bruteforce(d1, d2)
    assert sorted(i for i, _ in matching.pairs if i is not None) == [0, 1]


def within_seconds(seconds, fn, *args):
    """fn(*args), failing the test if it has not returned after seconds."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{fn.__name__} still running after {seconds} s"
    return result[0]


def test_zero_lower_bound_steps_off_zero():
    """Identical diagrams and duplicate points make the lower bound 0; with
    duplicates 0 is infeasible, and doubling 0 would never leave it."""
    d = D((0.0, 2.0), (0.5, 3.0), (0.5, 3.0), (1.0, math.inf))
    assert within_seconds(10, bottleneck_distance, d, d)[0] == 0.0 == bottleneck_bruteforce(d, d)
    two, one = D((0.0, 2.0), (0.0, 2.0)), D((0.0, 2.0))
    for d1, d2 in ((two, one), (one, two)):
        dist, _ = within_seconds(10, bottleneck_distance, d1, d2)
        assert dist == bottleneck_bruteforce(d1, d2) == 1.0


def test_oracle_on_real_filtration_diagrams():
    """Brute force agreement on diagrams produced by actual filtrations,
    whose points are correlated, unlike the synthetic generator's."""
    rng = random.Random(929)
    checked = 0
    while checked < 40:
        K = random_connected_complex(rng, max_vertices=8)
        df = compute_diagrams(lower_star(K, random_vertex_function(rng, K.vertex_count)), 1)
        dg = compute_diagrams(lower_star(K, random_vertex_function(rng, K.vertex_count)), 1)
        for k in range(2):
            if len(df[k]) <= 8 and len(dg[k]) <= 8:
                dist, _ = bottleneck_distance(df[k], dg[k])
                assert dist == bottleneck_bruteforce(df[k], dg[k])
                checked += 1


def _doubled_graph_perfect(d1, d2, t):
    """Whether the classical doubled graph at threshold t has a perfect
    matching: each diagram's points plus one diagonal copy per point of the
    other diagram, diagonal copies free to pair with each other."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    b1, e1 = np.array(d1.points, dtype=float).reshape(-1, 2).T
    b2, e2 = np.array(d2.points, dtype=float).reshape(-1, 2).T
    both_inf = np.isinf(e1)[:, None] & np.isinf(e2)[None, :]
    with np.errstate(invalid="ignore"):  # inf - inf, replaced below
        de = np.abs(e1[:, None] - e2[None, :])
    cost = np.maximum(np.abs(b1[:, None] - b2[None, :]), np.where(both_inf, 0.0, de))
    top = np.hstack([cost <= t, np.diag((e1 - b1) / 2.0 <= t)])
    bottom = np.hstack([np.diag((e2 - b2) / 2.0 <= t), np.ones((len(e2), len(e1)), bool)])
    match = maximum_bipartite_matching(csr_matrix(np.vstack([top, bottom])), perm_type="column")
    return bool((match >= 0).all())


# (seed, noise added to f at each vertex, whether some degree's distance must
# be strictly below linf): the dyadic spreads of seeds 1-3, a near pair of
# random() draws, and a far pair whose birth windows span most pairs
AT_SCALE_PAIRS = [
    pytest.param(s, lambda rng, s=s: rng.randint(-8 * s, 8 * s) / 64.0, False, id=str(s))
    for s in (1, 2, 3)
] + [
    pytest.param(4, lambda rng: (rng.random() - 0.5) / 4, True, id="near-non-dyadic"),
    pytest.param(5, lambda rng: rng.randint(-64, 64) / 64.0, False, id="far"),
]


@pytest.mark.parametrize("seed, noise, below_linf", AT_SCALE_PAIRS)
def test_doubled_graph_oracle_at_scale(seed, noise, below_linf):
    """Lower-star diagrams of a 40x40 grid (about 200 points): scipy finds a
    perfect doubled-graph matching at the returned value and none one ulp
    below it, and the witness is full with max pair cost equal to the value."""
    pytest.importorskip("scipy")
    rng = random.Random(seed)
    K = grid_complex(40)
    f = random_vertex_function(rng, K.vertex_count)
    g = VertexFunction(tuple(v + noise(rng) for v in f))
    df = compute_diagrams(lower_star(K, f), 1)
    dg = compute_diagrams(lower_star(K, g), 1)
    values = []
    for k in range(2):
        assert min(len(df[k]), len(dg[k])) >= 150
        dist, matching = bottleneck_distance(df[k], dg[k])
        assert _doubled_graph_perfect(df[k], dg[k], dist)
        assert not _doubled_graph_perfect(df[k], dg[k], math.nextafter(dist, -math.inf))
        assert witness_cost(df[k], dg[k], matching) == dist == matching.cost
        values.append(dist)
    linf = linf_distance(f, g)
    assert max(values) <= linf
    if below_linf:  # the value is not simply the largest vertex move
        assert min(values) < linf
