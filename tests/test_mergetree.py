import math
import random

import pytest

from topodist.bottleneck import bottleneck_distance, linf_distance
from topodist.common import Bound, ParseError, SizeGuardExceeded
from topodist.complexes import VertexFunction, build_complex, lower_star
from topodist.mergetree import (
    MergeTree,
    _alive,
    _carrier,
    build_merge_tree,
    check_interleaving,
    diagram_from_tree,
    format_tree,
    interleaving_candidates,
    interleaving_distance,
    parse_tree,
)
from topodist.persistence import h0_diagram_unionfind

from gen import (
    caterpillar_tree,
    random_connected_complex,
    random_merge_tree,
    random_vertex_function,
)


def path_tree():
    K = build_complex([[0, 1], [1, 2]])
    return build_merge_tree(lower_star(K, VertexFunction((0.0, 2.0, 1.0))))


def branch_tree(height=0.0):
    return MergeTree({0: height}, {}, 0)


def grid_scan_interleaving(t1, t2):
    """Independent oracle: scan candidates plus midpoints, smallest feasible."""
    cands = interleaving_candidates(t1, t2)
    grid = sorted(set(cands) | {(a + b) / 2.0 for a, b in zip(cands, cands[1:])})
    for eps in grid:
        if check_interleaving(t1, t2, eps):
            return eps
    raise AssertionError("no feasible grid point")


def test_build_path_example():
    t = path_tree()
    assert sorted(t.heights.values()) == [0.0, 1.0, 2.0]
    root = t.root
    assert t.heights[root] == 2.0
    assert sorted(t.heights[c] for c in t.children()[root]) == [0.0, 1.0]


def test_build_single_vertex():
    t = build_merge_tree(lower_star(build_complex([[0]]), VertexFunction((3.0,))))
    assert t.heights == {0: 3.0} and t.parent == {}


def test_build_collapses_equal_height_merge():
    t = build_merge_tree(lower_star(build_complex([[0, 1]]), VertexFunction((0.0, 0.0))))
    assert len(t) == 1 and t.heights[t.root] == 0.0


def test_build_rejects_disconnected():
    K = build_complex([[0], [1]])
    with pytest.raises(ValueError, match="disconnected"):
        build_merge_tree(lower_star(K, VertexFunction((0.0, 0.0))))


def test_diagram_from_tree_examples():
    assert diagram_from_tree(path_tree()).points == ((0.0, math.inf), (1.0, 2.0))
    assert diagram_from_tree(branch_tree(3.0)).points == ((3.0, math.inf),)
    balanced = MergeTree({0: 0.0, 1: 0.0, 2: 5.0}, {0: 2, 1: 2}, 2)
    assert diagram_from_tree(balanced).points == ((0.0, 5.0), (0.0, math.inf))


def test_tree_matches_unionfind_randomized():
    rng = random.Random(90)
    for _ in range(40):
        K = random_connected_complex(rng, max_vertices=14)
        fc = lower_star(K, random_vertex_function(rng, K.vertex_count))
        assert diagram_from_tree(build_merge_tree(fc)) == h0_diagram_unionfind(fc)


def test_check_interleaving_identity():
    t = path_tree()
    assert check_interleaving(t, t, 0.0)


def test_check_interleaving_threshold():
    t1, t2 = path_tree(), branch_tree(0.0)
    assert check_interleaving(t1, t2, 0.5)
    assert not check_interleaving(t1, t2, 0.49)


def test_check_interleaving_rejects_negative_eps():
    with pytest.raises(ValueError):
        check_interleaving(path_tree(), path_tree(), -0.1)


def test_interleaving_witness_shape():
    assert check_interleaving(path_tree(), branch_tree(), 0.5) == {0: 0, 1: 0, 2: 0}
    assert check_interleaving(branch_tree(), path_tree(), 0.5) == {0: 0}
    assert check_interleaving(path_tree(), branch_tree(), 0.49) is None


def consistent_maps(src, dst, eps):
    """Every structure-respecting carrier assignment src -> dst at shift eps.

    Leaf images are free among the branches of dst alive at (leaf height +
    eps); the image of every internal node is forced by walking up from any
    child, and the walks from different children must agree.
    """
    leaves = src.leaves()
    alive = {leaf: _alive(dst, src.heights[leaf], eps) for leaf in leaves}
    results = []
    forced = {}

    def place(i):
        if i == len(leaves):
            results.append(dict(forced))
            return
        leaf = leaves[i]
        for cand in alive[leaf]:
            added = [leaf]
            forced[leaf] = cand
            node, image = leaf, cand
            ok = True
            while node in src.parent:
                par = src.parent[node]
                image = _carrier(dst, image, src.heights[par], eps)
                if par in forced:
                    ok = forced[par] == image
                    break
                forced[par] = image
                added.append(par)
                node = par
            if ok:
                place(i + 1)
            for n in added:
                del forced[n]

    place(0)
    return results


def compositions_ok(src, fwd, back, eps):
    """back(fwd(.)) must act as the 2*eps up-shift on every node of src."""
    for n in src.nodes():
        up = (src.heights[n], eps, 2.0)  # the height 2*eps above n
        if _carrier(src, back[fwd[n]], *up) != _carrier(src, n, *up):
            return False
    return True


def is_interleaving(t1, t2, fwd, back, eps):
    return compositions_ok(t1, fwd, back, eps) and compositions_ok(t2, back, fwd, eps)


def product_interleaving(t1, t2, eps, fwds, backs):
    """check_interleaving by the definition: every consistent map in each
    direction (``fwds`` and ``backs``, from consistent_maps), every (fwd,
    back) pair tested for the 2*eps composition rule.  The reference that
    the single eps-good map search must agree with."""
    for fwd in fwds:
        for back in backs:
            if is_interleaving(t1, t2, fwd, back, eps):
                return fwd, back
    return None


def test_good_map_matches_product_oracle():
    rng = random.Random(2019)
    triples = feasible = 0
    for i in range(150):
        grid = 0.25 if i % 2 else 1 / 64
        pair = random_merge_tree(rng, 4, grid), random_merge_tree(rng, 4, grid)
        for t1, t2 in (pair, pair[::-1]):
            for eps in interleaving_candidates(t1, t2):
                fwd = check_interleaving(t1, t2, eps)
                fwds, backs = consistent_maps(t1, t2, eps), consistent_maps(t2, t1, eps)
                ref = product_interleaving(t1, t2, eps, fwds, backs)
                assert (fwd is None) == (ref is None), (t1, t2, eps)
                triples += 1
                if fwd is None:
                    continue
                feasible += 1
                assert fwd in fwds
                found = any(is_interleaving(t1, t2, fwd, back, eps) for back in backs)
                assert found, (t1, t2, eps)
    assert 0 < feasible < triples


def test_interleaving_distance_examples():
    t = path_tree()
    assert interleaving_distance(t, t) == Bound(0.0, 0.0)
    assert interleaving_distance(t, branch_tree()) == Bound(0.5, 0.5)
    assert interleaving_distance(branch_tree(), t) == Bound(0.5, 0.5)  # symmetry


def test_interleaving_with_a_root_at_infinity():
    t = MergeTree({0: -1.0, 1: 0.0, 2: math.inf}, {0: 2, 1: 2}, 2)
    assert interleaving_distance(t, t) == Bound(0.0, 0.0)
    assert check_interleaving(t, t, 1.0) is not None


def test_interleaving_monotone_in_eps():
    rng = random.Random(14)
    for _ in range(8):
        K = random_connected_complex(rng, max_vertices=8)
        t1 = build_merge_tree(lower_star(K, random_vertex_function(rng, K.vertex_count)))
        t2 = build_merge_tree(lower_star(K, random_vertex_function(rng, K.vertex_count)))
        grid = interleaving_candidates(t1, t2)[:12]
        reached = False
        for eps in grid:
            ok = check_interleaving(t1, t2, eps)
            if reached:
                assert ok, f"monotonicity violated at eps={eps}"
            reached = reached or ok


def test_interleaving_between_db_and_linf():
    rng = random.Random(37)
    done = 0
    while done < 15:
        K = random_connected_complex(rng, max_vertices=9)
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
        done += 1


def test_interleaving_matches_grid_oracle():
    rng = random.Random(555)
    done = 0
    while done < 10:
        K = random_connected_complex(rng, max_vertices=8)
        t1 = build_merge_tree(lower_star(K, random_vertex_function(rng, K.vertex_count)))
        t2 = build_merge_tree(lower_star(K, random_vertex_function(rng, K.vertex_count)))
        if len(t1) > 9 or len(t2) > 9:
            continue
        bound = interleaving_distance(t1, t2)
        assert bound.exact and bound.upper == grid_scan_interleaving(t1, t2)
        done += 1


def test_bracket_above_node_guard():
    big = caterpillar_tree(13)  # 27 nodes, beyond the exactness guard
    bound = interleaving_distance(big, branch_tree())
    assert not bound.exact
    assert 0.0 <= bound.lower < bound.upper
    assert check_interleaving(big, branch_tree(), bound.upper, node_guard=len(big))
    with pytest.raises(SizeGuardExceeded):
        check_interleaving(big, branch_tree(), bound.upper)


def test_tree_validation():
    with pytest.raises(ValueError, match="strictly below"):
        MergeTree({0: 1.0, 1: 1.0}, {0: 1}, 1)
    with pytest.raises(ValueError, match="one child"):
        MergeTree({0: 0.0, 1: 1.0, 2: 2.0}, {0: 1, 1: 2}, 2)
    with pytest.raises(ValueError, match="parent"):
        MergeTree({0: 0.0, 1: 1.0}, {}, 1)
    with pytest.raises(ValueError, match="node 0 has a NaN height"):
        MergeTree({0: math.nan}, {}, 0)


def test_tree_format_roundtrip():
    rng = random.Random(62)
    for _ in range(15):
        K = random_connected_complex(rng, max_vertices=10)
        t = build_merge_tree(lower_star(K, random_vertex_function(rng, K.vertex_count)))
        assert parse_tree(format_tree(t)) == t


def test_parse_tree_errors():
    with pytest.raises(ParseError):
        parse_tree("node 0 0\nnode 1 1\n")  # two roots
    with pytest.raises(ParseError):
        parse_tree("node 0 0\nedge 0 0\n")
    with pytest.raises(ParseError, match="one child"):
        parse_tree("node 0 0\nnode 1 1\nedge 0 1\n")
    with pytest.raises(ParseError):
        parse_tree("node 0\n")
    with pytest.raises(ParseError, match="NaN height"):
        parse_tree("node 0 nan\n")


TREE_ERRORS = [
    # each text is a valid tree file apart from its one fault
    pytest.param("node 0\n", 1, "expected `node <id> <height>`", id="node-short"),
    pytest.param("node 0 0 1\n", 1, "expected `node <id> <height>`", id="node-long"),
    pytest.param("node 0 0\nnode 1 1\nedge 0\n", 3, "expected `edge <child> <parent>`",
                 id="edge-short"),
    pytest.param("node 0 0\nnode 1 1\nedge 0 1 2\n", 3, "expected `edge <child> <parent>`",
                 id="edge-long"),
    pytest.param("node 0 0\nnode 0 1\n", 2, "duplicate node 0", id="duplicate-node"),
    pytest.param("node 0 0\nnode 1 0\nnode 2 1\nedge 0 2\nedge 1 2\nedge 0 2\n", 6,
                 "node 0 has two parents", id="second-parent"),
    pytest.param("node 0 0\nleaf 1 0\n", 2, "expected `node` or `edge`, got 'leaf'",
                 id="unknown-keyword"),
    pytest.param("node zero 0\n", 1, "expected an integer, got 'zero'", id="bad-node-id"),
    pytest.param("node 0 0\nnode 1 0\nnode 2 1\nedge 0 2\nedge 1 two\n", 5,
                 "expected an integer, got 'two'", id="bad-parent"),
    pytest.param("node 0 0\nnode 1 0\nnode 2 1\nedge x 2\n", 4,
                 "expected an integer, got 'x'", id="bad-child"),
    pytest.param("node 0 high\n", 1, "expected a number, got 'high'", id="bad-height"),
    # whole-tree faults are reported at line 1
    pytest.param("# nothing\n", 1, "tree must have exactly one root, found 0", id="empty"),
    pytest.param("node 0 0\nnode 1 1\nedge 0 1\nedge 1 0\n", 1,
                 "tree must have exactly one root, found 0", id="cycle"),
    pytest.param("node 0 0\nnode 1 1\n", 1, "tree must have exactly one root, found 2",
                 id="two-roots"),
    # MergeTree's own checks, passed through
    pytest.param("node 0 nan\n", 1, "node 0 has a NaN height", id="nan-height"),
    pytest.param("node 0 0\nnode 1 1\nedge 0 1\n", 1,
                 "node 1 has exactly one child; non-critical nodes must be contracted",
                 id="one-child"),
    pytest.param("node 0 0\nnode 1 0\nnode 2 1\nedge 0 2\nedge 1 7\n", 1,
                 "parent 7 of 1 is not a node", id="parent-not-a-node"),
    pytest.param("node 0 3\nnode 1 0\nnode 2 2\nedge 0 2\nedge 1 2\n", 1,
                 "child 0 must sit strictly below its parent 2", id="child-above-parent"),
    pytest.param("node 0 0\nnode 1 0\nnode 2 1\nedge 0 2\nedge 1 2\nedge 5 2\n", 1,
                 "every node except the root needs exactly one parent", id="edge-from-no-node"),
]


@pytest.mark.parametrize("text, line, message", TREE_ERRORS)
def test_parse_tree_error_messages_and_lines(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_tree(text, source="t.tree")
    assert (err.value.source, err.value.line, err.value.message) == ("t.tree", line, message)
