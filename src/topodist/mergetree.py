"""Merge trees of sublevel filtrations and their interleaving distance.

A merge tree is stored by its critical nodes only: leaves (component births)
and merge nodes, each strictly below its parent, with the root edge extending
to +infinity.  A point of the tree is a pair (node, height) with the height
on the edge above the node; the node is called the point's *carrier*.

An eps-interleaving is a pair of maps t1 -> t2 and t2 -> t1 that raise
heights by exactly eps, respect the tree structure, and compose to the
2*eps up-shift inside each tree.  Touli and Wang ("FPT-algorithms for
computing Gromov-Hausdorff and interleaving distances between trees", ESA
2019) show that one exists iff a single eps-good map t1 -> t2 does: a
structure-respecting map that raises heights by eps, under which two points
merge at most eps above the height where their images meet, and whose image
holds the point 2*eps above every point of t2.  Such a map is determined by
the carriers of its leaf images, so the existence check is a finite search
over leaf images, pruned pairwise as each leaf is placed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .common import (
    Bound,
    ParseError,
    SizeGuardExceeded,
    content_lines,
    eps_needed,
    fmt_value,
    parse_int,
    parse_value,
)
from .complexes import FilteredComplex
from .persistence import PersistenceDiagram, _UnionFind

EXACT_NODE_GUARD = 12


@dataclass
class MergeTree:
    """Rooted node-heighted tree; immutable by convention after construction."""

    heights: dict[int, float]
    parent: dict[int, int]
    root: int

    def __post_init__(self) -> None:
        nodes = set(self.heights)
        if not nodes:
            raise ValueError("a merge tree needs at least one node")
        if self.root not in nodes:
            raise ValueError("root is not a node")
        for n, h in self.heights.items():
            if math.isnan(h):
                raise ValueError(f"node {n} has a NaN height")
        if set(self.parent) != nodes - {self.root}:
            raise ValueError("every node except the root needs exactly one parent")
        children: dict[int, int] = {n: 0 for n in nodes}
        for child, par in self.parent.items():
            if par not in nodes:
                raise ValueError(f"parent {par} of {child} is not a node")
            if not self.heights[child] < self.heights[par]:
                raise ValueError(
                    f"child {child} must sit strictly below its parent {par}"
                )
            children[par] += 1
        for n, k in children.items():
            if k == 1:
                raise ValueError(
                    f"node {n} has exactly one child; non-critical nodes must be contracted"
                )

    def nodes(self) -> list[int]:
        return sorted(self.heights)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {n: [] for n in self.heights}
        for child, par in sorted(self.parent.items()):
            out[par].append(child)
        return out

    def leaves(self) -> list[int]:
        have_child = set(self.parent.values())
        return sorted(n for n in self.heights if n not in have_child)

    def __len__(self) -> int:
        return len(self.heights)


def build_merge_tree(fc: FilteredComplex) -> MergeTree:
    """Merge tree of the sublevel filtration of a connected complex.

    Union-find sweep over edges in filtration order.  A merge at height t
    either creates a new node (both sides strictly lower), reuses an existing
    node at t, or silently absorbs a zero-persistence branch born at t; equal
    height merge nodes collapse into one.  The resulting tree realizes the
    degree-0 persistence pairing under the elder rule.
    """
    n = len(fc.function)
    if n == 0:
        raise ValueError("cannot build a merge tree of an empty complex")
    heights: dict[int, float] = {}
    children: dict[int, list[int]] = {}
    next_id = 0

    def new_node(h: float, kids: list[int]) -> int:
        nonlocal next_id
        node = next_id
        next_id += 1
        heights[node] = h
        children[node] = kids
        return node

    comp_node = [new_node(h, []) for h in fc.function]
    uf = _UnionFind(n)

    def discard(node: int) -> None:
        del heights[node]
        del children[node]

    find = uf.find
    for t, u, v in fc.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        a, b = comp_node[ru], comp_node[rv]
        ha, hb = heights[a], heights[b]
        a_at_t, b_at_t = ha == t, hb == t
        if a_at_t and b_at_t:
            a_leaf, b_leaf = not children[a], not children[b]
            if b_leaf:
                discard(b)
                merged = a
            elif a_leaf:
                discard(a)
                merged = b
            else:
                children[a].extend(children[b])
                discard(b)
                merged = a
        elif a_at_t:
            if not children[a]:  # zero-persistence branch: vanishes
                discard(a)
                merged = b
            else:
                children[a].append(b)
                merged = a
        elif b_at_t:
            if not children[b]:
                discard(b)
                merged = a
            else:
                children[b].append(a)
                merged = b
        else:
            merged = new_node(t, [a, b])
        uf.parent[rv] = ru
        comp_node[ru] = merged

    roots = {uf.find(v) for v in range(n)}
    if len(roots) > 1:
        raise ValueError(
            f"complex is disconnected ({len(roots)} components); merge trees need one root"
        )

    # compact ids: deterministic relabeling by (height, creation id)
    order = sorted(heights, key=lambda node: (heights[node], node))
    relabel = {node: i for i, node in enumerate(order)}
    out_heights = {relabel[node]: heights[node] for node in order}
    out_parent: dict[int, int] = {}
    for node, kids in children.items():
        for kid in kids:
            out_parent[relabel[kid]] = relabel[node]
    root = relabel[comp_node[next(iter(roots))]]
    return MergeTree(out_heights, out_parent, root)


def diagram_from_tree(tree: MergeTree) -> PersistenceDiagram:
    """Elder-rule readout: at each merge the branch with the oldest leaf
    survives; every other child branch dies there.  The globally oldest
    branch never dies."""
    children = tree.children()
    min_birth: dict[int, float] = {}
    # children sit strictly below their parents, so ascending height order
    # visits every child before its parent
    for node in sorted(tree.heights, key=lambda n: (tree.heights[n], n)):
        kids = children[node]
        if not kids:
            min_birth[node] = tree.heights[node]
        else:
            min_birth[node] = min(min_birth[k] for k in kids)
    points: list[tuple[float, float]] = []
    for node, kids in children.items():
        if not kids:
            continue
        survivor = min(range(len(kids)), key=lambda i: min_birth[kids[i]])
        for i, kid in enumerate(kids):
            if i != survivor:
                points.append((min_birth[kid], tree.heights[node]))
    points.append((min_birth[tree.root], math.inf))
    return PersistenceDiagram(0, tuple(points))


# ---------------------------------------------------------------------------
# Interleaving
# ---------------------------------------------------------------------------


def _carrier(tree: MergeTree, node: int, base: float, eps: float, factor: float = 1.0) -> int:
    """Carrier of the point at height base + factor*eps on the ancestor path
    from ``node``."""
    cur = node
    while cur in tree.parent and eps_needed(tree.heights[tree.parent[cur]], base, factor) <= eps:
        cur = tree.parent[cur]
    return cur


def _alive(tree: MergeTree, base: float, eps: float) -> list[int]:
    """Carriers whose edge contains height base + eps (the branches alive
    there): nodes at or below it whose parent, if any, is above it."""
    below = {n for n, y in tree.heights.items() if eps_needed(y, base) <= eps}
    return [n for n in sorted(below) if tree.parent.get(n) not in below]


def _lca_height(tree: MergeTree, a: int, b: int) -> float:
    """Height of the lowest common ancestor node of ``a`` and ``b``."""
    above_a = {a}
    while a in tree.parent:
        a = tree.parent[a]
        above_a.add(a)
    while b not in above_a:
        b = tree.parent[b]
    return tree.heights[b]


def _good_map(src: MergeTree, dst: MergeTree, eps: float) -> dict[int, int] | None:
    """An eps-good map src -> dst as node carriers, or None when none exists.

    Leaves are placed one at a time on a branch of dst alive at their height
    + eps.  For each pair of placed leaves, with ``merge`` the height where
    they join in src and ``meet`` the height where their image paths join in
    dst (at least max(leaf heights) + eps), the map is continuous iff meet
    <= merge + eps, and the pair obeys Touli-Wang's condition iff merge <=
    meet + eps.  Once every leaf is placed, each leaf of dst must have the
    point 2*eps above it in the image.  Every height comparison goes
    through eps_needed, so each is exact.
    """
    h = src.heights
    leaves = src.leaves()
    alive = [_alive(dst, h[leaf], eps) for leaf in leaves]
    image: dict[int, int] = {}

    def pair_ok(a: int, ca: int, b: int, cb: int) -> bool:
        merge = _lca_height(src, a, b)
        lca = _lca_height(dst, ca, cb)
        # merge is above both leaves, so max(h[a], h[b]) + eps <= merge + eps
        # always holds and continuity only asks lca <= merge + eps
        return eps_needed(lca, merge) <= eps and (
            eps_needed(merge, lca) <= eps or eps_needed(merge, max(h[a], h[b]), 2.0) <= eps
        )

    def covered(t: int) -> bool:
        base = dst.heights[t]
        target = _carrier(dst, t, base, eps, 2.0)
        return any(
            eps_needed(h[leaf], base) <= eps and _carrier(dst, c, base, eps, 2.0) == target
            for leaf, c in image.items()
        )

    def place(i: int) -> bool:
        if i == len(leaves):
            return all(covered(t) for t in dst.leaves())
        leaf = leaves[i]
        for cand in alive[i]:
            if all(pair_ok(leaf, cand, b, image[b]) for b in leaves[:i]):
                image[leaf] = cand
                if place(i + 1):
                    return True
        return False

    if not place(0):
        return None
    fwd: dict[int, int] = {}
    for leaf, c in image.items():
        node = leaf
        while node not in fwd:
            fwd[node] = _carrier(dst, c, h[node], eps)
            node = src.parent.get(node, node)
    return fwd


def check_interleaving(
    t1: MergeTree, t2: MergeTree, eps: float, node_guard: int = EXACT_NODE_GUARD
) -> dict[int, int] | None:
    """Decide whether an eps-interleaving of the two trees exists.

    By Touli-Wang (ESA 2019) one exists iff an eps-good map t1 -> t2 does.
    Returns such a map, as each t1 node's carrier in t2 (never empty), or
    None.  The search backtracks over leaf images, so trees above the node
    guard raise SizeGuardExceeded.
    """
    if not eps >= 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if len(t1) > node_guard or len(t2) > node_guard:
        raise SizeGuardExceeded(f"exact interleaving limited to {node_guard} nodes per tree")
    return _good_map(t1, t2, eps)


def interleaving_candidates(t1: MergeTree, t2: MergeTree) -> list[float]:
    """Differences and half-differences of node heights across both trees,
    each the least float >= its exact value; the optimal interleaving value
    always lies in this set."""
    hs = sorted(set(t1.heights.values()) | set(t2.heights.values()))
    cands = {0.0}
    for i, a in enumerate(hs):
        for b in hs[i + 1 :]:
            cands.add(eps_needed(b, a))
            cands.add(eps_needed(b, a, 2.0))
    return sorted(cands)


def _collapse_bound(t1: MergeTree, t2: MergeTree) -> float:
    """An eps at which both trees surely interleave: everything maps to the
    other root's ray and both up-shifts land on the rays as well."""
    lo1, lo2 = min(t1.heights.values()), min(t2.heights.values())
    r1, r2 = t1.heights[t1.root], t2.heights[t2.root]
    return max(
        0.0,
        eps_needed(r2, lo1),
        eps_needed(r1, lo2),
        eps_needed(r1, lo1, 2.0),
        eps_needed(r2, lo2, 2.0),
    )


def interleaving_distance(t1: MergeTree, t2: MergeTree) -> Bound:
    """Min eps admitting an interleaving, exact via the candidate scan.

    Above the node guard the exhaustive check is not attempted: the result is
    then the bracket Bound(degree-0 bottleneck distance, collapse bound).
    """
    from .bottleneck import bottleneck_distance  # cycle-free late import

    lower, _ = bottleneck_distance(diagram_from_tree(t1), diagram_from_tree(t2))
    if len(t1) > EXACT_NODE_GUARD or len(t2) > EXACT_NODE_GUARD:
        return Bound(lower, _collapse_bound(t1, t2))
    for eps in interleaving_candidates(t1, t2):
        # candidates below the diagram bound cannot be feasible
        if eps < lower:
            continue
        if check_interleaving(t1, t2, eps):
            return Bound(eps, eps)
    raise AssertionError("collapse bound is always a feasible candidate")


# ---------------------------------------------------------------------------
# Text format: `node <id> <height>` and `edge <child-id> <parent-id>` lines.
# ---------------------------------------------------------------------------


def parse_tree(text: str, source: str = "<string>") -> MergeTree:
    heights: dict[int, float] = {}
    parent: dict[int, int] = {}
    for lineno, tokens in content_lines(text):
        if tokens[0] == "node":
            if len(tokens) != 3:
                raise ParseError(source, lineno, "expected `node <id> <height>`")
            node = parse_int(tokens[1], source, lineno)
            if node in heights:
                raise ParseError(source, lineno, f"duplicate node {node}")
            heights[node] = parse_value(tokens[2], source, lineno)
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                raise ParseError(source, lineno, "expected `edge <child> <parent>`")
            child = parse_int(tokens[1], source, lineno)
            par = parse_int(tokens[2], source, lineno)
            if child in parent:
                raise ParseError(source, lineno, f"node {child} has two parents")
            parent[child] = par
        else:
            raise ParseError(source, lineno, f"expected `node` or `edge`, got {tokens[0]!r}")
    roots = set(heights) - set(parent)
    if len(roots) != 1:
        raise ParseError(source, 1, f"tree must have exactly one root, found {len(roots)}")
    try:
        return MergeTree(heights, parent, roots.pop())
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def format_tree(tree: MergeTree) -> str:
    out = [f"node {n} {fmt_value(tree.heights[n])}" for n in tree.nodes()]
    out.extend(f"edge {c} {p}" for c, p in sorted(tree.parent.items()))
    return "\n".join(out) + "\n"


def load_tree(path: str | Path) -> MergeTree:
    p = Path(path)
    return parse_tree(p.read_text(encoding="utf-8"), source=str(p))


def save_tree(path: str | Path, tree: MergeTree) -> None:
    Path(path).write_text(format_tree(tree), encoding="utf-8")
