"""Bottleneck distance between diagrams, L-infinity distance, and an
enumerative upper bound for the natural pseudo-distance.

The bottleneck optimum is found by binary search over the finite set of
candidate costs (all pairwise costs and all diagonal costs); the optimum is
always one of these, so the result is exact with no tolerance.

Feasibility at a threshold t is one-sided.  A point is *forced* at t when
its diagonal cost exceeds t; any other point may go to the diagonal.  So t is
feasible iff the pairs of cost <= t hold one matching that covers every
forced point of both diagrams.  The search covers the forced points of the
first diagram, then those of the second, on the same matching
(Mendelsohn-Dulmage).  Its alternating paths end at a free point, or at a
matched non-forced point whose pair is dropped; either way every covered
point stays covered, so a covering matching is found whenever one exists.
Each probe starts from the last feasible matching minus its pairs that cost
more than t.  The dropped-pair ending is what makes that warm start
complete: a kept pair may hold a non-forced point on the only edge a forced
point can use.

Points with infinite death form a separate layer: they may only match each
other (at |birth1 - birth2|), and mismatched counts make the distance
infinite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice, permutations
from typing import Sequence

from .common import SizeGuardExceeded
from .complexes import SimplicialComplex, VertexFunction, _require_fits
from .persistence import PersistenceDiagram

BRUTEFORCE_GUARD = 8
NP_VERTEX_GUARD = 9


@dataclass(frozen=True)
class Matching:
    """A witness matching: (i, j) index pairs into the two diagrams' points,
    None standing for the diagonal.  cost is the max pair cost."""

    pairs: tuple[tuple[int | None, int | None], ...]
    cost: float


def _pair_cost(p: tuple[float, float], q: tuple[float, float]) -> float:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _diagonal_cost(p: tuple[float, float]) -> float:
    return (p[1] - p[0]) / 2.0


def _finite_layer(
    pts1: list[tuple[float, float]], pts2: list[tuple[float, float]]
) -> tuple[float, list[tuple[int | None, int | None]]]:
    """Optimal bottleneck matching of finite points, diagonal allowed.

    Vertices 0..n1-1 are the points of pts1 and n1.. those of pts2; mate[v]
    is v's partner or -1 (the diagonal).  Each vertex's neighbours are sorted
    once by pair cost, so its edges at a threshold are a prefix of that list;
    cheapest first also keeps the alternating paths short.
    """
    n1 = len(pts1)
    cost = [[max(b - y, y - b, d - z, z - d) for y, z in pts2] for b, d in pts1]
    diag = [(d - b) / 2.0 for b, d in pts1 + pts2]
    candidates = sorted({0.0, *diag, *chain.from_iterable(cost)})
    # rows[v][k]: cost from v to vertex base[v] + k of the other diagram
    rows = cost + ([list(col) for col in zip(*cost)] if cost else [[] for _ in pts2])
    base = [n1] * n1 + [0] * len(pts2)
    order = [sorted(range(len(row)), key=row.__getitem__) for row in rows]

    def probe(t: float, warm: list[int]) -> list[int] | None:
        """A matching at t covering every forced point, or None."""
        forced = [c > t for c in diag]
        degree = [bisect_right(o, t, key=row.__getitem__) for o, row in zip(order, rows)]
        mate = [-1] * len(diag)
        for i in range(n1):
            j = warm[i]
            if j != -1 and cost[i][j - n1] <= t:
                mate[i], mate[j] = j, i
        # ids run over pts1 first: cover its forced points, then those of pts2
        for root, must in enumerate(forced):
            if must and mate[root] == -1 and not augment(root, forced, degree, mate):
                return None
        return mate

    def augment(root: int, forced: list[bool], degree: list[int], mate: list[int]) -> bool:
        """Cover root by an alternating path (iterative DFS: paths can be as
        long as the vertex count).  The path ends at a free vertex or at a
        non-forced one whose edge is dropped, so every covered forced vertex
        stays covered."""
        seen = bytearray(len(mate))
        prev: dict[int, int] = {}
        stack = [(root, map(base[root].__add__, islice(order[root], degree[root])))]
        while stack:
            u, edges = stack[-1]
            for v in edges:
                if seen[v]:
                    continue
                seen[v] = 1
                prev[v] = u
                w = mate[v]
                if w != -1 and forced[w]:
                    stack.append((w, map(base[w].__add__, islice(order[w], degree[w]))))
                    break
                if w != -1:
                    mate[w] = -1
                while v != -1:  # flip the alternating path back to the root
                    u = prev[v]
                    mate[u], mate[v], v = v, u, mate[u]
                return True
            else:
                stack.pop()
        return False

    mate = [-1] * len(diag)  # the last feasible matching: each probe's warm start
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        found = probe(candidates[mid], mate)
        if found is None:
            lo = mid + 1
        else:
            hi, mate = mid, found
    best = candidates[lo]
    mate = probe(best, mate)
    pairs: list[tuple[int | None, int | None]] = [
        (i, mate[i] - n1 if mate[i] != -1 else None) for i in range(n1)
    ]
    pairs.extend((None, j - n1) for j in range(n1, len(mate)) if mate[j] == -1)
    return best, pairs


def bottleneck_distance(
    d1: PersistenceDiagram, d2: PersistenceDiagram
) -> tuple[float, Matching]:
    """Exact bottleneck distance and one optimal matching.

    Infinite iff the two diagrams carry different numbers of infinite-death
    points; in that case the leftover infinite points are reported against
    the diagonal at infinite cost.
    """
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} != {d2.degree}")
    fin1 = [i for i, p in enumerate(d1.points) if not math.isinf(p[1])]
    fin2 = [j for j, q in enumerate(d2.points) if not math.isinf(q[1])]
    inf1 = [i for i, p in enumerate(d1.points) if math.isinf(p[1])]
    inf2 = [j for j, q in enumerate(d2.points) if math.isinf(q[1])]

    inf1.sort(key=lambda i: d1.points[i][0])
    inf2.sort(key=lambda j: d2.points[j][0])
    fin_cost, fin_pairs = _finite_layer(
        [d1.points[i] for i in fin1], [d2.points[j] for j in fin2]
    )
    fin_matched = [
        (fin1[a] if a is not None else None, fin2[b] if b is not None else None)
        for a, b in fin_pairs
    ]
    pairs: list[tuple[int | None, int | None]] = list(zip(inf1, inf2))
    if len(inf1) != len(inf2):
        # no finite-cost matching exists; still report a full witness, with
        # the leftover infinite points forced to the diagonal at infinite cost
        pairs.extend((i, None) for i in inf1[len(inf2) :])
        pairs.extend((None, j) for j in inf2[len(inf1) :])
        return math.inf, Matching(tuple(pairs + fin_matched), math.inf)

    inf_cost = 0.0
    for i, j in pairs:
        inf_cost = max(inf_cost, abs(d1.points[i][0] - d2.points[j][0]))
    cost = max(inf_cost, fin_cost)
    return cost, Matching(tuple(pairs + fin_matched), cost)


def bottleneck_bruteforce(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exhaustive-enumeration oracle; exact on diagrams of at most 8 points."""
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} != {d2.degree}")
    if len(d1.points) > BRUTEFORCE_GUARD or len(d2.points) > BRUTEFORCE_GUARD:
        raise SizeGuardExceeded(
            f"brute force limited to {BRUTEFORCE_GUARD} points per diagram"
        )
    fin1 = [p for p in d1.points if not math.isinf(p[1])]
    fin2 = [q for q in d2.points if not math.isinf(q[1])]
    inf1 = sorted(p[0] for p in d1.points if math.isinf(p[1]))
    inf2 = sorted(q[0] for q in d2.points if math.isinf(q[1]))
    if len(inf1) != len(inf2):
        return math.inf

    inf_best = math.inf if inf1 else 0.0
    for perm in permutations(range(len(inf2))):
        worst = max((abs(b1 - inf2[k]) for b1, k in zip(inf1, perm)), default=0.0)
        inf_best = min(inf_best, worst)

    best = math.inf

    def assign(i: int, used: set[int], worst: float) -> None:
        nonlocal best
        if worst >= best:
            return
        if i == len(fin1):
            leftover = worst
            for j in range(len(fin2)):
                if j not in used:
                    leftover = max(leftover, _diagonal_cost(fin2[j]))
            best = min(best, leftover)
            return
        assign(i + 1, used, max(worst, _diagonal_cost(fin1[i])))
        for j in range(len(fin2)):
            if j not in used:
                used.add(j)
                assign(i + 1, used, max(worst, _pair_cost(fin1[i], fin2[j])))
                used.remove(j)

    assign(0, set(), 0.0)
    return max(best, inf_best)


def linf_distance(f: VertexFunction | Sequence[float], g: VertexFunction | Sequence[float]) -> float:
    """Max over vertices of |f - g| for functions on the same vertex set."""
    if len(f) != len(g):
        raise ValueError(f"length mismatch: {len(f)} != {len(g)}")
    return max((abs(a - b) for a, b in zip(f, g)), default=0.0)


def _simplex_counts(complex: SimplicialComplex) -> dict[int, int]:
    counts: dict[int, int] = {}
    for s in complex.simplices:
        counts[len(s)] = counts.get(len(s), 0) + 1
    return counts


def _vertex_profile(complex: SimplicialComplex) -> list[tuple[int, ...]]:
    """Per vertex, the sorted sizes of the facets containing it (an isomorphism
    invariant used to prune the search)."""
    profile: list[list[int]] = [[] for _ in range(complex.vertex_count)]
    for facet in complex.facets:
        for v in facet:
            profile[v].append(len(facet))
    return [tuple(sorted(p)) for p in profile]


def natural_pseudo_upper(
    k1: SimplicialComplex, f: VertexFunction, k2: SimplicialComplex, g: VertexFunction
) -> float:
    """Min over simplicial isomorphisms h of max_v |f(v) - g(h(v))|.

    This is an UPPER BOUND on the natural pseudo-distance: the infimum there
    ranges over all homeomorphisms, which a finite enumeration cannot exhaust.
    Returns inf when the complexes are not isomorphic.
    """
    _require_fits(k1, f)
    _require_fits(k2, g)
    if k1.vertex_count > NP_VERTEX_GUARD or k2.vertex_count > NP_VERTEX_GUARD:
        raise SizeGuardExceeded(f"isomorphism enumeration limited to {NP_VERTEX_GUARD} vertices")
    n = k1.vertex_count
    if k2.vertex_count != n or _simplex_counts(k1) != _simplex_counts(k2):
        return math.inf
    if n == 0:
        return 0.0

    prof1, prof2 = _vertex_profile(k1), _vertex_profile(k2)
    by_max: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for s in k1.facets:
        by_max[s[-1]].append(s)

    best = math.inf
    image = [-1] * n
    used = [False] * n

    def extend(v: int, worst: float) -> None:
        nonlocal best
        if worst >= best:
            return
        if v == n:
            best = worst
            return
        for w in range(n):
            if used[w] or prof1[v] != prof2[w]:
                continue
            image[v] = w
            ok = True
            for s in by_max[v]:
                if tuple(sorted(image[u] for u in s)) not in k2.simplices:
                    ok = False
                    break
            if ok:
                used[w] = True
                extend(v + 1, max(worst, abs(f[v] - g[w])))
                used[w] = False
        image[v] = -1

    extend(0, 0.0)
    return best
