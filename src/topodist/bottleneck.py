"""Bottleneck distance between diagrams, L-infinity distance, and an
enumerative upper bound for the natural pseudo-distance.

The bottleneck optimum is a pair cost or a diagonal cost, so it is found
exactly, with no tolerance, by search over those costs; no all-pairs matrix is
formed.  Every matching pays at least L, the largest over points of the
cheaper of its diagonal cost and its cheapest partner.  The search probes L,
then gallops up (doubling, capped by the largest diagonal cost) until a probe
at some T is feasible, and binary-searches the candidates up to T: the
diagonal and pair costs in (last infeasible probe, T].  A point's neighbours
at T come from its birth window on the other side, the points with
|birth1 - birth2| <= T in float arithmetic, filtered by death.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice, permutations
from typing import Sequence

from .common import SizeGuardExceeded, eps_needed
from .complexes import SimplicialComplex, VertexFunction, _each_simplicial_map, _require_fits
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
    is v's partner or -1 (the diagonal).  The neighbours of a vertex at the
    gallop's threshold are sorted by pair cost, so its edges at any lower t
    are a prefix of that list; cheapest first also keeps the alternating
    paths short.
    """
    n1 = len(pts1)
    pts = pts1 + pts2
    diag = [(d - b) / 2.0 for b, d in pts]
    if not diag:
        return 0.0, []
    # each side's vertex ids, births and points, sorted by birth
    sides = []
    for lo, hi in ((0, n1), (n1, len(pts))):
        ids = sorted(range(lo, hi), key=lambda v: pts[v][0])
        sides.append((ids, [pts[v][0] for v in ids], [pts[v] for v in ids]))
    other = [sides[1]] * n1 + [sides[0]] * len(pts2)

    # Every matching pays at least each point's cheaper way out: its diagonal
    # or its cheapest partner.  A pair costs at least |b - y|, so the scan
    # outward from b along the other side's births stops once that reaches
    # the best cost so far.
    lower = 0.0
    for v, (b, d) in enumerate(pts):
        _, births, side = other[v]
        best = diag[v]
        k = bisect_left(births, b)
        for y, z in islice(side, k, None):
            if y - b >= best:
                break
            best = min(best, max(b - y, y - b, d - z, z - d))
        for y, z in islice(reversed(side), len(side) - k, None):
            if b - y >= best:
                break
            best = min(best, max(b - y, y - b, d - z, z - d))
        lower = max(lower, best)

    def neighbours(t: float) -> tuple[list[list[int]], list[list[float]]]:
        """Per vertex, the other side's vertices within t, sorted by cost,
        and those costs.  The birth window holds exactly the points with
        fl|b - y| <= t (y - b is monotone in y and fl(b - y) == -fl(y - b),
        while b - t would round); within it, the death test decides."""
        nbrs, costs = [], []
        for v, (b, d) in enumerate(pts):
            ids, births, side = other[v]
            k0 = bisect_left(births, -t, key=lambda y: y - b)
            k1 = bisect_right(births, t, key=lambda y: y - b)
            within = [k for k, (y, z) in enumerate(side[k0:k1], k0) if -t <= z - d <= t]
            row = [max(b - y, y - b, d - z, z - d) for y, z in map(side.__getitem__, within)]
            by_cost = sorted(range(len(row)), key=row.__getitem__)
            nbrs.append([ids[within[k]] for k in by_cost])
            costs.append([row[k] for k in by_cost])
        return nbrs, costs

    def probe(t: float, warm: list[int]) -> list[int] | None:
        """A matching at t covering every forced point, or None."""
        forced = [c > t for c in diag]
        degree = [bisect_right(c, t) for c in costs]
        mate = [-1] * len(pts)
        for i in range(n1):
            j = warm[i]
            if j != -1 and _pair_cost(pts[i], pts[j]) <= t:
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
        stack = [(root, islice(nbrs[root], degree[root]))]
        while stack:
            u, edges = stack[-1]
            for v in edges:
                if seen[v]:
                    continue
                seen[v] = 1
                prev[v] = u
                w = mate[v]
                if w != -1 and forced[w]:
                    stack.append((w, islice(nbrs[w], degree[w])))
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

    # Gallop up from the lower bound until a probe is feasible.  The floor
    # step leaves 0 (duplicate points); at the largest diagonal cost nothing
    # is forced, so the loop ends.
    least, top = min((c for c in diag if c > 0.0), default=0.0), max(diag)
    below, t = math.nextafter(lower, -math.inf), lower
    while True:
        nbrs, costs = neighbours(t)
        mate = probe(t, [-1] * len(pts))
        if mate is not None:
            break
        below, t = t, min(max(2.0 * t, least), top)
    # Feasibility at t equals that at the largest cost <= t, and nothing
    # below the lower bound or at an infeasible probe passes, so the optimum
    # is a diagonal or pair cost in (below, t].  lower is one of them.
    candidates = sorted({c for c in chain(diag, *costs[:n1]) if below < c <= t})
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
    """Max over vertices of |f - g| for functions on the same vertex set,
    the least float >= its exact value."""
    if len(f) != len(g):
        raise ValueError(f"length mismatch: {len(f)} != {len(g)}")
    return max((eps_needed(max(a, b), min(a, b)) for a, b in zip(f, g)), default=0.0)


def natural_pseudo_upper(
    k1: SimplicialComplex, f: VertexFunction, k2: SimplicialComplex, g: VertexFunction
) -> float:
    """Min over simplicial isomorphisms h of max_v |f(v) - g(h(v))|, the
    least float >= its exact value.

    This is an UPPER BOUND on the natural pseudo-distance: the infimum there
    ranges over all homeomorphisms, which a finite enumeration cannot exhaust.
    Returns inf when the complexes are not isomorphic.

    With equal simplex counts per size, the isomorphisms are the injective
    simplicial maps.  One using only pairs (v, h(v)) of cost <= t exists for
    every t from the optimum up, so the optimum is found by bisection.
    """
    _require_fits(k1, f)
    _require_fits(k2, g)
    if k1.vertex_count > NP_VERTEX_GUARD or k2.vertex_count > NP_VERTEX_GUARD:
        raise SizeGuardExceeded(f"isomorphism enumeration limited to {NP_VERTEX_GUARD} vertices")
    n = k1.vertex_count
    if list(map(len, k1.by_size)) != list(map(len, k2.by_size)):
        return math.inf
    if n == 0:
        return 0.0
    cost = [[eps_needed(max(x, y), min(x, y)) for y in g] for x in f]
    levels = sorted(set(chain.from_iterable(cost)))

    def feasible(t: float) -> bool:
        allowed = [frozenset(w for w, c in enumerate(row) if c <= t) for row in cost]
        return _each_simplicial_map(k1, k2, lambda image: True, allowed=allowed, injective=True)

    if not feasible(levels[-1]):
        return math.inf
    return levels[bisect_left(levels, True, hi=len(levels) - 1, key=feasible)]
