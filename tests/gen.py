"""Random instance generators shared by the unit and acceptance tests.

Values live on a dyadic grid (multiples of 1/64 in a small range) so that
adding the shift constants used in the tests is exact in double precision;
`non_dyadic_vertex_function` is the exception, for tests of rounding.
"""

from __future__ import annotations

import itertools
import math
import random
from types import SimpleNamespace
from typing import Callable

from topodist.complexes import (
    FilteredComplex,
    SimplicialComplex,
    VertexFunction,
    build_complex,
    lower_star,
)
from topodist.mergetree import MergeTree
from topodist.persistence import PersistenceDiagram, _readout, _reduce_values


def dyadic(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> float:
    return rng.randint(int(lo * 64), int(hi * 64)) / 64.0


def random_vertex_function(rng: random.Random, n: int) -> VertexFunction:
    return VertexFunction(tuple(dyadic(rng) for _ in range(n)))


def non_dyadic_vertex_function(rng: random.Random, n: int, kind: str) -> VertexFunction:
    """Values whose differences round in double precision: multiples of 1/3
    or of 1/10 in [-2, 2], or ``random()`` draws."""
    draw = {
        "thirds": lambda: rng.randint(-6, 6) / 3,
        "tenths": lambda: rng.randint(-20, 20) / 10,
        "random": rng.random,
    }[kind]
    return VertexFunction(tuple(draw() for _ in range(n)))


def random_connected_complex(
    rng: random.Random,
    min_vertices: int = 3,
    max_vertices: int = 30,
    extra_edge_rate: float = 0.4,
    triangle_rate: float = 0.4,
) -> SimplicialComplex:
    n = rng.randint(min_vertices, max_vertices)
    simplices: list[list[int]] = []
    for v in range(1, n):  # random spanning tree keeps it connected
        simplices.append([rng.randrange(v), v])
    for _ in range(int(n * extra_edge_rate)):
        u, v = rng.sample(range(n), 2)
        simplices.append([u, v])
    if n >= 3:
        for _ in range(int(n * triangle_rate)):
            simplices.append(rng.sample(range(n), 3))
    return build_complex(simplices, vertex_count=n, max_dim=2)


def coned(rng: random.Random, K: SimplicialComplex) -> SimplicialComplex:
    """K with a new vertex coned onto one of its simplices: the same homotopy
    type, so round trips that reach the identity exist."""
    n = K.vertex_count
    base = rng.choice(sorted(K.simplices))
    return build_complex([*K.simplices, (*base, n)], vertex_count=n + 1)


def random_complex(
    rng: random.Random, max_vertices: int = 20, edge_rate: float = 0.8
) -> SimplicialComplex:
    """Possibly disconnected, possibly with isolated vertices."""
    n = rng.randint(1, max_vertices)
    simplices: list[list[int]] = []
    for _ in range(int(n * edge_rate)):
        if n >= 2:
            simplices.append(rng.sample(range(n), 2))
    if n >= 3:
        for _ in range(int(n * 0.3)):
            simplices.append(rng.sample(range(n), 3))
    return build_complex(simplices, vertex_count=n, max_dim=2)


def random_complex_3d(rng: random.Random, max_vertices: int = 12) -> SimplicialComplex:
    """Possibly disconnected, with edges, triangles, hollow tetrahedron
    boundaries (2-cycles) and solid tetrahedra."""
    n = rng.randint(1, max_vertices)
    simplices: list[list[int]] = []
    if n >= 2:
        simplices += [rng.sample(range(n), 2) for _ in range(n // 2)]
    if n >= 3:
        simplices += [rng.sample(range(n), 3) for _ in range(n // 3)]
    if n >= 4:
        for _ in range(n // 3):
            simplices += map(list, itertools.combinations(rng.sample(range(n), 4), 3))
        simplices += [rng.sample(range(n), 4) for _ in range(n // 3)]
    return build_complex(simplices, vertex_count=n, max_dim=3)


def freudenthal_block(side: int) -> SimplicialComplex:
    """A side^3 vertex grid, each unit cube cut into six tetrahedra along
    its main diagonal (the Freudenthal triangulation)."""
    def vid(i: int, j: int, k: int) -> int:
        return (i * side + j) * side + k

    tets: list[list[int]] = []
    for corner in itertools.product(range(side - 1), repeat=3):
        for axes in itertools.permutations(range(3)):
            walk = list(corner)
            tet = [vid(*walk)]
            for axis in axes:
                walk[axis] += 1
                tet.append(vid(*walk))
            tets.append(tet)
    return build_complex(tets, vertex_count=side**3, max_dim=3)


def random_filtered(rng: random.Random, complex: SimplicialComplex) -> FilteredComplex:
    return lower_star(complex, random_vertex_function(rng, complex.vertex_count))


def tied_vertex_function(rng: random.Random, n: int) -> VertexFunction:
    """Values on a coarse quarter grid: many vertices tie."""
    return VertexFunction(tuple(rng.randint(0, 4) / 4.0 for _ in range(n)))


def tied_filtered(rng: random.Random, complex: SimplicialComplex) -> FilteredComplex:
    """Lower-star values on a coarse quarter grid: many simplices tie."""
    return lower_star(complex, tied_vertex_function(rng, complex.vertex_count))


def random_monotone_filtered(
    rng: random.Random, complex: SimplicialComplex
) -> dict[tuple[int, ...], float]:
    """Explicit values, one per simplex, of an arbitrary monotone filtration
    that is in general no lower star, so no FilteredComplex holds it."""
    filtration: dict[tuple[int, ...], float] = {}
    for s in sorted(complex.simplices, key=len):
        floor = max(
            (filtration[s[:k] + s[k + 1 :]] for k in range(len(s))),
            default=dyadic(rng),
        ) if len(s) > 1 else dyadic(rng)
        filtration[s] = floor + rng.randint(0, 32) / 64.0
    return filtration


def simplex_value(filtered: FilteredComplex | dict) -> Callable[[tuple[int, ...]], float]:
    """``value(s)`` of a lower star (f at the top vertex of s, recomputed
    here) or of a dict of explicit values."""
    if isinstance(filtered, dict):
        return filtered.__getitem__
    f = filtered.function.values
    return lambda s: max(f[v] for v in s)


def level_values(fc: FilteredComplex) -> dict[tuple[int, ...], float]:
    """The value of each simplex as the levels of ``fc`` hold it."""
    return {s: t for k in range(1, fc.complex.dim + 2) for s, t in zip(*fc.level(k))}


def value_diagrams(complex: SimplicialComplex, value, max_degree: int) -> list[PersistenceDiagram]:
    """compute_diagrams for explicit per-simplex values, through the
    reduction's explicit-values entry."""
    levels, pivots, essential, _ = _reduce_values(complex, value, max_degree + 2)
    return _readout(levels, pivots, essential, max_degree)


def sweep_input(complex: SimplicialComplex, value) -> SimpleNamespace:
    """What the union-find sweep and the merge tree read of a filtration,
    ``function`` and ``edges`` in (value, u, v) order, for explicit values."""
    edges = sorted((value(e), *e) for e in complex.simplices if len(e) == 2)
    births = tuple(value((v,)) for v in range(complex.vertex_count))
    return SimpleNamespace(function=VertexFunction(births), edges=tuple(edges))


def grid_complex(side: int) -> SimplicialComplex:
    """A side x side vertex grid, two triangles per square."""
    triangles: list[list[int]] = []
    for r in range(side - 1):
        for c in range(side - 1):
            a = r * side + c
            triangles += [[a, a + 1, a + side + 1], [a, a + side, a + side + 1]]
    return build_complex(triangles, vertex_count=side * side, max_dim=2)


def random_diagram(
    rng: random.Random, max_points: int = 6, infinite_rate: float = 0.25
) -> PersistenceDiagram:
    points = []
    for _ in range(rng.randint(0, max_points)):
        birth = dyadic(rng)
        if rng.random() < infinite_rate:
            points.append((birth, math.inf))
        else:
            points.append((birth, birth + rng.randint(1, 128) / 64.0))
    return PersistenceDiagram(0, tuple(points))


def tied_diagram(
    rng: random.Random, max_points: int = 6, infinite_rate: float = 0.1
) -> PersistenceDiagram:
    """Points on a coarse quarter grid: many equal pair and diagonal costs,
    duplicate points, and points whose diagonal cost equals a pair cost."""
    points = []
    for _ in range(rng.randint(0, max_points)):
        birth = rng.randint(0, 4) / 4.0
        if rng.random() < infinite_rate:
            points.append((birth, math.inf))
        else:
            points.append((birth, birth + rng.randint(1, 4) / 4.0))
    return PersistenceDiagram(0, tuple(points))


def caterpillar_tree(steps: int) -> MergeTree:
    """A spine from a leaf at 0; at step i a leaf at 0.25 + i/64 joins it at
    height 2 + i.  That makes steps + 1 leaves and 2*steps + 1 nodes."""
    heights = {0: 0.0}
    parent: dict[int, int] = {}
    spine = 0
    for i in range(steps):
        leaf, merge = 2 * i + 1, 2 * i + 2
        heights[leaf] = 0.25 + i / 64.0
        heights[merge] = 2.0 + i
        parent[spine] = parent[leaf] = merge
        spine = merge
    return MergeTree(heights, parent, spine)


def random_merge_tree(rng: random.Random, max_leaves: int, grid: float) -> MergeTree:
    """Leaves on multiples of ``grid`` in [0, 2], merged two or three branches
    at a time, each merge 1 to 1/grid grid steps above its highest child: a
    coarse grid gives many tied leaves and merges."""
    steps = round(1 / grid)
    leaves = range(rng.randint(1, max_leaves))
    heights = {leaf: rng.randint(0, 2 * steps) * grid for leaf in leaves}
    parent: dict[int, int] = {}
    tops = list(heights)
    while len(tops) > 1:
        kids = rng.sample(tops, min(len(tops), rng.choice((2, 2, 3))))
        node = len(heights)
        heights[node] = max(heights[k] for k in kids) + rng.randint(1, steps) * grid
        for k in kids:
            parent[k] = node
            tops.remove(k)
        tops.append(node)
    return MergeTree(heights, parent, tops[0])
