"""Persistent homology of lower-star filtrations over the two-element field.

compute_diagrams reduces the boundary matrix with clearing (Chen and Kerber,
"Persistent homology computation with a twist", 2011), one level at a time:
level k holds the simplices of size k in (value, vertex tuple) order, which
is the global (value, dimension, vertex tuple) order restricted to that
size.  A column of level k only ever meets rows of level k - 1 and columns
of its own level, so its pairs are those of the global order.  Levels are
reduced from the top down, so a simplex that is already the pivot of a
higher column is skipped: its own column would reduce to zero.

The first pivot of a column is read off two facets.  Let sigma = (v0 < v1
< ...).  Its lex-largest facet is sigma minus v0, which has a lower value
than sigma only when v0 is the unique strict maximum of f on sigma; then
every other facet contains v0 and ties at f(v0), and the lex-largest of
them is sigma minus v1.  So the pivot is whichever of those two facets
comes later in its level: two position lookups, not one per facet.  Most
pairs are apparent (that pivot is not yet taken); only the other columns
build a boundary, as a set of facet positions, and add columns to it.

h0_diagram_unionfind recomputes the degree-0 diagram by an independent
union-find sweep with the elder rule over FilteredComplex.edges; the two
must agree as multisets on every input, which the test suite enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, filterfalse, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .common import ParseError, content_lines, fmt_value, parse_int, parse_value
from .complexes import FilteredComplex, Simplex, SimplicialComplex


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs in one homology degree.

    Deaths may be math.inf.  Zero-persistence pairs are never stored, so
    birth < death holds strictly for every point.
    """

    degree: int
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", tuple(sorted((float(b), float(d)) for b, d in self.points))
        )
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        for b, d in self.points:
            if math.isnan(b) or math.isinf(b) or math.isnan(d):
                raise ValueError(f"invalid birth/death pair ({b}, {d})")
            if b >= d:
                raise ValueError(f"birth {b} must precede death {d}")

    def __len__(self) -> int:
        return len(self.points)

    def infinite_count(self) -> int:
        return sum(1 for _, d in self.points if math.isinf(d))


Level = tuple[Sequence[Simplex], Sequence[float]]


def _two_facet_lows(simplices: list[Simplex], index, k: int) -> Iterable[int]:
    """The first pivot of each size-k lower-star column: the later of sigma
    minus v0 and sigma minus v1 in their level (see the module docstring)."""
    drop0 = itemgetter(slice(1, None))
    drop1 = itemgetter(0, *range(2, k)) if k > 2 else itemgetter(slice(1))
    return map(max, map(index, map(drop0, simplices)), map(index, map(drop1, simplices)))


def _all_facet_lows(simplices: list[Simplex], index, k: int) -> Iterable[int]:
    """The first pivot of each size-k column: the max over all its facets."""
    return map(max, map(map, repeat(index), map(combinations, simplices, repeat(k - 1))))


def _reduce(
    levels: list[Level], first_lows
) -> tuple[list[dict[int, int]], list[list[int]], tuple[int, int, int]]:
    """Reduce the boundary matrix level by level from the top down, with
    clearing; return (pivots, essential, work).

    ``levels[i]`` holds the simplices of size i + 1 in filtration order,
    and ``first_lows(simplices, index, k)`` yields the unreduced pivot of
    each size-k column, ``index`` giving a facet's position in its level.
    ``pivots[i]`` maps each birth position in level i - 1 to its death
    position in level i; ``essential[i]`` lists the positions in level i of
    the unpaired creators.  ``work`` counts the columns cleared, the
    boundaries built and the column additions.

    A column whose simplex is a pivot of the level above is cleared.  An
    apparent column stores nothing; the others build their boundary, add
    the stored column of each pivot they meet (an apparent pivot column's
    boundary is built then, and kept) and store the reduced set.
    """
    top = len(levels)
    pivots: list[dict[int, int]] = [{} for _ in range(top + 1)]
    essential: list[list[int]] = [[] for _ in range(top)]
    cleared = built = added = 0
    for i in range(top - 1, 0, -1):
        simplices, rows = levels[i][0], levels[i - 1][0]
        index = dict(zip(rows, range(len(rows)))).__getitem__
        columns = list(filterfalse(pivots[i + 1].__contains__, range(len(simplices))))
        cleared += len(simplices) - len(columns)
        pivot_of = pivots[i]
        stored: dict[int, tuple[int, ...] | set[int]] = {}
        lows = first_lows(list(map(simplices.__getitem__, columns)), index, i + 1)
        for j, low in zip(columns, lows):
            other = pivot_of.get(low)
            if other is None:
                pivot_of[low] = j
                continue
            col = set(map(index, combinations(simplices[j], i)))
            built += 1
            while other is not None:
                if other not in stored:
                    stored[other] = tuple(map(index, combinations(simplices[other], i)))
                    built += 1
                col.symmetric_difference_update(stored[other])
                added += 1
                if not col:
                    essential[i].append(j)
                    break
                low = max(col)
                other = pivot_of.get(low)
            else:
                pivot_of[low] = j
                stored[j] = col
    essential[0] = list(filterfalse(pivots[1].__contains__, range(len(levels[0][0]))))
    return pivots[:top], essential, (cleared, built, added)


def _reduce_values(complex: SimplicialComplex, value, top: int):
    """(levels, pivots, essential, work) of explicit monotone values
    ``value(s)`` over the sizes up to ``top``, each first pivot the max over
    all facets: a test oracle for filtrations that are no lower star."""
    levels = []
    for k in range(1, top + 1):
        simplices = sorted(sorted(s for s in complex.simplices if len(s) == k), key=value)
        levels.append((simplices, list(map(value, simplices))))
    return (levels, *_reduce(levels, _all_facet_lows))


def _readout(levels: list[Level], pivots, essential, max_degree: int) -> list[PersistenceDiagram]:
    """The diagrams of degrees 0..max_degree of a level reduction, read off
    the level values by position; zero-persistence pairs are dropped."""
    diagrams = []
    for k in range(max_degree + 1):
        births, deaths, pairs = levels[k][1], levels[k + 1][1], pivots[k + 1]
        bd = zip(map(births.__getitem__, pairs), map(deaths.__getitem__, pairs.values()))
        points = [(b, d) for b, d in bd if b != d]
        points.extend(zip(map(births.__getitem__, essential[k]), repeat(math.inf)))
        diagrams.append(PersistenceDiagram(k, tuple(points)))
    return diagrams


def compute_diagrams(fc: FilteredComplex, max_degree: int) -> list[PersistenceDiagram]:
    """Diagrams for degrees 0..max_degree.

    Only levels up to size max_degree + 2 enter the reduction: columns are
    only ever added within one level, so higher simplices cannot change any
    pairing at or below the requested degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    levels = [fc.level(k) for k in range(1, max_degree + 3)]
    return _readout(levels, *_reduce(levels, _two_facet_lows)[:2], max_degree)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root


def h0_diagram_unionfind(fc: FilteredComplex) -> PersistenceDiagram:
    """Degree-0 diagram by a union-find sweep, independent of the reduction.

    Edges are processed in increasing filtration order; at a merge the younger
    component (larger birth) dies there (elder rule), ties going either way
    without affecting the multiset.  Surviving components produce infinite
    points at their births.
    """
    birth = fc.function.values
    n = len(birth)
    uf = _UnionFind(n)
    points: list[tuple[float, float]] = []
    find = uf.find
    for t, u, v in fc.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if birth[ru] < birth[rv] or (birth[ru] == birth[rv] and ru < rv):
            elder, younger = ru, rv
        else:
            elder, younger = rv, ru
        if birth[younger] < t:
            points.append((birth[younger], t))
        uf.parent[younger] = elder
    roots = set(map(find, range(n)))
    points.extend((birth[r], math.inf) for r in roots)
    return PersistenceDiagram(0, tuple(points))


def shift_diagram(d: PersistenceDiagram, c: float) -> PersistenceDiagram:
    """Shift every birth and finite death by c; infinite deaths stay infinite."""
    return PersistenceDiagram(
        d.degree,
        tuple((b + c, d_ + c if not math.isinf(d_) else d_) for b, d_ in d.points),
    )


# ---------------------------------------------------------------------------
# Diagram TSV: `degree<TAB>birth<TAB>death`, `inf` for infinite death,
# sorted by (degree, birth, death).
# ---------------------------------------------------------------------------


def diagrams_to_tsv(diagrams: list[PersistenceDiagram]) -> str:
    rows: list[tuple[int, float, float]] = []
    for d in diagrams:
        rows.extend((d.degree, b, dd) for b, dd in d.points)
    rows.sort()
    lines = [f"{k}\t{fmt_value(b)}\t{fmt_value(d)}" for k, b, d in rows]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_diagrams_tsv(text: str, source: str = "<string>") -> list[PersistenceDiagram]:
    """Inverse of diagrams_to_tsv, up to trailing empty degrees."""
    per_degree: dict[int, list[tuple[float, float]]] = {}
    top = -1
    for lineno, tokens in content_lines(text):
        if len(tokens) != 3:
            raise ParseError(source, lineno, "expected `degree birth death`")
        k = parse_int(tokens[0], source, lineno)
        if k < 0:
            raise ParseError(source, lineno, "degree must be non-negative")
        b = parse_value(tokens[1], source, lineno)
        d = parse_value(tokens[2], source, lineno)
        per_degree.setdefault(k, []).append((b, d))
        top = max(top, k)
    return [
        PersistenceDiagram(k, tuple(per_degree.get(k, []))) for k in range(top + 1)
    ]


def load_diagrams(path: str | Path) -> list[PersistenceDiagram]:
    p = Path(path)
    return parse_diagrams_tsv(p.read_text(encoding="utf-8"), source=str(p))


def save_diagrams(path: str | Path, diagrams: list[PersistenceDiagram]) -> None:
    Path(path).write_text(diagrams_to_tsv(diagrams), encoding="utf-8")
