"""Persistent homology of filtered complexes over the two-element field.

compute_diagrams reduces the boundary matrix with clearing (Chen and Kerber,
"Persistent homology computation with a twist", 2011), with simplices totally
ordered by (filtration value, dimension, lexicographic vertex order).
Dimensions are reduced from the top down, so a simplex that is already the
pivot of a higher column is skipped: its own column would reduce to zero.
For a fixed total order the persistence pairs are unique, so the output is
exactly that of the standard left-to-right reduction.  h0_diagram_unionfind
recomputes the degree-0 diagram by an independent union-find sweep with the
elder rule; the two must agree as multisets on every input, which the test
suite enforces.  The order is the one FilteredComplex caches, which the
union-find sweep and the merge tree read as well.

Per dimension, the boundaries of the columns that clearing leaves are
formed in one iterator pipeline and each column's first low is read off
them; most pairs are apparent (the first low is not yet a pivot) and cost
one dict probe, and only the rest build a set and add columns.  Births and
deaths are read from FilteredComplex.values by position, and the union-find
sweep walks FilteredComplex.edges; only vertex births are looked up in the
filtration dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, filterfalse, repeat
from operator import itemgetter
from pathlib import Path

from .common import ParseError, content_lines, fmt_value, parse_int, parse_value
from .complexes import FilteredComplex, Simplex


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


def reduce_filtration(
    fc: FilteredComplex, max_dim: int | None = None
) -> tuple[list[Simplex], list[tuple[int, int]], list[int]]:
    """Column-reduce the boundary matrix; return (order, pairs, essential).

    ``order`` is a fresh list, ``fc.order`` restricted to dimensions up to
    ``max_dim``.  ``pairs`` holds (birth index, death index) positions into
    ``order``, in increasing death index; ``essential`` the positions of
    unpaired creators, in increasing order.  Every simplex lands in exactly
    one of birth / death / essential.  A column holds facet positions,
    addition is symmetric difference, the pivot of a column is its max.

    Dimensions are reduced from the highest down, each in filtration order.
    A column whose simplex is already a pivot (a birth paired by a column one
    dimension up) would reduce to zero, so it is cleared: skipped without
    building its boundary.  Columns only ever absorb columns of their own
    dimension, and the pairs of a fixed total order are unique, so the result
    equals that of the plain left-to-right reduction.

    The boundaries of a dimension's uncleared columns are formed in one
    iterator pipeline, as tuples of facet positions, and a column's
    unreduced low is the max of its tuple.  Most columns pair at that first
    low (apparent pairs), which costs one dict probe.  Only a column whose
    low is already a pivot copies its tuple into a set and adds columns to
    it; its entry in ``column`` then becomes that reduced set.  A pivot
    column that never received additions is added as its boundary tuple.
    """
    order = list(fc.order)
    sizes = list(map(len, order))
    if max_dim is not None and max(sizes, default=0) > max_dim + 1:
        order = [s for s, size in zip(order, sizes) if size <= max_dim + 1]
        sizes = list(map(len, order))
    n = len(order)
    face_index = dict(zip(order, range(n))).__getitem__
    # positions grouped by simplex size, each group in filtration order
    by_size = sorted(range(n), key=sizes.__getitem__)
    pivot_of: dict[int, int] = {}
    # uncleared columns that reduce to zero: no higher column pivots on them
    # (that dimension is done), so each is an essential class
    essential: list[int] = []
    end = n
    for k in range(max(sizes, default=0), 1, -1):
        start = end - sizes.count(k)
        columns = list(filterfalse(pivot_of.__contains__, by_size[start:end]))
        end = start
        # the facets of a sorted tuple, each again sorted
        simplices = map(order.__getitem__, columns)
        faces = map(face_index, chain.from_iterable(map(combinations, simplices, repeat(k - 1))))
        boundaries = list(zip(*[faces] * k))
        column: dict[int, tuple[int, ...] | set[int]] = dict(zip(columns, boundaries))
        for j, low in zip(columns, map(max, boundaries)):
            other = pivot_of.get(low)
            if other is None:
                pivot_of[low] = j
                continue
            col = set(column[j])
            while other is not None:
                col.symmetric_difference_update(column[other])
                if not col:
                    essential.append(j)
                    break
                low = max(col)
                other = pivot_of.get(low)
            else:
                pivot_of[low] = j
                column[j] = col
    # by_size[:end] are the vertices; those no edge pivots on are essential
    essential.extend(filterfalse(pivot_of.__contains__, by_size[:end]))
    essential.sort()
    return order, sorted(pivot_of.items(), key=itemgetter(1)), essential


def compute_diagrams(fc: FilteredComplex, max_degree: int) -> list[PersistenceDiagram]:
    """Diagrams for degrees 0..max_degree.

    Only simplices of dimension <= max_degree + 1 enter the reduction: columns
    are only ever added within one dimension, so higher simplices cannot
    change any pairing at or below the requested degree.  Values are read
    from ``fc.values`` by position.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    order, pairs, essential = reduce_filtration(fc, max_dim=max_degree + 1)
    values = (
        fc.values
        if len(order) == len(fc.order)
        else [t for s, t in zip(fc.order, fc.values) if len(s) <= max_degree + 2]
    )
    # one slot more: essential classes of degree max_degree + 1 land there unreported
    points: list[list[tuple[float, float]]] = [[] for _ in range(max_degree + 2)]
    for i, j in pairs:
        birth, death = values[i], values[j]
        if birth != death:
            points[len(order[i]) - 1].append((birth, death))
    for i in essential:
        points[len(order[i]) - 1].append((values[i], math.inf))
    return [PersistenceDiagram(k, tuple(points[k])) for k in range(max_degree + 1)]


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
    n = fc.complex.vertex_count
    uf = _UnionFind(n)
    birth = list(map(fc.filtration.__getitem__, zip(range(n))))
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
