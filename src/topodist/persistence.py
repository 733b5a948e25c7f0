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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
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
    one of birth / death / essential.  Columns are kept as integer sets,
    addition is symmetric difference, the pivot of a column is its max.

    Dimensions are reduced from the highest down, each in filtration order.
    A column whose simplex is already a pivot (a birth paired by a column one
    dimension up) would reduce to zero, so it is cleared: skipped without
    building its boundary.  Columns only ever absorb columns of their own
    dimension, and the pairs of a fixed total order are unique, so the result
    equals that of the plain left-to-right reduction.
    """
    order = (
        list(fc.order)
        if max_dim is None
        else [s for s in fc.order if len(s) <= max_dim + 1]
    )
    face_index = {s: i for i, s in enumerate(order)}.__getitem__
    by_dim: list[list[int]] = [[] for _ in range(max(map(len, order), default=0))]
    for j, s in enumerate(order):
        by_dim[len(s) - 1].append(j)
    reduced: dict[int, set[int]] = {}
    pivot_of: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for columns in reversed(by_dim[1:]):
        for j in columns:
            if j in pivot_of:
                continue
            s = order[j]
            # the facets of a sorted tuple, each again sorted
            col = set(map(face_index, combinations(s, len(s) - 1)))
            while col:
                low = max(col)
                k = pivot_of.get(low)
                if k is None:
                    break
                col ^= reduced[k]
            if col:
                pivot_of[low] = j
                reduced[j] = col
                pairs.append((low, j))
    pairs.sort(key=itemgetter(1))
    essential = [
        i for i in range(len(order)) if i not in pivot_of and i not in reduced
    ]
    return order, pairs, essential


def compute_diagrams(fc: FilteredComplex, max_degree: int) -> list[PersistenceDiagram]:
    """Diagrams for degrees 0..max_degree.

    Only simplices of dimension <= max_degree + 1 enter the reduction: columns
    are only ever added within one dimension, so higher simplices cannot
    change any pairing at or below the requested degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    order, pairs, essential = reduce_filtration(fc, max_dim=max_degree + 1)
    points: list[list[tuple[float, float]]] = [[] for _ in range(max_degree + 1)]
    for i, j in pairs:
        birth = fc.filtration[order[i]]
        death = fc.filtration[order[j]]
        degree = len(order[i]) - 1
        if birth != death and degree <= max_degree:
            points[degree].append((birth, death))
    for i in essential:
        degree = len(order[i]) - 1
        if degree <= max_degree:
            points[degree].append((fc.filtration[order[i]], math.inf))
    return [PersistenceDiagram(k, tuple(points[k])) for k in range(max_degree + 1)]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
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
    birth = [fc.filtration[(v,)] for v in range(n)]
    points: list[tuple[float, float]] = []
    for u, v in (e for e in fc.order if len(e) == 2):
        t = fc.filtration[(u, v)]
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            continue
        if birth[ru] < birth[rv] or (birth[ru] == birth[rv] and ru < rv):
            elder, younger = ru, rv
        else:
            elder, younger = rv, ru
        if birth[younger] < t:
            points.append((birth[younger], t))
        uf.parent[younger] = elder
    roots = {uf.find(v) for v in range(n)}
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
