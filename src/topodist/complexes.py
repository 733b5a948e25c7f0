"""Finite simplicial complexes, scalar vertex data, filtrations, and simplicial maps.

A complex stores the full set of its simplices, each a strictly increasing
tuple of vertex indices, closed under taking faces.  A filtration assigns a
monotone real value to every simplex; the lower-star extension of a vertex
function (each simplex enters at the max of its vertices' values) is the
standard way to build one from scalar data.

Simplicial maps are vertex maps whose induced simplex images stay inside the
target complex.  Two such maps are *contiguous* when the union of their images
of any simplex is again a simplex; a chain of pairwise contiguous maps is a
finite, checkable certificate that its two endpoint maps are homotopic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .common import ParseError, content_lines, fmt_value, parse_int, parse_value

Simplex = tuple[int, ...]

DEFAULT_MAX_DIM = 3


def _trusted(cls, **fields):
    """An instance of a dataclass made without running its __post_init__
    checks, for builders whose construction already guarantees them."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex on vertices 0..vertex_count-1.

    The constructor validates; build_complex returns trusted instances.
    """

    vertex_count: int
    simplices: frozenset[Simplex]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for s in self.simplices:
            if not s:
                raise ValueError("empty simplex")
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise ValueError(f"simplex {s} is not strictly increasing")
            if s[0] < 0 or s[-1] >= self.vertex_count:
                raise ValueError(f"simplex {s} has a vertex out of range")
            if len(s) > 1:
                for facet in combinations(s, len(s) - 1):
                    if facet not in self.simplices:
                        raise ValueError(f"complex not closed under faces at {s}")
        for v in range(self.vertex_count):
            if (v,) not in self.simplices:
                raise ValueError(f"vertex {v} missing as a 0-simplex")

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        return max((len(s) - 1 for s in self.simplices), default=-1)

    @cached_property
    def facets(self) -> tuple[Simplex, ...]:
        """Maximal simplices (those in no bigger simplex), by (size, vertex tuple).

        Most per-simplex conditions used in this package (simpliciality of a
        map, contiguity of two maps) are inherited by faces, so checking
        facets alone is enough.  Face closure makes every proper face of a
        simplex a codimension-1 face of some simplex, so the facets are the
        simplices that are no simplex's codimension-1 face.  Cached on the
        complex, so it lives exactly as long as the complex does.
        """
        faces = {f for s in self.simplices for f in combinations(s, len(s) - 1)}
        return tuple(sorted(self.simplices - faces, key=lambda s: (len(s), s)))


def build_complex(
    simplex_list: Iterable[Sequence[int]],
    vertex_count: int | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> SimplicialComplex:
    """Face closure of the given simplices.

    With ``vertex_count`` given, vertices not mentioned in any simplex become
    isolated points; otherwise the count is inferred as 1 + max index and a
    vertex index gap is an error (it almost always indicates a typo).
    """
    if vertex_count is not None and vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    closed: set[Simplex] = set()
    top = -1
    for raw in simplex_list:
        verts = list(raw)
        if not verts:
            raise ValueError("empty simplex in input")
        if any(v < 0 for v in verts):
            raise ValueError(f"negative vertex index in {verts}")
        if len(set(verts)) != len(verts):
            raise ValueError(f"repeated vertex inside simplex {verts}")
        if len(verts) - 1 > max_dim:
            raise ValueError(
                f"simplex {verts} exceeds the dimension cap {max_dim}"
            )
        s = tuple(sorted(verts))
        top = max(top, s[-1])
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
    n = vertex_count if vertex_count is not None else top + 1
    if vertex_count is not None:
        if top >= vertex_count:
            raise ValueError("simplex vertex index exceeds the declared count")
        closed.update((v,) for v in range(n))
    else:
        for v in range(n):
            if (v,) not in closed:
                raise ValueError(f"vertex index gap: {v} appears in no simplex")
    return _trusted(SimplicialComplex, vertex_count=n, simplices=frozenset(closed))


@dataclass(frozen=True)
class VertexFunction:
    """A finite real value per vertex. NaN and infinities are rejected."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if math.isnan(v) or math.isinf(v):
                raise ValueError("vertex values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def shifted(self, c: float) -> VertexFunction:
        return VertexFunction(tuple(v + c for v in self.values))


def _require_fits(complex: SimplicialComplex, f: VertexFunction) -> None:
    """Raise ValueError unless ``f`` has one value per vertex of ``complex``."""
    if len(f) != complex.vertex_count:
        raise ValueError(
            f"function length {len(f)} != vertex count {complex.vertex_count}"
        )


@dataclass
class FilteredComplex:
    """A complex with a monotone real value per simplex.

    Treated as immutable after construction; all operations on it are pure,
    and ``order`` is cached on first use.  The constructor validates;
    lower_star returns trusted instances.
    """

    complex: SimplicialComplex
    filtration: dict[Simplex, float]

    def __post_init__(self) -> None:
        if set(self.filtration) != self.complex.simplices:
            raise ValueError("filtration must assign a value to every simplex")
        for s, val in self.filtration.items():
            if math.isnan(val) or math.isinf(val):
                raise ValueError("filtration values must be finite")
            if len(s) > 1:
                for facet in combinations(s, len(s) - 1):
                    if self.filtration[facet] > val:
                        raise ValueError(
                            f"filtration not monotone: value({facet}) > value({s})"
                        )

    @cached_property
    def order(self) -> tuple[Simplex, ...]:
        """Simplices by (value, dimension, vertex tuple), as three stable sorts.

        Restricted to edges this is the order by (value, vertex tuple).
        """
        order = sorted(sorted(self.complex.simplices), key=len)
        order.sort(key=self.filtration.__getitem__)
        return tuple(order)


def lower_star(complex: SimplicialComplex, f: VertexFunction) -> FilteredComplex:
    """Lower-star filtration: every simplex enters at the max of its vertices."""
    _require_fits(complex, f)
    values = f.values
    return _trusted(
        FilteredComplex,
        complex=complex,
        filtration={s: max(map(values.__getitem__, s)) for s in complex.simplices},
    )


@dataclass(frozen=True)
class SimplicialMap:
    """A vertex map between complexes; see check_simplicial for the map condition."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_image: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_image", tuple(self.vertex_image))
        if len(self.vertex_image) != self.source.vertex_count:
            raise ValueError("vertex_image length must match the source vertex count")
        for w in self.vertex_image:
            if not 0 <= w < self.target.vertex_count:
                raise ValueError(f"image vertex {w} out of range for the target")

    def apply(self, s: Sequence[int]) -> Simplex:
        return tuple(sorted({self.vertex_image[v] for v in s}))

    def __call__(self, v: int) -> int:
        return self.vertex_image[v]


def identity_map(complex: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(complex, complex, tuple(range(complex.vertex_count)))


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    """outer after inner."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("composition endpoints do not match")
    return SimplicialMap(
        inner.source,
        outer.target,
        tuple(outer.vertex_image[w] for w in inner.vertex_image),
    )


def check_simplicial(map: SimplicialMap) -> bool:
    """True iff every source simplex maps to a target simplex.

    Only facets need checking: the image of a face is a subset of the image
    of the facet, and target simplices are closed under subsets.
    """
    simplices = map.target.simplices
    return all(map.apply(s) in simplices for s in map.source.facets)


def contiguous(m1: SimplicialMap, m2: SimplicialMap) -> bool:
    """True iff m1(s) ∪ m2(s) is a target simplex for every source simplex s."""
    if m1.source != m2.source or m1.target != m2.target:
        raise ValueError("contiguity requires maps with the same source and target")
    simplices = m1.target.simplices
    for s in m1.source.facets:
        union = set(m1.apply(s)) | set(m2.apply(s))
        if tuple(sorted(union)) not in simplices:
            return False
    return True


@dataclass(frozen=True)
class ContiguityChain:
    """A nonempty list of maps, meant to be stepwise contiguous.

    Construction only validates the shared endpoints; the contiguity condition
    itself is semantic and checked by check_contiguity_chain.
    """

    maps: tuple[SimplicialMap, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValueError("a contiguity chain needs at least one map")
        first = self.maps[0]
        for m in self.maps[1:]:
            if m.source != first.source or m.target != first.target:
                raise ValueError("all maps in a chain must share source and target")

    @property
    def source(self) -> SimplicialComplex:
        return self.maps[0].source

    @property
    def target(self) -> SimplicialComplex:
        return self.maps[0].target

    def __len__(self) -> int:
        return len(self.maps)


def check_contiguity_chain(chain: ContiguityChain) -> bool:
    """True iff all maps are simplicial and every consecutive pair is contiguous."""
    if not all(check_simplicial(m) for m in chain.maps):
        return False
    return all(
        contiguous(chain.maps[i], chain.maps[i + 1]) for i in range(len(chain) - 1)
    )


def homotopy_sup_control(
    chain: ContiguityChain, g: VertexFunction
) -> tuple[float, ...]:
    """Per source vertex, the max of g over that vertex's images along the chain.

    This bounds the lower-star value of g swept by the chain through the
    vertex: moving it from one map's image to the next stays inside the
    simplex spanned by the two image vertices (contiguity makes it a
    simplex), and a lower-star simplex enters at the max of its vertices,
    both of which are among the images.
    """
    if len(g) != chain.target.vertex_count:
        raise ValueError("function length does not match the chain target")
    values = g.values
    images = zip(*(m.vertex_image for m in chain.maps))
    return tuple(max(map(values.__getitem__, ws)) for ws in images)


# ---------------------------------------------------------------------------
# Text format: `n <count>`, one vertex value per line, then `s v0 v1 ...`
# lines (face closure applied on load).  '#' starts a comment.
# ---------------------------------------------------------------------------


def parse_instance(
    text: str, source: str = "<string>"
) -> tuple[SimplicialComplex, VertexFunction]:
    lines = content_lines(text)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError(source, 1, "empty file; expected `n <vertex_count>`") from None
    if tokens[0] != "n" or len(tokens) != 2:
        raise ParseError(source, lineno, "expected header `n <vertex_count>`")
    n = parse_int(tokens[1], source, lineno)
    if n < 0:
        raise ParseError(source, lineno, "vertex count must be non-negative")

    values: list[float] = []
    while len(values) < n:
        try:
            lineno, tokens = next(lines)
        except StopIteration:
            raise ParseError(
                source, lineno, f"expected {n} vertex values, got {len(values)}"
            ) from None
        if len(tokens) != 1:
            raise ParseError(source, lineno, "expected one vertex value per line")
        values.append(parse_value(tokens[0], source, lineno))

    simplex_rows: list[list[int]] = []
    for lineno, tokens in lines:
        if tokens[0] != "s":
            raise ParseError(source, lineno, f"expected `s v0 v1 ...`, got {tokens[0]!r}")
        if len(tokens) == 1:
            raise ParseError(source, lineno, "empty simplex")
        verts = [parse_int(t, source, lineno) for t in tokens[1:]]
        if len(set(verts)) != len(verts):
            raise ParseError(source, lineno, "repeated vertex inside a simplex")
        if any(v < 0 or v >= n for v in verts):
            raise ParseError(source, lineno, "vertex index out of range")
        if len(verts) - 1 > DEFAULT_MAX_DIM:
            raise ParseError(source, lineno, f"simplex exceeds dimension cap {DEFAULT_MAX_DIM}")
        simplex_rows.append(verts)

    complex = build_complex(simplex_rows, vertex_count=n)
    return complex, VertexFunction(tuple(values))


def format_instance(complex: SimplicialComplex, f: VertexFunction) -> str:
    _require_fits(complex, f)
    out = [f"n {complex.vertex_count}"]
    out.extend(fmt_value(v) for v in f)
    # isolated vertices are implied by the header; only facets of size >= 2 matter
    for s in complex.facets:
        if len(s) > 1:
            out.append("s " + " ".join(str(v) for v in s))
    return "\n".join(out) + "\n"


def load_instance(path: str | Path) -> tuple[SimplicialComplex, VertexFunction]:
    p = Path(path)
    return parse_instance(p.read_text(encoding="utf-8"), source=str(p))


def save_instance(path: str | Path, complex: SimplicialComplex, f: VertexFunction) -> None:
    Path(path).write_text(format_instance(complex, f), encoding="utf-8")
