"""Finite simplicial complexes, scalar vertex data, filtrations, and simplicial maps.

A complex stores the full set of its simplices, each a strictly increasing
tuple of vertex indices, closed under taking faces.  Every filtration in this
package is the lower star of a vertex function: each simplex enters at the
max of its vertices' values, so the filtration is monotone by construction.

Simplicial maps are vertex maps whose induced simplex images stay inside the
target complex.  Two such maps are *contiguous* when the union of their images
of any simplex is again a simplex; a chain of pairwise contiguous maps is a
finite, checkable certificate that its two endpoint maps are homotopic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, compress, groupby, repeat
from operator import eq, lt
from pathlib import Path
from typing import Callable, Iterable, Sequence

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

    The constructor validates; build_complex returns trusted instances,
    with ``by_size`` already set from its levels.
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
        return len(self.by_size) - 1

    @cached_property
    def by_size(self) -> tuple[tuple[Simplex, ...], ...]:
        """The simplices grouped by size, unsorted, size k at index k - 1;
        ``()`` when empty.  Face closure leaves no size out below the top."""
        groups = groupby(sorted(self.simplices, key=len), len)
        return tuple(tuple(group) for _, group in groups)

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

    The input is materialised once and validated per row size, by passes
    over the transposed columns: rows whose columns increase need neither
    a sort nor a repeat check, and only a size whose rows do not all
    increase is sorted row by row.  When a pass fails, the simplices are
    checked again one at a time in input order, so the error names the
    first invalid one.  Faces are then closed top-down, one dimension at a
    time, by zipping all but one column of the level above.
    """
    if vertex_count is not None and vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    rows = list(simplex_list)
    sizes = list(map(len, rows))
    if rows and not (min(sizes) and max(sizes) - 1 <= max_dim):
        _raise_first_invalid(rows, max_dim)
    # levels[k - 1] holds the simplices of size k; the vertices are kept as
    # ints in `used` and become 1-tuples last, each one once
    levels: list[set[Simplex]] = [set() for _ in range(max(sizes, default=1))]
    used: set[int] = set()
    for k in set(sizes):
        group = list(compress(rows, map(eq, sizes, repeat(k))))
        cols = list(zip(*group))
        if not _increasing(cols):
            group = list(map(sorted, group))
            cols = list(zip(*group))
            if not _increasing(cols):  # a repeated vertex
                _raise_first_invalid(rows, max_dim)
        if min(cols[0]) < 0:
            _raise_first_invalid(rows, max_dim)
        levels[k - 1].update(map(tuple, group))
        used.update(*cols)
    for k in range(len(levels), 2, -1):
        cols = list(zip(*levels[k - 1]))
        for i in range(k):
            levels[k - 2].update(zip(*cols[:i], *cols[i + 1 :]))
    top = max(used, default=-1)
    if vertex_count is None:
        if len(used) != top + 1:
            gap = next(v for v in range(top + 1) if v not in used)
            raise ValueError(f"vertex index gap: {gap} appears in no simplex")
        vertex_count = top + 1
    elif top >= vertex_count:
        raise ValueError("simplex vertex index exceeds the declared count")
    levels[0] = set(zip(range(vertex_count)))
    return _trusted(
        SimplicialComplex,
        vertex_count=vertex_count,
        simplices=frozenset().union(*levels),
        by_size=tuple(map(tuple, levels)) if vertex_count else (),
    )


def _increasing(cols: list[tuple[int, ...]]) -> bool:
    """True iff every row of the transposed ``cols`` is strictly increasing."""
    return all(map(all, map(map, repeat(lt), cols, cols[1:])))


def _raise_first_invalid(rows: list[Sequence[int]], max_dim: int) -> None:
    """Raise ValueError naming the first simplex of ``rows`` that fails a check."""
    for raw in rows:
        verts = list(raw)
        if not verts:
            raise ValueError("empty simplex in input")
        if any(v < 0 for v in verts):
            raise ValueError(f"negative vertex index in {verts}")
        if len(set(verts)) != len(verts):
            raise ValueError(f"repeated vertex inside simplex {verts}")
        if len(verts) - 1 > max_dim:
            raise ValueError(f"simplex {verts} exceeds the dimension cap {max_dim}")


@dataclass(frozen=True)
class VertexFunction:
    """A finite real value per vertex. NaN and infinities are rejected."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if not all(map(math.isfinite, self.values)):
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
    """The lower-star filtration of a vertex function: a simplex enters at
    the max of its vertices' values, so the filtration is monotone by type.

    It is read by levels: ``level(k)`` holds the simplices of size k in
    (value, vertex tuple) order and their values, and ``edges`` is level 2
    as ``(value, u, v)`` triples.  Both are cached on first use, so an
    instance must not be mutated.  The constructor checks that ``function``
    has one value per vertex of ``complex``.
    """

    complex: SimplicialComplex
    function: VertexFunction
    # the levels read so far, by size
    _levels: dict[int, tuple[tuple[Simplex, ...], tuple[float, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _require_fits(self.complex, self.function)

    def level(self, k: int) -> tuple[tuple[Simplex, ...], tuple[float, ...]]:
        """The simplices of size k in (value, vertex tuple) order, and their
        values by position; empty for k < 1 and above the top dimension.  A
        level is built on its first read, by one lex sort and one stable sort
        by value."""
        built = self._levels.get(k)
        if built is None:
            by_size = self.complex.by_size
            if not 1 <= k <= len(by_size):
                return ((), ())
            value = self.function.values.__getitem__
            simplices = sorted(by_size[k - 1])
            values = list(map(max, map(map, repeat(value), simplices)))
            by_value = sorted(range(len(values)), key=values.__getitem__)
            built = tuple(tuple(map(seq.__getitem__, by_value)) for seq in (simplices, values))
            self._levels[k] = built
        return built

    @cached_property
    def edges(self) -> tuple[tuple[float, int, int], ...]:
        """``(value, u, v)`` for every edge ``(u, v)``, in level order."""
        simplices, values = self.level(2)
        return tuple(zip(values, *zip(*simplices)))


def lower_star(complex: SimplicialComplex, f: VertexFunction) -> FilteredComplex:
    """Lower-star filtration: every simplex enters at the max of its vertices."""
    return FilteredComplex(complex, f)


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


def _facet_completion_order(complex: SimplicialComplex) -> tuple[list[int], list[list[Simplex]]]:
    """A vertex order that completes facets early, plus, per position, the
    facets whose vertices are all assigned exactly there.  Every vertex is a
    simplex, so some facet holds it."""
    facets = sorted(complex.facets, key=lambda s: (-len(s), s))
    order = list(dict.fromkeys(v for facet in facets for v in facet))
    position = {v: i for i, v in enumerate(order)}
    complete_at: list[list[Simplex]] = [[] for _ in order]
    for facet in facets:
        complete_at[max(position[v] for v in facet)].append(facet)
    return order, complete_at


def _each_simplicial_map(
    src: SimplicialComplex,
    dst: SimplicialComplex,
    visit: Callable[[list[int]], bool | None],
    closed: Callable[[list[Simplex], list[int], int, int], None] | None = None,
    allowed: Sequence[frozenset[int]] | None = None,
    injective: bool = False,
) -> bool:
    """Call ``visit`` with the vertex images of every simplicial map src -> dst,
    in depth-first order; the list is reused between calls.  A true return
    value of ``visit`` stops the enumeration, and then this returns True.

    Each facet is checked exactly once, when its last vertex v is assigned:
    v tries only the targets that complete the image of the facet's other
    vertices to a simplex (see _completions), intersected over the facets
    completed at v.  With ``allowed``, each vertex v also takes only targets
    in ``allowed[v]``; with ``injective``, no target that an earlier vertex
    took.

    The maps below one partial assignment get consecutive visit indices.
    If given, ``closed(facets, image, start, end)`` is called once the maps
    start..end-1 below an assignment have been visited, with the facets that
    assignment completed; all those maps send each of them where ``image``
    does.
    """
    if src.vertex_count == 0:
        return bool(visit([]))
    order, complete_at = _facet_completion_order(src)
    completions = _completions(dst)
    nothing: frozenset[int] = frozenset()
    anything = completions[nothing]
    starts = [anything if allowed is None else anything & allowed[v] for v in order]
    # per position, the other vertices of each facet completed there
    others = [
        [tuple(u for u in facet if u != v) for facet in facets]
        for v, facets in zip(order, complete_at)
    ]
    hooks = [facets if closed is not None and facets else None for facets in complete_at]
    image = [0] * src.vertex_count
    at = image.__getitem__
    last = len(order) - 1
    count = 0

    def extend(i: int) -> bool:
        nonlocal count
        v = order[i]
        candidates = starts[i]
        for rest in others[i]:
            candidates = candidates & completions.get(frozenset(map(at, rest)), nothing)
        if injective:
            candidates = candidates.difference(map(at, order[:i]))
        hook = hooks[i]
        for w in candidates:
            image[v] = w
            start = count
            if i == last:
                if visit(image):
                    return True
                count += 1
            elif extend(i + 1):
                return True
            if hook is not None and count > start:
                closed(hook, image, start, count)
        return False

    return extend(0)


def _completions(complex: SimplicialComplex) -> dict[frozenset[int], frozenset[int]]:
    """For each simplex A as a vertex set (the empty set included), the
    vertices w with A | {w} a simplex, the vertices of A included."""
    table: dict[frozenset[int], set[int]] = {frozenset(): set(range(complex.vertex_count))}
    for s in complex.simplices:
        span = frozenset(s)
        table.setdefault(span, set()).update(s)
        for w in s:
            table.setdefault(span - {w}, set()).add(w)
    return {a: frozenset(ws) for a, ws in table.items()}


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
    return _sweep([m.vertex_image for m in chain.maps], g.values)


def _sweep(images: Iterable[tuple[int, ...]], values: tuple[float, ...]) -> tuple[float, ...]:
    """Per source vertex, the max of ``values`` over that vertex's images in
    the given vertex-image tuples: homotopy_sup_control without the types."""
    return tuple(max(map(values.__getitem__, ws)) for ws in zip(*images))


# ---------------------------------------------------------------------------
# Text format: `n <count>`, one vertex value per line, then `s v0 v1 ...`
# lines (face closure applied on load).  '#' starts a comment.
# ---------------------------------------------------------------------------


def parse_instance(
    text: str, source: str = "<string>"
) -> tuple[SimplicialComplex, VertexFunction]:
    """Parse an instance file's text in whole-file passes.

    Text with a comment, a blank line or any fault is parsed again line by
    line, which raises ParseError naming the first faulty line.
    """
    try:
        return _parse_batched(text.splitlines())
    except ValueError:
        pass  # the line-by-line parser names the fault and its line
    return _parse_lines(text, source)


def _parse_batched(lines: list[str]) -> tuple[SimplicialComplex, VertexFunction]:
    """parse_instance for text without comments or blank lines, in passes
    over whole columns.  Raises ValueError, without saying why, on anything
    _parse_lines would reject or read differently: every token must read as
    the header's, a value, `s` or a vertex, so a `#` fails as a bad token."""
    header, *body = lines
    tag, count = header.split()
    n = int(count)
    # nothing sized by n before the value lines are counted
    values = tuple(map(float, body[:n]))
    rows = list(map(str.split, body[n:]))
    sizes = list(map(len, rows))
    if tag != "n" or len(values) != n or min(sizes, default=2) < 2:
        raise ValueError
    simplices: list[Simplex] = []
    for k in set(sizes):
        head, *cols = zip(*compress(rows, map(eq, sizes, repeat(k))))
        if head.count("s") != len(head):
            raise ValueError
        simplices.extend(zip(*map(map, repeat(int), cols)))
    # range, repeat and dimension cap: build_complex checks them by columns
    return build_complex(simplices, vertex_count=n), VertexFunction(values)


def _parse_lines(text: str, source: str) -> tuple[SimplicialComplex, VertexFunction]:
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
