"""Certificates bounding the homotopy-type shift between two vertex functions.

A certificate (phi, psi, eps, two contiguity chains) witnesses that the
sublevel filtrations of f on X and g on Y are homotopy equivalent up to an
eps shift: phi and psi raise values by at most eps at every vertex, the
chains certify psi.phi ~ id_X and phi.psi ~ id_Y, and the values swept by
those discrete homotopies stay within a controlled multiple of eps.

Every entry point takes the complexes and their vertex functions, so the
filtration is the lower star of f and of g by definition.  There, checking
the shift inequalities at vertices is enough: the value of a simplex is the
max over its vertices, and max commutes with a uniform shift, so every
simplex-level inequality follows from the vertex-level ones.

A passing certificate is an UPPER bound witness; failure of the search to
find one never means the distance is infinite.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import partial, reduce
from operator import itemgetter, or_, sub
from pathlib import Path
from typing import Callable

from .bottleneck import bottleneck_distance
from .common import ParseError, SizeGuardExceeded, content_lines, fmt_value, parse_int, parse_value
from .complexes import (
    ContiguityChain,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    VertexFunction,
    _require_fits,
    check_contiguity_chain,
    check_simplicial,
    compose,
    homotopy_sup_control,
    identity_map,
    lower_star,
)
from .persistence import compute_diagrams

DEFAULT_CONTROL_FACTOR = 2.0
DEFAULT_MAX_CHAIN_LEN = 4
SEARCH_VERTEX_GUARD = 6
STABILITY_TOLERANCE = 1e-9

#: names of the checkable certificate conditions, in evaluation order
CONDITIONS = (
    "phi_not_simplicial",
    "psi_not_simplicial",
    "chain_x_invalid",
    "chain_y_invalid",
    "chain_x_endpoints",
    "chain_y_endpoints",
    "shift_phi",
    "shift_psi",
    "control_x",
    "control_y",
)


def _require_control_factor(factor: float) -> None:
    if not factor > 0 or math.isinf(factor):
        raise ValueError("control_factor must be positive and finite")


@dataclass(frozen=True)
class ShiftCertificate:
    """Witness that an eps shift makes the sublevel filtrations of two vertex
    functions homotopy equivalent in the certified sense; see check_certificate."""

    phi: SimplicialMap
    psi: SimplicialMap
    eps: float
    chain_x: ContiguityChain
    chain_y: ContiguityChain
    control_factor: float = DEFAULT_CONTROL_FACTOR

    def __post_init__(self) -> None:
        if math.isnan(self.eps) or math.isinf(self.eps) or self.eps < 0:
            raise ValueError("eps must be finite and non-negative")
        _require_control_factor(self.control_factor)
        if self.phi.source != self.psi.target or self.phi.target != self.psi.source:
            raise ValueError("phi and psi must be mutually inverse in shape")
        if self.chain_x.source != self.phi.source or self.chain_x.target != self.phi.source:
            raise ValueError("chain_x must consist of self-maps of phi's source")
        if self.chain_y.source != self.phi.target or self.chain_y.target != self.phi.target:
            raise ValueError("chain_y must consist of self-maps of phi's target")


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    condition: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_certificate(
    X: SimplicialComplex,
    f: VertexFunction,
    Y: SimplicialComplex,
    g: VertexFunction,
    cert: ShiftCertificate,
) -> CertificateCheck:
    """Validate every certificate condition for f on X and g on Y; report the
    first violated one.

    Structural mismatches (a function of the wrong length, or maps not
    between these complexes) raise; semantic failures come back as a named
    condition so corrupted certificates can be rejected with a precise reason.
    """
    _require_fits(X, f)
    _require_fits(Y, g)
    if cert.phi.source != X or cert.phi.target != Y:
        raise ValueError("certificate endpoints do not match the complexes")

    if not check_simplicial(cert.phi):
        return CertificateCheck(False, "phi_not_simplicial", "phi maps some simplex outside the target")
    if not check_simplicial(cert.psi):
        return CertificateCheck(False, "psi_not_simplicial", "psi maps some simplex outside the target")
    if not check_contiguity_chain(cert.chain_x):
        return CertificateCheck(False, "chain_x_invalid", "chain_x is not a contiguity chain")
    if not check_contiguity_chain(cert.chain_y):
        return CertificateCheck(False, "chain_y_invalid", "chain_y is not a contiguity chain")

    psi_phi = compose(cert.psi, cert.phi)
    if (
        cert.chain_x.maps[0].vertex_image != psi_phi.vertex_image
        or cert.chain_x.maps[-1].vertex_image != identity_map(X).vertex_image
    ):
        return CertificateCheck(
            False, "chain_x_endpoints", "chain_x must run from psi.phi to the identity"
        )
    phi_psi = compose(cert.phi, cert.psi)
    if (
        cert.chain_y.maps[0].vertex_image != phi_psi.vertex_image
        or cert.chain_y.maps[-1].vertex_image != identity_map(Y).vertex_image
    ):
        return CertificateCheck(
            False, "chain_y_endpoints", "chain_y must run from phi.psi to the identity"
        )

    for v in range(len(f)):
        if g[cert.phi(v)] - f[v] > cert.eps:
            return CertificateCheck(
                False,
                "shift_phi",
                f"vertex {v}: g(phi(v)) = {g[cert.phi(v)]} exceeds f(v) + eps = {f[v]} + {cert.eps}",
            )
    for w in range(len(g)):
        if f[cert.psi(w)] - g[w] > cert.eps:
            return CertificateCheck(
                False,
                "shift_psi",
                f"vertex {w}: f(psi(w)) = {f[cert.psi(w)]} exceeds g(w) + eps = {g[w]} + {cert.eps}",
            )

    allowance = cert.control_factor * cert.eps
    for v, bound in enumerate(homotopy_sup_control(cert.chain_x, f)):
        if bound - f[v] > allowance:
            return CertificateCheck(
                False,
                "control_x",
                f"vertex {v}: homotopy sweeps {bound} > f(v) + {cert.control_factor}*eps",
            )
    for w, bound in enumerate(homotopy_sup_control(cert.chain_y, g)):
        if bound - g[w] > allowance:
            return CertificateCheck(
                False,
                "control_y",
                f"vertex {w}: homotopy sweeps {bound} > g(w) + {cert.control_factor}*eps",
            )
    return CertificateCheck(True)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _facet_completion_order(complex: SimplicialComplex) -> tuple[list[int], list[list[Simplex]]]:
    """A vertex order that completes facets early, plus, per position, the
    facets whose vertices are all assigned exactly there."""
    order: list[int] = []
    seen: set[int] = set()
    facets = sorted(complex.facets, key=lambda s: (-len(s), s))
    for facet in facets:
        for v in facet:
            if v not in seen:
                seen.add(v)
                order.append(v)
    for v in range(complex.vertex_count):
        if v not in seen:
            order.append(v)
    position = {v: i for i, v in enumerate(order)}
    complete_at: list[list[Simplex]] = [[] for _ in order]
    for facet in facets:
        complete_at[max(position[v] for v in facet)].append(facet)
    return order, complete_at


def enumerate_simplicial_maps(
    src: SimplicialComplex, dst: SimplicialComplex
) -> list[tuple[int, ...]]:
    """Vertex images of all simplicial maps src -> dst, sorted lexicographically."""
    found: list[tuple[int, ...]] = []
    _each_simplicial_map(src, dst, lambda image: found.append(tuple(image)))
    found.sort()
    return found


def _each_simplicial_map(
    src: SimplicialComplex, dst: SimplicialComplex, visit: Callable[[list[int]], None]
) -> None:
    """Call ``visit`` with the vertex images of every simplicial map src -> dst,
    in no particular order; the list is reused between calls.

    Each facet is checked exactly once, when its last vertex is assigned.
    """
    if src.vertex_count == 0:
        visit([])
        return
    if dst.vertex_count == 0:
        return
    order, complete_at = _facet_completion_order(src)
    spans = _spans(dst)
    # a single vertex always maps to a simplex
    checks = [[facet for facet in facets if len(facet) > 1] for facets in complete_at]
    targets = range(dst.vertex_count)
    image = [0] * src.vertex_count
    at = image.__getitem__

    def extend(i: int) -> None:
        if i == len(order):
            visit(image)
            return
        v = order[i]
        facets = checks[i]
        for w in targets:
            image[v] = w
            for facet in facets:
                if frozenset(map(at, facet)) not in spans:
                    break
            else:
                extend(i + 1)

    extend(0)


def _spans(complex: SimplicialComplex) -> set[frozenset[int]]:
    """The simplices of the complex as vertex sets."""
    return {frozenset(s) for s in complex.simplices}


def _chains_to_identity(
    complex: SimplicialComplex, max_steps: int
) -> dict[tuple[int, ...], tuple[int, ...] | None]:
    """BFS from the identity in the contiguity graph of simplicial self-maps.

    Returns predecessor links: for each reachable map, the smallest map one
    step closer to the identity that it is contiguous to (None for the
    identity itself).  Reversing the links yields a shortest contiguity
    chain ending at the identity.

    The graph spans all self-maps at once, as bitmasks over their indices:
    per facet, the maps are grouped by image set, and each image set A gets
    the OR of the groups of every image set B with A | B a simplex.  A map's
    neighbours are the AND of those masks over its facets.  Keying by image
    set, not by image tuple, keeps that table at (distinct sets)^2 entries.
    The self-maps are kept as one flat array, and only reached ones become
    tuples.
    """
    n = complex.vertex_count
    ident = tuple(range(n))
    prev: dict[tuple[int, ...], tuple[int, ...] | None] = {ident: None}
    if max_steps == 0 or n == 0:
        return prev
    facets = complex.facets
    # the repeated first vertex makes a one-vertex facet's image a tuple too
    images_of = [itemgetter(*facet, facet[0]) for facet in facets]
    by_tuple: list[dict[tuple[int, ...], array[int]]] = [{} for _ in facets]
    flat = array("I")

    def record(image: list[int]) -> None:
        i = len(flat) // n
        flat.extend(image)
        for image_of, groups in zip(images_of, by_tuple):
            groups.setdefault(image_of(image), array("I")).append(i)

    _each_simplicial_map(complex, complex, record)
    count = len(flat) // n
    spans = _spans(complex)
    tables = []
    for facet, groups in zip(facets, by_tuple):
        members: dict[frozenset[int], array[int]] = {}
        for image, indices in groups.items():
            members.setdefault(frozenset(image), array("I")).extend(indices)
        masks = {a: _bitmask(indices, count) for a, indices in members.items()}
        tables.append((facet, {
            a: reduce(or_, (mask for b, mask in masks.items() if (a | b) in spans), 0)
            for a in masks
        }))

    every = (1 << count) - 1
    seen = 0
    frontier = [ident]
    for _ in range(max_steps):
        new: list[tuple[int, ...]] = []
        for m in sorted(frontier):
            fresh = every
            for facet, joins in tables:
                fresh &= joins[frozenset(map(m.__getitem__, facet))]
            fresh &= ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                j = low.bit_length() - 1
                nb = tuple(flat[j * n : (j + 1) * n])
                if nb not in prev:  # the identity's bit is not in seen at first
                    prev[nb] = m
                    new.append(nb)
                fresh ^= low
        if not new:
            break
        frontier = new
    return prev


def _bitmask(indices: array[int], size: int) -> int:
    """The int with bit i set for every i in ``indices``."""
    bits = bytearray((size + 7) // 8)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _chain_from(
    complex: SimplicialComplex,
    prev: dict[tuple[int, ...], tuple[int, ...] | None],
    start: tuple[int, ...],
) -> ContiguityChain:
    """The contiguity chain from ``start`` to the identity along BFS links."""
    maps: list[SimplicialMap] = []
    img: tuple[int, ...] | None = start
    while img is not None:
        maps.append(SimplicialMap(complex, complex, img))
        img = prev[img]
    return ContiguityChain(tuple(maps))


def _control_excess(
    complex: SimplicialComplex,
    f: VertexFunction,
    prev: dict[tuple[int, ...], tuple[int, ...] | None],
    memo: dict[tuple[int, ...], tuple[float, ...]],
    h: tuple[int, ...],
) -> tuple[float, ...]:
    """Per vertex: the value swept by h's chain to the identity minus the
    vertex's own value, as check_certificate computes it; memoised per h."""
    excess = memo.get(h)
    if excess is None:
        bounds = homotopy_sup_control(_chain_from(complex, prev, h), f)
        excess = memo[h] = tuple(map(sub, bounds, f.values))
    return excess


def _min_eps(shift: float, control_excess: tuple[float, ...], factor: float) -> float:
    """Least eps >= shift (the largest shift diff, at least 0) with every
    excess <= factor*eps, exactly as the checker will recompute them."""
    eps = shift
    for d in control_excess:
        if d <= factor * eps:
            continue
        e = d / factor
        while factor * e < d:  # guard against a downward-rounded quotient
            e = math.nextafter(e, math.inf)
        if e > eps:
            eps = e
    return eps


def _factor_through(
    slots: tuple[int, ...], reach: dict[tuple[int, ...], tuple[int, ...] | None]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The maps h in ``reach`` of the form h(v) = r[slots[v]], and a section
    that reads r off such an h as tuple(h[u] for u in section).

    For a(v) = image[slots[v]], b.a = h holds exactly when b takes the
    values r on image; r exists only when h is constant on every fibre of a
    (the vertices that share a slot).
    """
    section = [slots.index(k) for k in range(len(set(slots)))]
    trips = []
    for h in reach:
        restriction = tuple(map(h.__getitem__, section))
        if tuple(map(restriction.__getitem__, slots)) == h:
            trips.append(h)
    return section, trips


def search_certificate(
    X: SimplicialComplex,
    f: VertexFunction,
    Y: SimplicialComplex,
    g: VertexFunction,
    max_chain_len: int = DEFAULT_MAX_CHAIN_LEN,
    control_factor: float = DEFAULT_CONTROL_FACTOR,
) -> tuple[float, ShiftCertificate | None]:
    """Search simplicial map pairs X <-> Y and certify the best shift found
    for f on X and g on Y.

    For every simplicial pair (phi, psi) whose round trips reach the identity
    in the contiguity graph within max_chain_len maps, the least certified
    eps is a closed-form max of shift and control violations.  The control
    side is the sweep of each round trip's shortest chain to the identity,
    taken from homotopy_sup_control (the checker's own function) once per
    distinct round trip.  Returns the minimum over all pairs and the
    witnessing certificate, choosing the lexicographically smallest
    (phi, psi) among minimizers; (inf, None) when no round trip reaches the
    identity within the chain budget.

    The pairs come from a join, not the full product: a reachable round
    trip psi.phi fixes psi on image(phi), so the candidates for psi are
    looked up by their restriction to that set.

    The witness is run through check_certificate before it is returned; a
    failure there is a bug in the search and raises AssertionError.
    """
    if max_chain_len < 1:
        raise ValueError("max_chain_len must be at least 1")
    _require_control_factor(control_factor)
    _require_fits(X, f)
    _require_fits(Y, g)
    if X.vertex_count > SEARCH_VERTEX_GUARD or Y.vertex_count > SEARCH_VERTEX_GUARD:
        raise SizeGuardExceeded(
            f"certificate search limited to {SEARCH_VERTEX_GUARD} vertices per side"
        )
    maps_xy = enumerate_simplicial_maps(X, Y)
    maps_yx = enumerate_simplicial_maps(Y, X)
    if not maps_xy or not maps_yx:
        return math.inf, None
    reach_x = _chains_to_identity(X, max_chain_len - 1)
    reach_y = _chains_to_identity(Y, max_chain_len - 1)
    shift_xy = {phi: max([0.0, *(g[w] - f[v] for v, w in enumerate(phi))]) for phi in maps_xy}
    shift_yx = {psi: max([0.0, *(f[v] - g[w] for w, v in enumerate(psi))]) for psi in maps_yx}
    excess_x = partial(_control_excess, X, f, reach_x, {})
    excess_y = partial(_control_excess, Y, g, reach_y, {})
    # An outer map a and a reachable round trip b.a = h pin the inner map b
    # on image(a), so b is looked up by that restriction instead of tried
    # against each a.  The outer side is the one with fewer reachable round
    # trips; the result does not depend on the choice.  Outer maps are taken
    # one image set at a time, so one restriction index is alive at a time.
    sides = [(maps_xy, shift_xy, reach_x, excess_x), (maps_yx, shift_yx, reach_y, excess_y)]
    flip = len(reach_y) < len(reach_x)
    (outer, shift_o, reach_o, excess_o), (inner, shift_i, reach_i, excess_i) = (
        sides[::-1] if flip else sides
    )
    by_image: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a in outer:
        by_image.setdefault(tuple(sorted(set(a))), []).append(a)
    pinned: dict[tuple[int, ...], tuple[list[int], list[tuple[int, ...]]]] = {}

    # A pair's eps is at least both shifts, and control_factor * eps is at
    # least every excess, so the skips below drop only pairs whose eps is
    # above the best so far; ties fall through to the (phi, psi) order.
    best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
    bound = math.inf
    for image, group in by_image.items():
        by_restriction: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for b in inner:
            by_restriction.setdefault(tuple(map(b.__getitem__, image)), []).append(b)
        for a in group:
            if shift_o[a] > bound:
                continue
            slots = tuple(map(image.index, a))
            if slots not in pinned:
                pinned[slots] = _factor_through(slots, reach_o)
            section, trips = pinned[slots]
            for h_o in trips:
                partners = by_restriction.get(tuple(map(h_o.__getitem__, section)))
                if partners is None:
                    continue
                e_o = excess_o(h_o)
                if control_factor * bound < max(e_o, default=0.0):
                    continue
                for b in partners:
                    if shift_i[b] > bound:
                        continue
                    h_i = tuple(map(a.__getitem__, b))
                    if h_i not in reach_i:
                        continue
                    e_i = excess_i(h_i)
                    phi, psi, ex, ey = (b, a, e_i, e_o) if flip else (a, b, e_o, e_i)
                    eps = _min_eps(max(shift_o[a], shift_i[b]), ex + ey, control_factor)
                    key = (eps, phi, psi)
                    if best is None or key < best:
                        best = key
                        bound = eps
    if best is None:
        return math.inf, None

    eps, phi, psi = best
    cert = ShiftCertificate(
        SimplicialMap(X, Y, phi),
        SimplicialMap(Y, X, psi),
        eps,
        _chain_from(X, reach_x, tuple(psi[w] for w in phi)),
        _chain_from(Y, reach_y, tuple(phi[v] for v in psi)),
        control_factor,
    )
    outcome = check_certificate(X, f, Y, g, cert)
    if not outcome.ok:
        raise AssertionError(
            f"search built a certificate that fails {outcome.condition}: {outcome.detail}"
        )
    return eps, cert


# ---------------------------------------------------------------------------
# Stability and the shift-direction probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityEntry:
    degree: int
    bottleneck: float
    slack: float
    ok: bool


@dataclass(frozen=True)
class StabilityReport:
    eps: float
    entries: tuple[StabilityEntry, ...]
    ok: bool


def verify_stability(
    X: SimplicialComplex,
    f: VertexFunction,
    Y: SimplicialComplex,
    g: VertexFunction,
    cert: ShiftCertificate,
    max_degree: int = 2,
) -> StabilityReport:
    """Check d_B <= certified eps in every degree up to max_degree, on the
    lower-star diagrams of f and g.

    Refuses to run on a failing certificate.  A violation is reported in the
    result (it would falsify the stability theorem, i.e. reveal a bug), not
    raised.
    """
    result = check_certificate(X, f, Y, g, cert)
    if not result.ok:
        raise ValueError(
            f"refusing to verify stability with a failing certificate ({result.condition})"
        )
    dx = compute_diagrams(lower_star(X, f), max_degree)
    dy = compute_diagrams(lower_star(Y, g), max_degree)
    entries = []
    for k in range(max_degree + 1):
        db, _ = bottleneck_distance(dx[k], dy[k])
        entries.append(
            StabilityEntry(k, db, cert.eps - db, db <= cert.eps + STABILITY_TOLERANCE)
        )
    return StabilityReport(cert.eps, tuple(entries), all(e.ok for e in entries))


@dataclass(frozen=True)
class ProbeReport:
    delta: float
    up_eps: float
    up: CertificateCheck
    down: CertificateCheck


def upshift_asymmetry_probe(
    X: SimplicialComplex,
    f: VertexFunction,
    Y: SimplicialComplex,
    g: VertexFunction,
    cert: ShiftCertificate,
    delta: float,
) -> ProbeReport:
    """Re-check the same maps after shifting g by +delta and by -delta.

    Raising g by delta must re-certify at eps + delta (one shift condition
    relaxes, the other tightens by exactly delta, control allowances only
    grow).  Lowering g by delta and keeping eps may or may not pass; the
    probe records the observation either way.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    result = check_certificate(X, f, Y, g, cert)
    if not result.ok:
        raise ValueError(f"probe needs a valid certificate ({result.condition})")
    up = check_certificate(X, f, Y, g.shifted(delta), replace(cert, eps=cert.eps + delta))
    down = check_certificate(X, f, Y, g.shifted(-delta), cert)
    return ProbeReport(delta, cert.eps + delta, up, down)


# ---------------------------------------------------------------------------
# Certificate text format
# ---------------------------------------------------------------------------


def format_certificate(cert: ShiftCertificate) -> str:
    out = [f"eps {fmt_value(cert.eps)}", f"factor {fmt_value(cert.control_factor)}"]
    out.append("phi " + " ".join(str(w) for w in cert.phi.vertex_image))
    out.append("psi " + " ".join(str(v) for v in cert.psi.vertex_image))
    out.append(f"chainx {len(cert.chain_x)}")
    out.extend(" ".join(str(w) for w in m.vertex_image) for m in cert.chain_x.maps)
    out.append(f"chainy {len(cert.chain_y)}")
    out.extend(" ".join(str(w) for w in m.vertex_image) for m in cert.chain_y.maps)
    return "\n".join(out) + "\n"


def parse_certificate(
    text: str,
    X: SimplicialComplex,
    Y: SimplicialComplex,
    source: str = "<string>",
) -> ShiftCertificate:
    eps: float | None = None
    factor = DEFAULT_CONTROL_FACTOR
    phi_img: tuple[int, ...] | None = None
    psi_img: tuple[int, ...] | None = None
    chains: dict[str, list[tuple[int, ...]]] = {}
    pending: tuple[str, int] | None = None  # (chain name, maps still expected)

    for lineno, tokens in content_lines(text):
        if pending is not None:
            name, left = pending
            chains[name].append(
                tuple(parse_int(t, source, lineno) for t in tokens)
            )
            pending = (name, left - 1) if left > 1 else None
            continue
        key = tokens[0]
        if key == "eps" and len(tokens) == 2:
            eps = parse_value(tokens[1], source, lineno)
        elif key == "factor" and len(tokens) == 2:
            factor = parse_value(tokens[1], source, lineno)
        elif key == "phi":
            phi_img = tuple(parse_int(t, source, lineno) for t in tokens[1:])
        elif key == "psi":
            psi_img = tuple(parse_int(t, source, lineno) for t in tokens[1:])
        elif key in ("chainx", "chainy") and len(tokens) == 2:
            count = parse_int(tokens[1], source, lineno)
            if count < 1:
                raise ParseError(source, lineno, "a chain needs at least one map")
            chains[key] = []
            pending = (key, count)
        else:
            raise ParseError(source, lineno, f"unrecognized certificate line {key!r}")

    if pending is not None:
        raise ParseError(source, 1, f"truncated {pending[0]} section")
    missing = [
        name
        for name, val in (
            ("eps", eps),
            ("phi", phi_img),
            ("psi", psi_img),
            ("chainx", chains.get("chainx")),
            ("chainy", chains.get("chainy")),
        )
        if val is None
    ]
    if missing:
        raise ParseError(source, 1, f"missing certificate sections: {', '.join(missing)}")

    try:
        return ShiftCertificate(
            SimplicialMap(X, Y, phi_img),
            SimplicialMap(Y, X, psi_img),
            eps,
            ContiguityChain(tuple(SimplicialMap(X, X, img) for img in chains["chainx"])),
            ContiguityChain(tuple(SimplicialMap(Y, Y, img) for img in chains["chainy"])),
            factor,
        )
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def load_certificate(
    path: str | Path, X: SimplicialComplex, Y: SimplicialComplex
) -> ShiftCertificate:
    p = Path(path)
    return parse_certificate(p.read_text(encoding="utf-8"), X, Y, source=str(p))


def save_certificate(path: str | Path, cert: ShiftCertificate) -> None:
    Path(path).write_text(format_certificate(cert), encoding="utf-8")
