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

A passing certificate is an UPPER bound witness.  The search finds none
when the mod-2 Betti numbers of X and Y differ, and the distance is then
infinite; any other failure means only that no certificate exists within
the chain budget.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from operator import itemgetter, or_
from pathlib import Path
from typing import Iterator

from .bottleneck import bottleneck_distance
from .common import (
    ParseError,
    SizeGuardExceeded,
    content_lines,
    eps_needed,
    float_ceil,
    fmt_value,
    parse_int,
    parse_value,
)
from .complexes import (
    ContiguityChain,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    VertexFunction,
    _each_simplicial_map,
    _require_fits,
    _sweep,
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


def dht_upper_bound(eps: float, control_factor: float) -> float:
    """The least float >= max(1, k/2)*eps: the bound on d_HT that a
    certificate at ``eps`` and control factor k witnesses.  The paper's
    homotopies sweep up to 2*eps; a certificate at k <= 2 passes at factor
    2 with the same eps, and one at k > 2 at (k/2)*eps."""
    if control_factor <= 2.0 or not 0.0 < eps < math.inf:
        return eps
    return float_ceil(Fraction(control_factor) * Fraction(eps) / 2)


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
        if eps_needed(g[cert.phi(v)], f[v]) > cert.eps:
            return CertificateCheck(
                False,
                "shift_phi",
                f"vertex {v}: g(phi(v)) = {g[cert.phi(v)]} exceeds f(v) + eps = {f[v]} + {cert.eps}",
            )
    for w in range(len(g)):
        if eps_needed(f[cert.psi(w)], g[w]) > cert.eps:
            return CertificateCheck(
                False,
                "shift_psi",
                f"vertex {w}: f(psi(w)) = {f[cert.psi(w)]} exceeds g(w) + eps = {g[w]} + {cert.eps}",
            )

    for v, bound in enumerate(homotopy_sup_control(cert.chain_x, f)):
        if eps_needed(bound, f[v], cert.control_factor) > cert.eps:
            return CertificateCheck(
                False,
                "control_x",
                f"vertex {v}: homotopy sweeps {bound} > f(v) + {cert.control_factor}*eps",
            )
    for w, bound in enumerate(homotopy_sup_control(cert.chain_y, g)):
        if eps_needed(bound, g[w], cert.control_factor) > cert.eps:
            return CertificateCheck(
                False,
                "control_y",
                f"vertex {w}: homotopy sweeps {bound} > g(w) + {cert.control_factor}*eps",
            )
    return CertificateCheck(True)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def enumerate_simplicial_maps(
    src: SimplicialComplex, dst: SimplicialComplex
) -> list[tuple[int, ...]]:
    """Vertex images of all simplicial maps src -> dst, sorted lexicographically."""
    found: list[tuple[int, ...]] = []
    _each_simplicial_map(src, dst, lambda image: found.append(tuple(image)))
    found.sort()
    return found


def _chains_to_identity(
    complex: SimplicialComplex, max_steps: int
) -> dict[tuple[int, ...], tuple[int, ...] | None]:
    """BFS from the identity in the contiguity graph of simplicial self-maps.

    Returns predecessor links: for each reachable map, the smallest map one
    step closer to the identity that it is contiguous to (None for the
    identity itself).  Reversing the links yields a shortest contiguity
    chain ending at the identity.

    The graph spans all self-maps at once, as bitmasks over their visit
    indices: per facet, the maps are grouped by image set, and each image
    set A gets the OR of the groups of every image set B with A | B a
    simplex.  A map's neighbours are the AND of those masks over its facets.
    Keying by image set, not by image tuple, keeps that table at (distinct
    sets)^2 entries.  A facet's image is fixed where the enumeration
    completes it, so each group is built from whole index ranges, one per
    such subtree.  The self-maps are kept as one flat array, and only
    reached ones become tuples.
    """
    n = complex.vertex_count
    ident = tuple(range(n))
    prev: dict[tuple[int, ...], tuple[int, ...] | None] = {ident: None}
    if max_steps == 0 or n == 0:
        return prev
    # per facet, the maps by image set, and the image tuple getter; the
    # repeated first vertex makes a one-vertex facet's image a tuple too
    by_set = {facet: ({}, itemgetter(*facet, facet[0])) for facet in complex.facets}
    # one frozenset per distinct image tuple: building it on every call
    # cost more than the rest of the hook
    as_set: dict[tuple[int, ...], frozenset[int]] = {}
    flat = array("I")

    def closed(facets: list[Simplex], image: list[int], start: int, end: int) -> None:
        bits = (1 << end) - (1 << start)  # bits start..end-1
        for facet in facets:
            groups, image_of = by_set[facet]
            t = image_of(image)
            a = as_set.get(t)
            if a is None:
                a = as_set[t] = frozenset(t)
            groups[a] = groups.get(a, 0) | bits

    _each_simplicial_map(complex, complex, flat.extend, closed)
    count = len(flat) // n
    spans = {frozenset(s) for s in complex.simplices}
    tables = [
        (facet, {
            a: reduce(or_, (mask for b, mask in groups.items() if (a | b) in spans), 0)
            for a in groups
        })
        for facet, (groups, _) in by_set.items()
    ]

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


def _chain_from(
    complex: SimplicialComplex,
    prev: dict[tuple[int, ...], tuple[int, ...] | None],
    start: tuple[int, ...],
) -> ContiguityChain:
    """The contiguity chain from ``start`` to the identity along BFS links."""
    return ContiguityChain(tuple(SimplicialMap(complex, complex, img) for img in _path(prev, start)))


def _path(
    prev: dict[tuple[int, ...], tuple[int, ...] | None], img: tuple[int, ...] | None
) -> Iterator[tuple[int, ...]]:
    """The image tuples from ``img`` to the identity along BFS links."""
    while img is not None:
        yield img
        img = prev[img]


def _control_eps(
    f: VertexFunction,
    prev: dict[tuple[int, ...], tuple[int, ...] | None],
    factor: float,
    memo: dict[tuple[int, ...], float],
    h: tuple[int, ...],
) -> float:
    """The least eps (at least 0) that the sweep of h's chain to the identity
    allows, by the checker's own inequality; memoised per h.  The sweep is
    read off the chain's image tuples by homotopy_sup_control's helper."""
    eps = memo.get(h)
    if eps is None:
        bounds = _sweep(_path(prev, h), f.values)
        eps = memo[h] = max([0.0, *map(eps_needed, bounds, f.values, repeat(factor))])
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
    if len(section) == len(slots):  # no two vertices share a slot
        return section, list(reach)
    # h must agree with h at the first vertex of each one's fibre
    first = itemgetter(*map(section.__getitem__, slots))
    return section, [h for h in reach if first(h) == h]


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
    taken from the helper of homotopy_sup_control (the checker's own
    function) once per distinct round trip.  Returns the minimum over all pairs and the
    witnessing certificate, choosing the lexicographically smallest
    (phi, psi) among minimizers; (inf, None) when no round trip reaches the
    identity within the chain budget.

    A certificate makes X and Y homotopy equivalent, so when their mod-2
    Betti numbers differ no certificate exists, and (inf, None) is returned
    before any map is enumerated.

    The pairs come from a join, not the full product: a reachable round
    trip psi.phi fixes psi on image(phi), so the candidates for psi are
    looked up by their restriction to that set.  Both sides are scanned in
    order of their shift, so the join stops once a shift passes the best
    eps found so far.

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
    top = max(X.dim, Y.dim, 0)
    betti_x, betti_y = (
        [d.infinite_count() for d in compute_diagrams(lower_star(K, h), top)]
        for K, h in ((X, f), (Y, g))
    )
    if betti_x != betti_y:
        return math.inf, None
    maps_xy = enumerate_simplicial_maps(X, Y)
    maps_yx = enumerate_simplicial_maps(Y, X)
    reach_x = _chains_to_identity(X, max_chain_len - 1)
    reach_y = _chains_to_identity(Y, max_chain_len - 1)
    # up_xy[v][w]: the least eps with g(w) <= f(v) + eps, as the checker decides it
    up_xy = [[eps_needed(y, x) for y in g] for x in f]
    up_yx = [[eps_needed(x, y) for x in f] for y in g]
    shift_xy = {phi: max([0.0, *map(list.__getitem__, up_xy, phi)]) for phi in maps_xy}
    shift_yx = {psi: max([0.0, *map(list.__getitem__, up_yx, psi)]) for psi in maps_yx}
    control_x = partial(_control_eps, f, reach_x, control_factor, {})
    control_y = partial(_control_eps, g, reach_y, control_factor, {})
    # An outer map a and a reachable round trip b.a = h pin the inner map b
    # on image(a), so b is looked up by that restriction instead of tried
    # against each a.  The outer side is the one with fewer reachable round
    # trips; the result does not depend on the choice.  Outer maps are taken
    # one image set at a time, so one restriction index is alive at a time,
    # and it is built only once a map with that image passes the shift bound
    # and has a round trip to look up.
    sides = [(maps_xy, shift_xy, reach_x, control_x), (maps_yx, shift_yx, reach_y, control_y)]
    flip = len(reach_y) < len(reach_x)
    (outer, shift_o, reach_o, control_o), (inner, shift_i, reach_i, control_i) = (
        sides[::-1] if flip else sides
    )
    # Both sides in shift order: the image groups come in order of their
    # least shift, and every restriction bucket is in shift order too.
    outer = sorted(outer, key=shift_o.__getitem__)
    inner = sorted(inner, key=shift_i.__getitem__)
    by_image: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a in outer:
        by_image.setdefault(tuple(sorted(set(a))), []).append(a)
    pinned: dict[tuple[int, ...], tuple[list[int], list[tuple[int, ...]]]] = {}

    # A pair's eps is the max of its two shifts and its two control eps, so
    # the skips below drop only pairs whose eps is above the best so far;
    # ties fall through to the (phi, psi) order.  The bound only falls, so
    # each break also drops everything after it in shift order.
    best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
    bound = math.inf
    for image, group in by_image.items():
        if shift_o[group[0]] > bound:
            break
        by_restriction: dict[tuple[int, ...], list[tuple[int, ...]]] | None = None
        for a in group:
            if shift_o[a] > bound:
                break
            slots = tuple(map(image.index, a))
            if slots not in pinned:
                pinned[slots] = _factor_through(slots, reach_o)
            section, trips = pinned[slots]
            if not trips:
                continue
            if by_restriction is None:
                by_restriction = {}
                for b in inner:
                    if shift_i[b] > bound:
                        break
                    by_restriction.setdefault(tuple(map(b.__getitem__, image)), []).append(b)
            for h_o in trips:
                partners = by_restriction.get(tuple(map(h_o.__getitem__, section)))
                if partners is None:
                    continue
                c_o = control_o(h_o)
                if c_o > bound:
                    continue
                for b in partners:
                    if shift_i[b] > bound:
                        break
                    h_i = tuple(map(a.__getitem__, b))
                    if h_i not in reach_i:
                        continue
                    eps = max(shift_o[a], shift_i[b], c_o, control_i(h_i))
                    key = (eps, b, a) if flip else (eps, a, b)
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
    bound: float
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
    """Check d_B <= the certified bound on d_HT (dht_upper_bound of the
    certificate's eps and control factor) in every degree up to max_degree,
    on the lower-star diagrams of f and g.

    Refuses to run on a failing certificate.  A violation is reported in the
    result (it would falsify the stability theorem, i.e. reveal a bug), not
    raised.
    """
    result = check_certificate(X, f, Y, g, cert)
    if not result.ok:
        raise ValueError(
            f"refusing to verify stability with a failing certificate ({result.condition})"
        )
    bound = dht_upper_bound(cert.eps, cert.control_factor)
    dx = compute_diagrams(lower_star(X, f), max_degree)
    dy = compute_diagrams(lower_star(Y, g), max_degree)
    entries = []
    for k in range(max_degree + 1):
        db, _ = bottleneck_distance(dx[k], dy[k])
        entries.append(StabilityEntry(k, db, bound - db, db <= bound))
    return StabilityReport(bound, tuple(entries), all(e.ok for e in entries))


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
    grow).  The shifted values are rounded, so the up-shift is checked at
    `up_eps`, the least float >= eps + lift, where lift is the largest
    rise g.shifted(delta) - g rounded up.  Lowering g by delta and keeping
    eps may or may not pass; the probe records the observation either way.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    result = check_certificate(X, f, Y, g, cert)
    if not result.ok:
        raise ValueError(f"probe needs a valid certificate ({result.condition})")
    up_g = g.shifted(delta)
    lift = max(map(eps_needed, up_g, g), default=0.0)
    up_eps = eps_needed(cert.eps, -lift)
    up = check_certificate(X, f, Y, up_g, replace(cert, eps=up_eps))
    down = check_certificate(X, f, Y, g.shifted(-delta), cert)
    return ProbeReport(delta, up_eps, up, down)


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
