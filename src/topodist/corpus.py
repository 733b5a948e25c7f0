"""Corpus driver: run every distance and every cross-check on a directory of
instance pairs.

A corpus directory holds one subdirectory per pair, each with ``x.txt`` and
``y.txt`` (complex + function files), an optional ``cert.txt`` (a shift
certificate for the pair), and an optional ``expect.tsv`` sidecar of frozen
``name<TAB>value`` lines checked against the recomputed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .bottleneck import (
    bottleneck_bruteforce,
    bottleneck_distance,
    linf_distance,
    natural_pseudo_upper,
)
from .certify import (
    DEFAULT_CONTROL_FACTOR,
    check_certificate,
    dht_upper_bound,
    load_certificate,
    search_certificate,
    upshift_asymmetry_probe,
    verify_stability,
)
from .common import ParseError, SizeGuardExceeded, content_lines, parse_value
from .complexes import load_instance, lower_star
from .mergetree import build_merge_tree, diagram_from_tree, interleaving_distance
from .persistence import compute_diagrams, h0_diagram_unionfind

PROBE_DELTAS = (0.25, 1.0)


@dataclass(frozen=True)
class InstancePair:
    """Paths making up one corpus entry; certificate and sidecar optional."""

    name: str
    path_x: Path
    path_y: Path
    certificate: Path | None = None
    expected: Path | None = None

    @classmethod
    def from_directory(cls, directory: Path) -> "InstancePair":
        cert = directory / "cert.txt"
        expect = directory / "expect.tsv"
        return cls(
            directory.name,
            directory / "x.txt",
            directory / "y.txt",
            cert if cert.exists() else None,
            expect if expect.exists() else None,
        )


@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PairResult:
    name: str
    values: dict[str, float] = field(default_factory=dict)
    checks: list[CheckRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


@dataclass
class CorpusReport:
    pairs: list[PairResult]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    @property
    def stability_falsified(self) -> bool:
        return any(
            c.name.startswith("stability") and not c.ok
            for p in self.pairs
            for c in p.checks
        )


def _load_expected(path: Path) -> dict[str, float]:
    expected: dict[str, float] = {}
    for lineno, tokens in content_lines(path.read_text(encoding="utf-8")):
        if len(tokens) != 2:
            raise ParseError(str(path), lineno, "expected `name<TAB>value`")
        expected[tokens[0]] = parse_value(tokens[1], str(path), lineno)
    return expected


def run_pair(pair: InstancePair | Path | str) -> PairResult:
    if not isinstance(pair, InstancePair):
        pair = InstancePair.from_directory(Path(pair))
    result = PairResult(pair.name)
    checks = result.checks
    values = result.values

    def leq(name: str, a: float, b: float, label_a: str, label_b: str) -> None:
        """One row of the inequality chain: a <= b."""
        detail = f"{label_a} {a} <= {label_b} {b}"
        checks.append(CheckRow(name, a <= b, detail))

    X, f = load_instance(pair.path_x)
    Y, g = load_instance(pair.path_y)
    fx, fy = lower_star(X, f), lower_star(Y, g)
    kmax = max(X.dim, Y.dim, 0)

    dx = compute_diagrams(fx, kmax)
    dy = compute_diagrams(fy, kmax)
    h0x, h0y = h0_diagram_unionfind(fx), h0_diagram_unionfind(fy)
    checks.append(CheckRow("h0_oracle_x", dx[0] == h0x, "reduction vs union-find"))
    checks.append(CheckRow("h0_oracle_y", dy[0] == h0y, "reduction vs union-find"))

    bottlenecks: list[float] = []
    for k in range(kmax + 1):
        db, _ = bottleneck_distance(dx[k], dy[k])
        bottlenecks.append(db)
        values[f"bottleneck{k}"] = db
        try:
            bf = bottleneck_bruteforce(dx[k], dy[k])
        except SizeGuardExceeded:
            continue
        checks.append(
            CheckRow(f"bottleneck_oracle{k}", db == bf, f"matching {db} vs brute force {bf}")
        )

    try:
        values["np_upper"] = natural_pseudo_upper(X, f, Y, g)
    except SizeGuardExceeded:
        result.notes.append("np_upper skipped: enumeration guard")

    same_domain = X == Y
    if same_domain:
        values["linf"] = linf_distance(f, g)

    connected = dx[0].infinite_count() == 1 and dy[0].infinite_count() == 1
    if connected:
        tx, ty = build_merge_tree(fx), build_merge_tree(fy)
        checks.append(CheckRow("tree_h0_x", diagram_from_tree(tx) == h0x))
        checks.append(CheckRow("tree_h0_y", diagram_from_tree(ty) == h0y))
        inter = interleaving_distance(tx, ty)
        if inter.exact:
            values["interleaving"] = inter.upper
            leq("interleave_above_db", bottlenecks[0], inter.upper, "bottleneck0", "interleaving")
            if same_domain:
                leq("interleave_below_linf", inter.upper, values["linf"], "interleaving", "linf")

    dht_upper = math.inf
    if pair.certificate is not None:
        cert = load_certificate(pair.certificate, X, Y)
        outcome = check_certificate(X, f, Y, g, cert)
        checks.append(
            CheckRow("cert_valid", outcome.ok, outcome.condition or "all conditions hold")
        )
        if outcome.ok:
            dht_upper = dht_upper_bound(cert.eps, cert.control_factor)
            report = verify_stability(X, f, Y, g, cert, max_degree=kmax)
            for entry in report.entries:
                checks.append(
                    CheckRow(
                        f"stability{entry.degree}",
                        entry.ok,
                        f"bottleneck {entry.bottleneck} <= bound {report.bound}",
                    )
                )
            for delta in PROBE_DELTAS:
                probe = upshift_asymmetry_probe(X, f, Y, g, cert, delta)
                checks.append(
                    CheckRow(
                        f"probe_up_{delta:g}",
                        probe.up.ok,
                        probe.up.condition or f"recertified at eps+{delta:g}",
                    )
                )
                result.notes.append(
                    f"probe_down_{delta:g}: "
                    + ("holds" if probe.down.ok else f"fails ({probe.down.condition})")
                )

    try:
        searched, _ = search_certificate(X, f, Y, g)
        dht_upper = min(dht_upper, dht_upper_bound(searched, DEFAULT_CONTROL_FACTOR))
    except SizeGuardExceeded:
        result.notes.append("certificate search skipped: vertex guard")
    values["dht_upper"] = dht_upper

    if not math.isinf(dht_upper):
        leq("sandwich_db_dht", max(bottlenecks), dht_upper, "max bottleneck", "dht_upper")
        if "np_upper" in values:
            leq("sandwich_dht_np", dht_upper, values["np_upper"], "dht_upper", "np_upper")
    if same_domain:
        if not math.isinf(dht_upper):
            leq("samedomain_dht_linf", dht_upper, values["linf"], "dht_upper", "linf")
        leq("samedomain_db_linf", max(bottlenecks), values["linf"], "max bottleneck", "linf")

    if pair.expected is not None:
        for name, want in sorted(_load_expected(pair.expected).items()):
            have = values.get(name)
            if have is None:
                checks.append(CheckRow(f"expect:{name}", False, "value not computed"))
            else:
                checks.append(
                    CheckRow(f"expect:{name}", have == want, f"computed {have}, expected {want}")
                )
    return result


def run_corpus(directory: str | Path) -> CorpusReport:
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory {root} does not exist")
    pair_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not pair_dirs:
        raise FileNotFoundError(f"corpus directory {root} contains no pair directories")
    pairs = []
    for d in pair_dirs:
        for required in ("x.txt", "y.txt"):
            if not (d / required).exists():
                raise FileNotFoundError(f"corpus pair {d.name} is missing {required}")
        pairs.append(run_pair(InstancePair.from_directory(d)))
    return CorpusReport(pairs)
