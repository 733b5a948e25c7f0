"""Command-line front end.

Exit codes: 0 success, 1 a property or certificate check failed, 2 usage or
parse error, 3 the stability assertion d_B <= max(1, k/2)*eps failed (a
falsification signal, which always means a bug somewhere, but localizes it).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .bottleneck import bottleneck_distance, linf_distance, natural_pseudo_upper
from .certify import (
    DEFAULT_CONTROL_FACTOR,
    DEFAULT_MAX_CHAIN_LEN,
    check_certificate,
    dht_upper_bound,
    load_certificate,
    save_certificate,
    search_certificate,
    upshift_asymmetry_probe,
    verify_stability,
)
from .common import fmt_sig
from .complexes import load_instance, lower_star
from .corpus import run_corpus
from .mergetree import (
    check_interleaving,
    format_tree,
    interleaving_distance,
    build_merge_tree,
    load_tree,
)
from .persistence import compute_diagrams, diagrams_to_tsv

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_STABILITY = 3


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _load_filtered(path: str):
    return lower_star(*load_instance(path))


def cmd_diagram(args: argparse.Namespace) -> int:
    fc = _load_filtered(args.input)
    diagrams = compute_diagrams(fc, args.max_degree)
    _emit(diagrams_to_tsv(diagrams), args.output)
    return EXIT_OK


def cmd_bottleneck(args: argparse.Namespace) -> int:
    if args.matching is not None and args.degree is None:
        print("error: --matching needs an explicit --degree", file=sys.stderr)
        return EXIT_USAGE
    fcx = _load_filtered(args.file_x)
    fcy = _load_filtered(args.file_y)
    degrees = [args.degree] if args.degree is not None else list(range(args.max_degree + 1))
    top = max(degrees)
    dx = compute_diagrams(fcx, top)
    dy = compute_diagrams(fcy, top)
    for k in degrees:
        dist, matching = bottleneck_distance(dx[k], dy[k])
        print(f"bottleneck{k}\t{fmt_sig(dist)}")
        if args.matching is not None:
            lines = "".join(
                f"{-1 if i is None else i}\t{-1 if j is None else j}\n"
                for i, j in matching.pairs
            )
            _emit(lines, args.matching)
    return EXIT_OK


def cmd_linf(args: argparse.Namespace) -> int:
    kx, f = load_instance(args.file_x)
    ky, g = load_instance(args.file_y)
    if kx != ky:
        print("error: linf needs both functions on the same complex", file=sys.stderr)
        return EXIT_USAGE
    print(f"linf\t{fmt_sig(linf_distance(f, g))}")
    return EXIT_OK


def cmd_np_bound(args: argparse.Namespace) -> int:
    kx, f = load_instance(args.file_x)
    ky, g = load_instance(args.file_y)
    value = natural_pseudo_upper(kx, f, ky, g)
    print(f"np_upper\t{fmt_sig(value)}")
    return EXIT_OK


def cmd_mergetree_build(args: argparse.Namespace) -> int:
    fc = _load_filtered(args.input)
    tree = build_merge_tree(fc)
    _emit(format_tree(tree), args.output)
    return EXIT_OK


def cmd_mergetree_interleave(args: argparse.Namespace) -> int:
    t1 = load_tree(args.tree1)
    t2 = load_tree(args.tree2)
    if args.eps is not None:
        ok = check_interleaving(t1, t2, args.eps)
        print(f"interleave\t{'true' if ok else 'false'}")
        return EXIT_OK
    bound = interleaving_distance(t1, t2)
    if bound.exact:
        print(f"interleaving\t{fmt_sig(bound.upper)}")
    else:
        print(f"interleaving_lower\t{fmt_sig(bound.lower)}")
        print(f"interleaving_upper\t{fmt_sig(bound.upper)}")
    return EXIT_OK


def cmd_dht_check(args: argparse.Namespace) -> int:
    X, f = load_instance(args.file_x)
    Y, g = load_instance(args.file_y)
    cert = load_certificate(args.certificate, X, Y)
    outcome = check_certificate(X, f, Y, g, cert)
    print(f"cert_ok\t{'true' if outcome.ok else 'false'}")
    if outcome.ok:
        print(f"eps\t{fmt_sig(cert.eps)}")
        return EXIT_OK
    print(f"violated\t{outcome.condition}")
    if outcome.detail:
        print(f"detail\t{outcome.detail}")
    return EXIT_FALSIFIED


def cmd_dht_search(args: argparse.Namespace) -> int:
    X, f = load_instance(args.file_x)
    Y, g = load_instance(args.file_y)
    eps, cert = search_certificate(
        X, f, Y, g, max_chain_len=args.max_chain, control_factor=args.factor
    )
    print(f"dht_upper\t{fmt_sig(dht_upper_bound(eps, args.factor))}")
    if cert is not None and args.cert_out is not None:
        save_certificate(args.cert_out, cert)
    return EXIT_OK


def cmd_dht_stability(args: argparse.Namespace) -> int:
    X, f = load_instance(args.file_x)
    Y, g = load_instance(args.file_y)
    cert = load_certificate(args.certificate, X, Y)
    outcome = check_certificate(X, f, Y, g, cert)
    if not outcome.ok:
        print("cert_ok\tfalse")
        print(f"violated\t{outcome.condition}")
        return EXIT_FALSIFIED
    report = verify_stability(X, f, Y, g, cert, max_degree=args.max_degree)
    for entry in report.entries:
        print(
            f"stability{entry.degree}\t{fmt_sig(entry.bottleneck)}"
            f"\t{fmt_sig(report.bound)}\t{fmt_sig(entry.slack)}"
        )
    print(f"stability_ok\t{'true' if report.ok else 'false'}")
    return EXIT_OK if report.ok else EXIT_STABILITY


def cmd_dht_probe(args: argparse.Namespace) -> int:
    X, f = load_instance(args.file_x)
    Y, g = load_instance(args.file_y)
    cert = load_certificate(args.certificate, X, Y)
    report = upshift_asymmetry_probe(X, f, Y, g, cert, args.delta)
    print(f"upshift_ok\t{'true' if report.up.ok else 'false'}")
    print(f"upshift_eps\t{fmt_sig(report.up_eps)}")
    print(f"downshift_ok\t{'true' if report.down.ok else 'false'}")
    if not report.down.ok:
        print(f"downshift_violated\t{report.down.condition}")
    return EXIT_OK if report.up.ok else EXIT_FALSIFIED


def cmd_corpus(args: argparse.Namespace) -> int:
    report = run_corpus(args.directory)
    for pair in report.pairs:
        for name in sorted(pair.values):
            print(f"{pair.name}\tvalue\t{name}\t{fmt_sig(pair.values[name])}")
        for check in pair.checks:
            status = "pass" if check.ok else "FAIL"
            suffix = f"\t{check.detail}" if (check.detail and not check.ok) else ""
            print(f"{pair.name}\tcheck\t{check.name}\t{status}{suffix}")
        for note in pair.notes:
            print(f"{pair.name}\tnote\t{note}")
        print(f"{pair.name}\tresult\t{'pass' if pair.ok else 'FAIL'}")
    print(f"corpus\tresult\t{'pass' if report.ok else 'FAIL'}")
    if report.stability_falsified:
        return EXIT_STABILITY
    return EXIT_OK if report.ok else EXIT_FALSIFIED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of ``main``: parsing leaves it unchanged, and callers must not
    modify it."""
    parser = argparse.ArgumentParser(
        prog="topodist",
        description="Distances between scalar fields on finite simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="persistence diagram of an instance, as TSV")
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("bottleneck", help="bottleneck distance between two instances")
    p.add_argument("file_x")
    p.add_argument("file_y")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--matching", default=None, help="write the witness matching TSV here")
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("linf", help="L-infinity distance of two same-domain functions")
    p.add_argument("file_x")
    p.add_argument("file_y")
    p.set_defaults(func=cmd_linf)

    p = sub.add_parser(
        "np-bound", help="upper bound on the natural pseudo-distance (isomorphism enumeration)"
    )
    p.add_argument("file_x")
    p.add_argument("file_y")
    p.set_defaults(func=cmd_np_bound)

    p = sub.add_parser("mergetree", help="merge tree construction and interleaving")
    msub = p.add_subparsers(dest="subcommand", required=True)
    b = msub.add_parser("build", help="build the merge tree of an instance")
    b.add_argument("input")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_mergetree_build)
    i = msub.add_parser("interleave", help="interleaving check or distance of two trees")
    i.add_argument("tree1")
    i.add_argument("tree2")
    group = i.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float, default=None)
    group.add_argument("--distance", action="store_true")
    i.set_defaults(func=cmd_mergetree_interleave)

    p = sub.add_parser("dht", help="homotopy-shift certificates")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    c = dsub.add_parser("check", help="validate a certificate for a pair")
    c.add_argument("file_x")
    c.add_argument("file_y")
    c.add_argument("certificate")
    c.set_defaults(func=cmd_dht_check)
    s = dsub.add_parser("search", help="search for the best certificate")
    s.add_argument("file_x")
    s.add_argument("file_y")
    s.add_argument("--max-chain", type=int, default=DEFAULT_MAX_CHAIN_LEN)
    s.add_argument(
        "--factor", type=float, default=DEFAULT_CONTROL_FACTOR,
        help="control factor k: chains may sweep up to k*eps above a vertex's value; "
        "dht_upper is the least float >= max(1, k/2)*eps",
    )
    s.add_argument("--cert-out", default=None)
    s.set_defaults(func=cmd_dht_search)
    st = dsub.add_parser(
        "stability", help="verify d_B <= the certified bound max(1, k/2)*eps per degree"
    )
    st.add_argument("file_x")
    st.add_argument("file_y")
    st.add_argument("certificate")
    st.add_argument("--max-degree", type=int, default=2)
    st.set_defaults(func=cmd_dht_stability)
    pr = dsub.add_parser("probe", help="re-certify after shifting g up and down")
    pr.add_argument("file_x")
    pr.add_argument("file_y")
    pr.add_argument("certificate")
    pr.add_argument("--delta", type=float, required=True)
    pr.set_defaults(func=cmd_dht_probe)

    p = sub.add_parser("corpus", help="run all checks over a corpus directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
