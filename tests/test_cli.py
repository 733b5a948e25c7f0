import math
import random
import shutil
from pathlib import Path

from topodist.cli import build_parser, main
from topodist.common import fmt_sig
from topodist.complexes import VertexFunction, load_instance, lower_star
from topodist.mergetree import build_merge_tree, format_tree, interleaving_distance, load_tree
from topodist.persistence import load_diagrams

from gen import caterpillar_tree, random_connected_complex, random_vertex_function

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"
PATH_X = str(CORPUS / "same_domain_path" / "x.txt")
PATH_Y = str(CORPUS / "same_domain_path" / "y.txt")
PATH_CERT = str(CORPUS / "same_domain_path" / "cert.txt")
CORPUS_STDOUT = REPO / "tests" / "data" / "corpus_stdout.txt"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diagram_stdout(capsys):
    code, out, _ = run(capsys, ["diagram", PATH_X])
    assert code == 0
    assert out == "0\t0\tinf\n0\t1\t2\n"


def test_diagram_single_point(tmp_path, capsys):
    p = tmp_path / "pt.txt"
    p.write_text("n 1\n3\n", encoding="utf-8")
    code, out, _ = run(capsys, ["diagram", str(p)])
    assert code == 0
    assert out == "0\t3\tinf\n"


def test_diagram_output_file_roundtrips(tmp_path, capsys):
    out_file = tmp_path / "d.tsv"
    code, _, _ = run(capsys, ["diagram", PATH_X, "-o", str(out_file)])
    assert code == 0
    diagrams = load_diagrams(out_file)
    assert diagrams[0].points == ((0.0, float("inf")), (1.0, 2.0))


def test_diagram_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 1\n0\ns\n", encoding="utf-8")
    code, _, err = run(capsys, ["diagram", str(bad)])
    assert code == 2
    assert "bad.txt:3" in err


def test_diagram_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["diagram", "/nonexistent/nope.txt"])
    assert code == 2


def test_bottleneck_self_zero(capsys):
    code, out, _ = run(capsys, ["bottleneck", PATH_X, PATH_X, "--degree", "0"])
    assert code == 0
    assert out == "bottleneck0\t0\n"


def test_bottleneck_all_degrees_and_matching(tmp_path, capsys):
    m = tmp_path / "m.tsv"
    code, out, _ = run(
        capsys,
        ["bottleneck", PATH_X, PATH_Y, "--degree", "0", "--matching", str(m)],
    )
    assert code == 0
    assert out == "bottleneck0\t1\n"
    rows = [line.split("\t") for line in m.read_text().splitlines()]
    assert all(len(r) == 2 for r in rows)
    assert ["0", "0"] in rows or ["0", "-1"] in rows


def test_bottleneck_matching_requires_degree(tmp_path, capsys):
    m = tmp_path / "m.tsv"
    code, _, err = run(capsys, ["bottleneck", PATH_X, PATH_Y, "--matching", str(m)])
    assert code == 2
    assert "--degree" in err


def test_linf(capsys):
    code, out, _ = run(capsys, ["linf", PATH_X, PATH_Y])
    assert code == 0
    assert out == "linf\t1\n"


def test_linf_domain_mismatch_exit_2(capsys):
    code, _, err = run(
        capsys, ["linf", str(CORPUS / "point_vs_edge" / "x.txt"), PATH_Y]
    )
    assert code == 2
    assert "same complex" in err


def test_np_bound(capsys):
    code, out, _ = run(capsys, ["np-bound", PATH_X, PATH_Y])
    assert code == 0
    assert out == "np_upper\t1\n"
    code, out, _ = run(
        capsys,
        ["np-bound", str(CORPUS / "point_vs_edge" / "x.txt"), str(CORPUS / "point_vs_edge" / "y.txt")],
    )
    assert out == "np_upper\tinf\n"


def test_mergetree_build_and_interleave(tmp_path, capsys):
    t1 = tmp_path / "t1.txt"
    t2 = tmp_path / "t2.txt"
    assert run(capsys, ["mergetree", "build", PATH_X, "-o", str(t1)])[0] == 0
    assert run(capsys, ["mergetree", "build", PATH_Y, "-o", str(t2)])[0] == 0
    assert load_tree(t1).heights == {0: 0.0, 1: 1.0, 2: 2.0}
    code, out, _ = run(capsys, ["mergetree", "interleave", str(t1), str(t2), "--distance"])
    assert code == 0 and out == "interleaving\t1\n"
    code, out, _ = run(capsys, ["mergetree", "interleave", str(t1), str(t2), "--eps", "1"])
    assert code == 0 and out == "interleave\ttrue\n"
    code, out, _ = run(capsys, ["mergetree", "interleave", str(t1), str(t2), "--eps", "0.5"])
    assert code == 0 and out == "interleave\tfalse\n"


def test_mergetree_interleave_near_copies(tmp_path, capsys):
    # g = f + k/64 with |k| <= 8 on one complex: two 11-node merge trees,
    # interleaving at d_B(H0) = 0.109375, below L-infinity = 0.125
    rng = random.Random(161)
    K = random_connected_complex(rng, min_vertices=12, max_vertices=20)
    f = random_vertex_function(rng, K.vertex_count)
    g = VertexFunction(tuple(v + rng.randint(-8, 8) / 64 for v in f))
    paths = []
    for name, values in (("t1", f), ("t2", g)):
        tree = build_merge_tree(lower_star(K, values))
        assert len(tree) == 11
        path = tmp_path / f"{name}.tree"
        path.write_text(format_tree(tree), encoding="utf-8")
        paths.append(str(path))
    code, out, _ = run(capsys, ["mergetree", "interleave", *paths, "--distance"])
    assert code == 0 and out == "interleaving\t0.109375\n"
    # 0.1015625 is the candidate just below the distance
    for eps, answer in (("0.109375", "true"), ("0.1015625", "false")):
        code, out, _ = run(capsys, ["mergetree", "interleave", *paths, "--eps", eps])
        assert code == 0 and out == f"interleave\t{answer}\n"


def test_mergetree_interleave_eps_size_guard_exit_2(tmp_path, capsys):
    # a caterpillar with 7 leaves: 15 nodes, above the 12-node guard
    lines = ["node 0 0"]
    spine = 0
    for i in range(7):
        leaf, merge = 2 * i + 1, 2 * i + 2
        lines += [f"node {leaf} 0.5", f"node {merge} {i + 1}"]
        lines += [f"edge {spine} {merge}", f"edge {leaf} {merge}"]
        spine = merge
    big = tmp_path / "big.tree"
    big.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, ["mergetree", "interleave", str(big), str(big), "--eps", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "12 nodes" in err


def test_mergetree_interleave_eps_nan_exit_2(tmp_path, capsys):
    tree = tmp_path / "a.tree"
    assert run(capsys, ["mergetree", "build", PATH_X, "-o", str(tree)])[0] == 0
    code, out, err = run(capsys, ["mergetree", "interleave", str(tree), str(tree), "--eps", "nan"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "eps must be non-negative" in err


def test_mergetree_interleave_nan_height_exit_2(tmp_path, capsys):
    nan_tree = tmp_path / "nan.tree"
    zero_tree = tmp_path / "zero.tree"
    nan_tree.write_text("node 0 nan\n", encoding="utf-8")
    zero_tree.write_text("node 0 0\n", encoding="utf-8")
    for mode in (["--eps", "1"], ["--distance"]):
        code, out, err = run(
            capsys, ["mergetree", "interleave", str(nan_tree), str(zero_tree), *mode]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "NaN height" in err


def test_mergetree_interleave_distance_bracket_above_guard(tmp_path, capsys):
    big = tmp_path / "big.tree"
    point = tmp_path / "point.tree"
    big.write_text(format_tree(caterpillar_tree(13)), encoding="utf-8")  # 27 nodes
    point.write_text("node 0 0\n", encoding="utf-8")
    code, out, _ = run(capsys, ["mergetree", "interleave", str(big), str(point), "--distance"])
    assert code == 0
    assert out == "interleaving_lower\t6.78125\ninterleaving_upper\t14\n"


def test_mergetree_build_disconnected_exit_2(tmp_path, capsys):
    p = tmp_path / "two.txt"
    p.write_text("n 2\n0\n0\n", encoding="utf-8")
    code, _, err = run(capsys, ["mergetree", "build", str(p)])
    assert code == 2
    assert "disconnected" in err


def test_dht_check_pass_and_fail(tmp_path, capsys):
    code, out, _ = run(capsys, ["dht", "check", PATH_X, PATH_Y, PATH_CERT])
    assert code == 0
    assert "cert_ok\ttrue" in out and "eps\t1" in out
    bad = tmp_path / "bad_cert.txt"
    bad.write_text(
        Path(PATH_CERT).read_text().replace("eps 1", "eps 0.5"), encoding="utf-8"
    )
    code, out, _ = run(capsys, ["dht", "check", PATH_X, PATH_Y, str(bad)])
    assert code == 1
    assert "cert_ok\tfalse" in out and "violated\tshift_phi" in out


def test_dht_check_prints_the_failing_sides_least_eps(tmp_path, capsys):
    """The detail line names the least eps the failing map or chain needs
    and the vertex that sets it."""
    text = Path(PATH_CERT).read_text()
    # chain_x detours vertex 0 through vertex 1 (value 2), which needs 2*eps
    # of control at factor 1 from f(0) = 0
    detour = text.replace("factor 2", "factor 1").replace(
        "chainx 1\n0 1 2\n", "chainx 3\n0 1 2\n1 1 2\n0 1 2\n"
    )
    cases = [
        (text.replace("eps 1", "eps 0.5"), "shift_phi", "vertex 0: phi needs eps 1 > 0.5"),
        (detour, "control_x", "vertex 0: chain_x needs eps 2 > 1"),
    ]
    for i, (cert, condition, detail) in enumerate(cases):
        path = tmp_path / f"cert{i}.txt"
        path.write_text(cert, encoding="utf-8")
        code, out, _ = run(capsys, ["dht", "check", PATH_X, PATH_Y, str(path)])
        assert (code, out) == (1, f"cert_ok\tfalse\nviolated\t{condition}\ndetail\t{detail}\n")


def test_dht_search_writes_certificate(tmp_path, capsys):
    cert_out = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys,
        ["dht", "search", PATH_X, PATH_Y, "--cert-out", str(cert_out)],
    )
    assert code == 0
    assert out == "dht_upper\t1\n"
    code, out, _ = run(capsys, ["dht", "check", PATH_X, PATH_Y, str(cert_out)])
    assert code == 0


def test_dht_search_byte_identical_across_runs(tmp_path, capsys):
    outs = []
    for i in range(2):
        cert_out = tmp_path / f"c{i}.txt"
        code, out, _ = run(
            capsys,
            [
                "dht",
                "search",
                str(CORPUS / "cycle3_vs_cycle6" / "x.txt"),
                str(CORPUS / "cycle3_vs_cycle6" / "y.txt"),
                "--cert-out",
                str(cert_out),
            ],
        )
        assert code == 0
        outs.append(out + cert_out.read_text())
    assert outs[0] == outs[1]


def test_dht_search_size_guard_exit_2(tmp_path, capsys):
    path8 = tmp_path / "path8.txt"
    lines = ["n 8", *(str(i) for i in range(8)), *(f"s {i} {i + 1}" for i in range(7))]
    path8.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, ["dht", "search", str(path8), str(path8)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "6 vertices" in err


def test_dht_search_bad_factor_exit_2(capsys):
    # -1 and 0 are refused alike, before any witness is built
    for factor in ("-1", "0", "nan"):
        code, out, err = run(capsys, ["dht", "search", PATH_X, PATH_X, "--factor", factor])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "control_factor must be positive" in err


def test_dht_stability(capsys):
    code, out, _ = run(capsys, ["dht", "stability", PATH_X, PATH_Y, PATH_CERT])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "stability_ok\ttrue"
    assert lines[0].startswith("stability0\t1\t1\t0")


def test_dht_search_above_factor_2_prints_the_factor_rule_bound(tmp_path, capsys):
    # at factor 3 the searched eps is 0.8125, below bottleneck0 = 1.1015625;
    # the certified bound is max(1, 3/2) * eps
    x, y, cert = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "cert.txt"
    x.write_text("n 3\n0.9375\n-1.390625\n-0.421875\ns 0 1 2\n", encoding="utf-8")
    y.write_text(
        "n 4\n-0.40625\n1.796875\n0.046875\n-0.578125\ns 1 3\ns 0 1 2\n", encoding="utf-8"
    )
    argv = ["dht", "search", str(x), str(y), "--factor", "3", "--cert-out", str(cert)]
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, "dht_upper\t1.21875\n")
    assert "eps 0.8125\nfactor 3\n" in cert.read_text(encoding="utf-8")
    code, out, _ = run(capsys, ["dht", "stability", str(x), str(y), str(cert)])
    assert code == 0
    assert out.splitlines()[0] == "stability0\t1.1015625\t1.21875\t0.1171875"
    assert out.splitlines()[-1] == "stability_ok\ttrue"
    code, out, _ = run(capsys, ["dht", "search", "--help"])
    assert code == 0 and "max(1, k/2)*eps" in " ".join(out.split())


def test_dht_stability_failing_certificate_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad_cert.txt"
    bad.write_text(Path(PATH_CERT).read_text().replace("eps 1", "eps 0.5"), encoding="utf-8")
    code, out, _ = run(capsys, ["dht", "stability", PATH_X, PATH_Y, str(bad)])
    assert code == 1
    assert out == "cert_ok\tfalse\nviolated\tshift_phi\n"


def test_dht_probe(capsys):
    code, out, _ = run(
        capsys, ["dht", "probe", PATH_X, PATH_Y, PATH_CERT, "--delta", "0.25"]
    )
    assert code == 0
    assert "upshift_ok\ttrue" in out
    assert "downshift_ok\tfalse" in out
    assert "downshift_violated\tshift_psi" in out


def test_dht_probe_nan_delta_exit_2(capsys):
    code, out, err = run(
        capsys, ["dht", "probe", PATH_X, PATH_Y, PATH_CERT, "--delta", "nan"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "delta must be finite and non-negative" in err


def test_corpus_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["corpus", str(CORPUS)])
    code2, out2, _ = run(capsys, ["corpus", str(CORPUS)])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("corpus\tresult\tpass")


def test_corpus_stdout_matches_recorded_output(capsys):
    """The shipped corpus prints exactly the recorded report and exits 0."""
    code, out, _ = run(capsys, ["corpus", str(CORPUS)])
    assert code == 0
    assert out.encode("utf-8") == CORPUS_STDOUT.read_bytes()


def test_corpus_corrupted_cert_exit_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS / "cycle3_vs_cycle6", corpus / "cycle3_vs_cycle6")
    cert = corpus / "cycle3_vs_cycle6" / "cert.txt"
    cert.write_text(cert.read_text().replace("eps 0.125", "eps 0.0625"), encoding="utf-8")
    (corpus / "cycle3_vs_cycle6" / "expect.tsv").unlink()
    code, out, _ = run(capsys, ["corpus", str(corpus)])
    assert code == 1
    assert "cert_valid\tFAIL\tshift_phi" in out


def test_corpus_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    code, _, err = run(capsys, ["corpus", str(empty)])
    assert code == 2


def test_corpus_missing_file_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "pair").mkdir(parents=True)
    (corpus / "pair" / "x.txt").write_text("n 1\n0\n", encoding="utf-8")
    code, _, err = run(capsys, ["corpus", str(corpus)])
    assert code == 2
    assert "missing" in err


def test_usage_error_exit_2(capsys):
    assert main(["mergetree", "interleave", "a", "b"]) == 2  # neither --eps nor --distance
    assert main(["no-such-command"]) == 2


def test_repeated_main_calls_match_fresh_parsers(capsys):
    """main reuses one parser; a usage error and then two subcommands with
    different options print what calls on freshly built parsers print."""
    calls = [
        ["diagram", PATH_X, "--max-degree", "one"],
        ["diagram", PATH_X, "--max-degree", "0"],
        ["bottleneck", PATH_X, PATH_Y],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    parser = build_parser()
    assert [run(capsys, argv) for argv in calls] == fresh
    assert build_parser() is parser
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert "invalid int value" in fresh[0][2]


def test_instance_save_load_roundtrip(tmp_path):
    K, f = load_instance(PATH_X)
    from topodist.complexes import save_instance

    p = tmp_path / "copy.txt"
    save_instance(p, K, f)
    K2, f2 = load_instance(p)
    assert (K2, f2) == (K, f)


def test_dht_probe_recertifies_a_rounded_upshift(tmp_path, capsys):
    # g + 0.25 rounds to 0.55, above f + (eps + 0.25) in floats
    x, y, cert = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "cert.txt"
    x.write_text("n 1\n0.1\n", encoding="utf-8")
    y.write_text("n 1\n0.3\n", encoding="utf-8")
    files = [str(x), str(y)]
    assert run(capsys, ["dht", "search", *files, "--cert-out", str(cert)])[0] == 0
    assert run(capsys, ["dht", "check", *files, str(cert)])[0] == 0
    for delta in ("0.25", "1"):
        code, out, _ = run(capsys, ["dht", "probe", *files, str(cert), "--delta", delta])
        assert code == 0
        assert "upshift_ok\ttrue" in out


def test_mergetree_interleave_non_dyadic_heights(tmp_path, capsys):
    t1, t2 = tmp_path / "t1.tree", tmp_path / "t2.tree"
    t1.write_text("node 0 0.2\n", encoding="utf-8")
    t2.write_text("node 0 -1.7\nnode 1 -1.5\nnode 2 -1\nedge 0 2\nedge 1 2\n", encoding="utf-8")
    trees = [str(t1), str(t2)]
    code, out, _ = run(capsys, ["mergetree", "interleave", *trees, "--distance"])
    assert code == 0
    distance = interleaving_distance(load_tree(t1), load_tree(t2)).upper
    assert out == f"interleaving\t{fmt_sig(distance)}\n"
    for eps, answer in ((distance, "true"), (math.nextafter(distance, 0.0), "false")):
        code, out, _ = run(capsys, ["mergetree", "interleave", *trees, "--eps", repr(eps)])
        assert code == 0 and out == f"interleave\t{answer}\n"
