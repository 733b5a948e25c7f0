import random
import shutil
from pathlib import Path

import pytest

from topodist.bottleneck import linf_distance
from topodist.certify import ShiftCertificate, save_certificate
from topodist.complexes import ContiguityChain, identity_map, save_instance
from topodist.corpus import (
    CheckRow,
    CorpusReport,
    InstancePair,
    PairResult,
    run_corpus,
    run_pair,
)

from gen import non_dyadic_vertex_function, random_connected_complex

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def test_shipped_corpus_all_green():
    report = run_corpus(CORPUS)
    assert report.ok
    assert not report.stability_falsified
    assert sorted(p.name for p in report.pairs) == [
        "comb_pair",
        "cycle3_vs_cycle6",
        "hollow_triangle_vs_strip",
        "point_vs_edge",
        "same_domain_path",
    ]


def test_shipped_corpus_values_match_sidecars():
    report = run_corpus(CORPUS)
    for pair in report.pairs:
        expects = [c for c in pair.checks if c.name.startswith("expect:")]
        assert expects, pair.name
        assert all(c.ok for c in expects), pair.name


def test_pair_without_certificate_still_runs(tmp_path):
    target = tmp_path / "pair"
    shutil.copytree(CORPUS / "point_vs_edge", target)
    (target / "cert.txt").unlink()
    (target / "expect.tsv").unlink()
    result = run_pair(target)
    assert result.ok
    assert "dht_upper" in result.values  # search still ran
    assert not any(c.name == "cert_valid" for c in result.checks)


def test_missing_corpus_dir():
    with pytest.raises(FileNotFoundError):
        run_corpus("/nonexistent/corpus")


def test_instance_pair_from_directory():
    pair = InstancePair.from_directory(CORPUS / "point_vs_edge")
    assert pair.name == "point_vs_edge"
    assert pair.certificate is not None and pair.expected is not None
    assert run_pair(pair).ok


def test_instance_pair_explicit_paths(tmp_path):
    # pair assembled from scattered files, no sidecars
    x = tmp_path / "a.txt"
    y = tmp_path / "b.txt"
    x.write_text("n 1\n0\n", encoding="utf-8")
    y.write_text("n 2\n0\n1\ns 0 1\n", encoding="utf-8")
    result = run_pair(InstancePair("adhoc", x, y))
    assert result.ok
    assert result.values["dht_upper"] == 0.0


def test_report_flags_stability_failures():
    bad = PairResult("p", checks=[CheckRow("stability1", False, "boom")])
    report = CorpusReport([bad])
    assert not report.ok
    assert report.stability_falsified
    other = PairResult("q", checks=[CheckRow("cert_valid", False)])
    assert not CorpusReport([other]).stability_falsified


def test_probe_down_observations_recorded():
    report = run_corpus(CORPUS)
    strip = next(p for p in report.pairs if p.name == "hollow_triangle_vs_strip")
    notes = [n for n in strip.notes if n.startswith("probe_down")]
    assert "probe_down_0.25: holds" in notes
    assert "probe_down_1: fails (shift_psi)" in notes


def test_non_dyadic_pairs_pass_every_check(tmp_path):
    """run_pair on random 2-5-vertex connected pairs whose values are thirds,
    tenths or random() draws: nothing raises and every row passes, so the
    inequality chain holds exactly where differences round.  Shared-domain
    pairs ship the identity certificate at the L-infinity distance, so the
    checker, stability and the probes run on rounded values too."""
    rng = random.Random(59)
    for i in range(102):
        X = random_connected_complex(rng, min_vertices=2, max_vertices=5)
        Y = X if i % 2 else random_connected_complex(rng, min_vertices=2, max_vertices=5)
        kind = ("thirds", "tenths", "random")[i % 3]
        f = non_dyadic_vertex_function(rng, X.vertex_count, kind)
        g = non_dyadic_vertex_function(rng, Y.vertex_count, kind)
        pair = tmp_path / f"pair{i}"
        pair.mkdir()
        save_instance(pair / "x.txt", X, f)
        save_instance(pair / "y.txt", Y, g)
        if X == Y:
            identity = ContiguityChain((identity_map(X),))
            cert = ShiftCertificate(
                identity_map(X), identity_map(X), linf_distance(f, g), identity, identity
            )
            save_certificate(pair / "cert.txt", cert)
        result = run_pair(pair)
        assert result.ok, (kind, [c for c in result.checks if not c.ok])
