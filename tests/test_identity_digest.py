"""Smoke test of `scripts/identity_digest.py`, the byte-identity digest."""
import sys
from pathlib import Path

from rsd.generators import path, star

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from identity_digest import SETS, digest, lab, main  # noqa: E402


def test_digest_repeats_on_the_same_graphs():
    graphs = [star(2), path(4)]
    first = digest(graphs, with_cli=True)
    assert first == digest(graphs, with_cli=True)
    assert first[1] == 4  # a run record and a CLI record per graph
    assert digest([path(4), star(2)])[0] != digest(graphs)[0]


def test_unknown_set_is_refused(capsys):
    assert main(["nonesuch"]) == 2
    assert "unknown set" in capsys.readouterr().err


def test_lab_set_hashes_lemma_reports_and_traced_runs():
    lemmas, trees = [(4, 2, 10, 4)], [(12, 4, 1)]
    first = lab(lemmas, trees)
    assert first == lab(lemmas, trees)
    assert first[1] == 2  # one lemma report and one traced run
    assert lab([(4, 2, 11, 4)], trees)[0] != first[0]
    assert lab(lemmas, [(12, 4, 2)])[0] != first[0]
    assert list(SETS) == ["corpus", "deep", "dense", "small", "repair", "lab"]
