"""The mutant list of `scripts/mutants.py` still fits today's source."""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from mutants import MUTANTS, _pytest, occurrences  # noqa: E402


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_fragment_occurs_exactly_once(mutant):
    assert occurrences(mutant) == 1
    assert mutant.replacement != mutant.fragment and mutant.tests


def test_mutant_names_and_tests_are_known():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        for test in m.tests:
            file, name = test.split("::")
            assert f"def {name}(" in (ROOT / file).read_text(encoding="utf-8"), test


def test_a_run_past_the_time_limit_is_reported_as_a_timeout(tmp_path):
    # the interpreter alone takes longer than a millisecond to start
    assert _pytest(tmp_path, ["tests"], 0.001) is None
