"""Mutant sweep: every guard and bound listed here must be killed by a fast test.

Each entry of MUTANTS names a file under `src/rsd`, an exact source
fragment that occurs once in it, its replacement, and the fast tests
expected to kill it.  The sweep copies `src/`, `tests/`, `scripts/` and
`pyproject.toml` to a temporary directory (pytest puts the checkout's own
`src` first on the path, so the tests run from the copy), checks that the
listed tests pass on the unmutated copy, then applies one mutant at a
time and runs its tests, one pytest process after another.  It prints one
line per mutant and exits 1 if any mutant survives:

    python scripts/mutants.py [NAME ...]

With no NAME given, every mutant is run.  `tests/test_mutants.py` checks
that every fragment still occurs exactly once, so the list cannot rot.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL_TESTS = "tests/test_protocol.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/rsd
    fragment: str  # occurs exactly once in the file
    replacement: str
    tests: List[str]  # pytest node ids, relative to the repo root


MUTANTS = [
    # one wave in flight, outside every typed message
    Mutant(
        "second_wave_in_flight",
        "protocol.py",
        '        if self._pulses is not None:\n            self._desync(f"wave from round',
        '        if False:\n            self._desync(f"wave from round',
        [PROTOCOL_TESTS + "test_a_second_wave_in_flight_is_a_desync"],
    ),
    Mutant(
        "typed_message_in_flight",
        "protocol.py",
        '        if self._pulses is not None:\n            self._desync(f"typed message',
        '        if False:\n            self._desync(f"typed message',
        [PROTOCOL_TESTS + "test_a_typed_message_while_a_wave_is_in_flight_is_a_desync"],
    ),
    Mutant(
        "wave_at_or_before_typed",
        "protocol.py",
        "        if last >= start:\n",
        "        if False:\n",
        [PROTOCOL_TESTS + "test_a_wave_at_or_before_a_queued_typed_message_is_a_desync"],
    ),
    Mutant(
        "wave_on_a_typed_round",
        "protocol.py",
        "        if last >= start:\n",
        "        if last > start:\n",
        [PROTOCOL_TESTS + "test_a_wave_at_or_before_a_queued_typed_message_is_a_desync"],
    ),
    Mutant(
        "train_not_cut_at_timer",
        "protocol.py",
        "        return pulses[self._head : bisect_left(pulses, self._timer[0], self._head)]\n",
        "        return pulses[self._head :]\n",
        [PROTOCOL_TESTS + "test_the_timer_cuts_the_train"],
    ),
    # the one timer slot and the handler slot
    Mutant(
        "child_keeps_its_next_block",
        "protocol.py",
        "            self._timer = None  # no next block\n",
        "",
        [PROTOCOL_TESTS + "test_completed_child_leaves_no_timer_armed"],
    ),
    Mutant(
        "timer_cleared_after_its_step",
        "protocol.py",
        "            self._timer = None  # cleared first: steps re-arm\n"
        "            timer[1](timer[0], *timer[2])\n",
        "            timer[1](timer[0], *timer[2])\n"
        "            self._timer = None\n",
        [PROTOCOL_TESTS + "test_member_without_an_account_retries_one_block_later"],
    ),
    Mutant(
        "retry_keeps_a_spoiled_window",
        "protocol.py",
        "            self._window_clean = True\n            self._tags_heard = {}\n",
        "            self._tags_heard = {}\n",
        [PROTOCOL_TESTS + "test_member_without_an_account_retries_one_block_later"],
    ),
    Mutant(
        "child_stage_without_handler",
        "protocol.py",
        '            self._enter("child_blocks", self._obs_child_blocks)\n',
        '            self._enter("child_blocks")\n',
        [PROTOCOL_TESTS + "test_completed_child_leaves_no_timer_armed"],
    ),
]


def occurrences(mutant: Mutant, src: Path = ROOT / "src") -> int:
    """How often the mutant's fragment occurs in its file under `src`."""
    return (src / "rsd" / mutant.file).read_text(encoding="utf-8").count(mutant.fragment)


def _pytest(work: Path, tests: List[str]) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    # no bytecode: a mutant and the original can share a file's size and mtime
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main(argv: Optional[List[str]] = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        all_tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(work, all_tests) != 0:
            print("the listed tests fail on the unmutated source", file=sys.stderr)
            return 1
        survivors = 0
        for m in chosen:
            target = work / "src" / "rsd" / m.file
            original = target.read_text(encoding="utf-8")
            if original.count(m.fragment) != 1:
                print(f"{m.name}: fragment does not occur exactly once", file=sys.stderr)
                return 2
            target.write_text(original.replace(m.fragment, m.replacement), encoding="utf-8")
            killed = _pytest(work, m.tests) != 0
            target.write_text(original, encoding="utf-8")
            survivors += not killed
            print(f"{m.name}: {'killed by' if killed else 'SURVIVED'} {', '.join(m.tests)}")
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
