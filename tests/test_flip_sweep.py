"""Single-bit flips of the encoded labels end in a structured outcome."""
import sys
from pathlib import Path

from rsd.generators import path, star

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from flip_sweep import sweep  # noqa: E402


def test_every_label_bit_flip_of_path5_and_star4_is_caught_or_harmless():
    # 93 + 99 flips; an exception outside SimulationError would escape
    # run_protocol and fail the test
    counts = sweep(path(5)) + sweep(star(4))
    assert counts == {
        "refused": 75,
        "correct": 41,
        "stall": 61,
        "desync root_collect": 10,
        "desync member_blocks": 1,
        "desync wave_delta": 4,
    }
    assert counts["silent"] == counts["other"] == 0
