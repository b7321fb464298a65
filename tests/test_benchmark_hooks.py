"""Smoke test of the hooks the benchmark's tracer installs on rsd.

`benchmarks/tracer.py` wraps rsd functions and methods by name and reads
`WaveListener.cands`; a rename in src/ would break the traced runs.
"""
import sys
from pathlib import Path

from rsd.generators import random_tree
from rsd.protocol import run_protocol

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from tracer import Tracer, instrument  # noqa: E402


def test_traced_run_counts_listener_pulses_and_schedule_queries():
    tracer = Tracer()
    with instrument(tracer):
        res = run_protocol(random_tree(12, 3, 1))
    assert res.ok
    assert tracer.counts["protocol.listener_pulses"] > 0
    assert tracer.counts["radio.schedule_queries"] > 0
