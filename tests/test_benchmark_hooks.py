"""Smoke test of the hooks the benchmark's tracer installs on rsd.

`benchmarks/tracer.py` wraps rsd functions and methods by name and reads
`WaveListener.cands`; a rename in src/ would break the traced runs.  The
benchmark's self-test runs here too.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rsd.generators import random_tree
from rsd.graphs import Graph
from rsd.history_lab import build_family, check_lemmas
from rsd.protocol import run_protocol

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from tracer import Tracer, instrument, layer_metrics  # noqa: E402


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def test_traced_run_counts_listener_pulses_and_schedule_queries():
    tracer = Tracer()
    with instrument(tracer):
        res = run_protocol(random_tree(12, 3, 1))
    assert res.ok
    assert tracer.counts["protocol.listener_pulses"] > 0
    assert tracer.counts["radio.schedule_queries"] > 0


@pytest.mark.parametrize("g", [random_tree(30, 4, 2), grid(4, 5)], ids=["tree", "grid"])
def test_traced_counts_match_the_trace(g):
    # the engine resolves pulse windows at once, yet every transmission is
    # still decided, so the tracer's counts agree with the trace text
    tracer = Tracer()
    with instrument(tracer):
        res = run_protocol(g, record_trace=True)
    assert res.ok
    sends = [line.split()[0] for line in res.trace.format_text().splitlines() if " T:" in line]
    assert tracer.counts["protocol.transmissions"] == len(sends)
    assert tracer.counts["radio.nonsilent_rounds"] == len(set(sends))
    assert tracer.counts["protocol.decide_calls"] == len(sends)
    assert tracer.counts["radio.resolve_round_calls"] < len(set(sends))


def test_traced_lemma_checks_count_every_history_step():
    # lemma 1 runs every member once per trial and lemma 2 runs every member
    # again: at delta 4 all members have the two hub leaves it needs
    tracer = Tracer()
    with instrument(tracer):
        report = check_lemmas(4, trials=2, rounds=10, seed=4)
    assert report["violations"] == []
    metrics = layer_metrics(tracer)
    assert metrics["history_lab.history_steps"] == 2 * 2 * 10 * sum(t.n for t in build_family(4))
    assert metrics["history_lab.compute_histories_s"] > 0


def test_benchmark_selftest_passes():
    # the benchmark's own checks still accept this program's outputs and
    # still reject each corrupted one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
