"""Flip sweep: every single-bit flip of every encoded label, run end to end.

For each graph, each node v and each bit of v's encoded label, v's string
alone gets that bit flipped, injected through `assign_labels` (as
`tests/test_cli.py::test_run_fails_on_a_label_that_does_not_decode` injects
a bad label), and `run_protocol` runs the graph.  Each run lands in one
class:

    refused   the string does not decode: the run fails at round 0
    correct   every node outputs n and is done
    stall     no node will ever transmit again, or the round cap runs out
    desync    a node heard what its stage cannot explain (counted by stage)
    other     the run failed in any other way
    silent    the run ended without a failure, but some output is wrong

It prints one row per graph, a total and the desyncs by stage, and exits
1 if any run gave a silent wrong answer.  An exception that escapes
`run_protocol` stops the sweep with its traceback.

    PYTHONPATH=src python scripts/flip_sweep.py
"""
from __future__ import annotations

import re
import sys
from collections import Counter
from typing import Dict

from rsd import protocol
from rsd.generators import path, random_connected_graph, random_tree, star
from rsd.graphs import Graph, decompose
from rsd.labels import assign_labels
from rsd.upper_sets import compute_upper_sets, compute_weights

GRAPHS = {
    "path(5)": lambda: path(5),
    "star(4)": lambda: star(4),
    "random_tree(12,4,1)": lambda: random_tree(12, 4, 1),
    "random_connected_graph(12,4,3,extra_edges=6)": lambda: random_connected_graph(12, 4, 3, extra_edges=6),
}
CLASSES = ("refused", "correct", "stall", "desync", "other", "silent")
_DESYNC = re.compile(r"round \d+, node \d+: \[(\w+)\] ")


def outcome(res: protocol.ProtocolResult) -> str:
    """The class of one run; a desync is "desync <stage>"."""
    failure = res.failure
    if failure is None:
        return "correct" if res.ok else "silent"
    if res.rounds_used == 0 and "label does not decode" in failure:
        return "refused"
    if "no node will ever transmit again" in failure or failure.startswith("round cap "):
        return "stall"
    desync = _DESYNC.match(failure)
    return f"desync {desync.group(1)}" if desync else "other"


def flipped_run(g: Graph, v: int, i: int) -> protocol.ProtocolResult:
    """`run_protocol(g)` with bit i of node v's encoded label flipped."""
    real = protocol.assign_labels

    def flipped(*args):
        scheme = real(*args)
        bits = scheme.encoded[v]
        scheme.encoded[v] = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1 :]
        return scheme

    protocol.assign_labels = flipped
    try:
        return protocol.run_protocol(g)
    finally:
        protocol.assign_labels = real


def sweep(g: Graph) -> Counter:
    """The outcome of every single-bit flip of every node's label of g."""
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    encoded = assign_labels(g, d, plan, compute_weights(plan, d)).encoded
    return Counter(outcome(flipped_run(g, v, i)) for v in range(g.n) for i in range(len(encoded[v])))


def _row(name: str, counts: Counter) -> str:
    by_class = Counter()
    for key, k in counts.items():
        by_class[key.split()[0]] += k
    cells = [f"{sum(counts.values()):>6}"] + [f"{by_class[c]:>8}" for c in CLASSES]
    return f"{name:<46}" + "".join(cells)


def main() -> int:
    results: Dict[str, Counter] = {name: sweep(build()) for name, build in GRAPHS.items()}
    total = sum(results.values(), Counter())
    print(f"{'graph':<46}{'flips':>6}" + "".join(f"{c:>8}" for c in CLASSES))
    for name, counts in results.items():
        print(_row(name, counts))
    print(_row("total", total))
    stages = sorted((key.split()[1], k) for key, k in total.items() if key.startswith("desync "))
    print("desyncs by stage: " + (", ".join(f"{stage} {k}" for stage, k in stages) or "none"))
    return 1 if total["silent"] else 0


if __name__ == "__main__":
    sys.exit(main())
