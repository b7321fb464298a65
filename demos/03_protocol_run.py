"""Run size discovery end to end and narrate what the nodes did.

Only labels and radio observations drive the nodes: degree-learning tags
reach the root in the first rounds, floods teach everyone the degree, their
level, and the depth, then one bottom-up phase per level transfers weights
to the upper sets, and a final flood announces the size.
"""
from itertools import islice

from rsd import run_protocol
from rsd.graphs import Graph

diamond = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
result = run_protocol(diamond, record_trace=True, record_events=True)

print("outputs:", result.outputs)
print("rounds used:", result.rounds_used, "of cap", result.round_cap)
assert result.ok

print("\nwhat node 3 (the deepest node) went through:")
for event in result.nodes[3].events:
    print("  ", event)

print("\nfirst 16 rounds on the air (round node action observation):")
for text in islice(result.trace.iter_text(), 16):  # one round's text each
    for line in text.splitlines():
        action, obs = line.split()[2:]
        if action != "L" or obs not in ("S", "-"):
            print("  ", line)

report = result.report(diamond)
print("\nmachine-readable report:", report)
