"""Size discovery in radio networks with collision detection.

A centralized oracle assigns every node a short label (seven markers plus
three small tags, O(log log Delta) bits total); the nodes, knowing nothing
else, then jointly determine the network size over a synchronous radio
channel where only lone transmissions are received and collisions are
audible.  The package also contains the matching lower-bound machinery:
history computations over a hard tree family and the exact pattern-counting
bound.
"""
from .graphs import decompose, parse_graph
from .history_lab import (
    build_family,
    check_lemmas,
    compute_histories,
    crossover,
    matched_labelings,
    pattern_bound,
    pattern_of,
    seeded_automaton,
)
from .labels import assign_labels, decode_label, encode_label, length_bound
from .protocol import run_protocol
from .upper_sets import compute_upper_sets, compute_weights

# the names the demos import; the CLI, tests and benchmarks import submodules
__all__ = [
    "assign_labels",
    "build_family",
    "check_lemmas",
    "compute_histories",
    "compute_upper_sets",
    "compute_weights",
    "crossover",
    "decode_label",
    "decompose",
    "encode_label",
    "length_bound",
    "matched_labelings",
    "parse_graph",
    "pattern_bound",
    "pattern_of",
    "run_protocol",
    "seeded_automaton",
]
__version__ = "0.1.0"
