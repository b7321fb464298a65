"""Size discovery in radio networks with collision detection.

A centralized oracle assigns every node a short label (seven markers plus
three small tags, O(log log Delta) bits total); the nodes, knowing nothing
else, then jointly determine the network size over a synchronous radio
channel where only lone transmissions are received and collisions are
audible.  The package also contains the matching lower-bound machinery:
history computations over a hard tree family and the exact pattern-counting
bound.
"""
from .graphs import Graph, GraphFormatError, LevelDecomposition, decompose, parse_graph
from .history_lab import (
    FamilyTree,
    HistoryTable,
    Pattern,
    build_family,
    check_lemmas,
    compute_histories,
    crossover,
    label_universe,
    matched_labelings,
    pattern_bound,
    pattern_bound_second_path,
    pattern_of,
    seeded_automaton,
)
from .labels import (
    Label,
    LabelFormatError,
    LabelingScheme,
    Tag,
    assign_labels,
    decode_label,
    encode_label,
    format_labels_file,
    length_bound,
)
from .protocol import (
    MalformedWaveError,
    ProtocolDesyncError,
    ProtocolResult,
    SizeDiscoveryNode,
    run_protocol,
    t1_formula,
    tau_formula,
    wave_decode,
    wave_encode,
)
from .radio import (
    COLLISION,
    NOT_LISTENING,
    SILENCE,
    CollisionTagMsg,
    DeltaLearn,
    Heard,
    HopValue,
    Opaque,
    SimulationError,
    SimulationTrace,
    Stop,
    WavePulse,
    WeightReport,
    resolve_round,
    run,
    run_scheduled,
)
from .upper_sets import (
    OraclePlanError,
    UpperSetPlan,
    bitlen,
    collision_tag_map,
    compute_upper_sets,
    compute_weights,
    finalize_weight_tags,
    weight_tag_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
