"""The four benchmark workloads.

Each workload turns a seed into a list of operations (its set-up: the graphs
and, for the CLI, the graph files) and runs them as one pass.  An operation
knows how to execute itself, how to summarise its output for the
determinism check between passes, and how to check its output with the
code in checks.py.

The seed relabels node ids, pinning the paper's root (the lowest-id
maximum-degree node) at id 0; shapes come from fixed recipes.  In
traced_lab it sets the lemma checks' seeds instead.  Seed 0 is
the identity, so `corpus_recipe(1)` at seed 0 is exactly the acceptance
corpus of tests/test_acceptance.py.  Regenerating shapes per seed would
move the summed round count of the corpus slice by ~19% (interquartile
range over five seeds); relabelling moves it by ~0.2%, so the figures stay
comparable across seeds while the oracle's id tie-breaks still vary.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from rsd import cli, generators, graphs, history_lab, labels, protocol, upper_sets

import checks

CAPS = (3, 4, 6, 8, 12, 32)
# One corpus pass runs every 16th tree and graph of the acceptance recipe
# plus all its small structured instances: the whole recipe takes ~45 s,
# too long to repeat within one run.
CORPUS_STRIDE = 16
DEEP_PATH, DEEP_CYCLE, DEEP_GRID = 90, 91, (12, 12)
ORACLE_TREE, ORACLE_GRAPH, ORACLE_STAR = (3000, 16, 1), (1500, 16, 1), 2048
TRACED_TREES = ((40, 6, 30_040), (60, 6, 30_060), (80, 6, 30_080))
LEMMA_DELTAS, LEMMA_TRIALS, LEMMA_ROUNDS, LEMMA_BETA = (4, 6, 8, 12), 8, 200, 1


@dataclass(frozen=True)
class Instance:
    name: str
    kind: str  # path, cycle, grid, star, tree, family, graph
    graph: graphs.Graph
    shape: tuple = ()


@dataclass(frozen=True)
class Failure:
    message: str


@dataclass(frozen=True)
class Figures:
    """What one checked operation contributes to the end-to-end figures."""

    rounds: int = 0
    label_bits: int = 0
    timeline: checks.Timeline | None = None


def relabel(g: graphs.Graph, seed: int, index: int) -> graphs.Graph:
    """Random node ids with the root pinned at 0; the identity for seed 0."""
    if seed == 0:
        return g
    rng = random.Random(f"rsd-bench:{seed}:{index}")
    perm = list(range(g.n))
    rng.shuffle(perm)
    delta = g.max_degree()
    root = min(v for v in range(g.n) if g.degree(v) == delta)
    j = perm.index(0)
    perm[j], perm[root] = perm[root], perm[j]
    return graphs.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def cycle(n: int) -> graphs.Graph:
    return graphs.Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def grid(rows: int, cols: int) -> graphs.Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return graphs.Graph.from_edges(rows * cols, edges)


def corpus_recipe(stride: int):
    """(name, kind, build) for the acceptance corpus recipe; stride 1 gives
    all of it, a larger stride every stride-th tree and graph."""
    for i in range(0, 300, stride):
        n, cap = 2 + (i * 97) % 149, CAPS[i % len(CAPS)]
        yield f"tree-{i}", "tree", lambda n=n, cap=cap, i=i: generators.random_tree(n, cap, 10_000 + i)
    for i in range(0, 150, stride):
        n, cap = 3 + (i * 89) % 148, CAPS[(i + 3) % len(CAPS)]
        yield f"graph-{i}", "graph", lambda n=n, cap=cap, i=i: generators.random_connected_graph(
            n, cap, 20_000 + i
        )
    yield "K2", "star", lambda: generators.star(1)
    for n in range(3, 11):
        yield f"path-{n}", "path", lambda n=n: generators.path(n)
    for delta in range(1, 13):
        yield f"star-{delta}", "star", lambda delta=delta: generators.star(delta)
    yield "diamond", "graph", lambda: graphs.Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for delta in range(2, 13):
        for tree in history_lab.build_family(delta):
            yield f"family-{delta}-{tree.i}", "family", lambda tree=tree: tree.graph


def _instances(recipe, seed):
    return [
        Instance(name, kind, relabel(build(), seed, index), shape)
        for index, (name, kind, build, shape) in enumerate(recipe)
    ]


# --- operations ------------------------------------------------------------


def _blocks(g, d, plan, weights):
    return lambda: upper_sets.finalize_weight_tags(g, d, plan, weights)[1]


@dataclass(frozen=True)
class RunOp:
    """run_protocol on the fast engine."""

    inst: Instance

    @property
    def name(self):
        return self.inst.name

    def execute(self):
        return protocol.run_protocol(self.inst.graph)

    def digest(self, res):
        return (res.ok, res.rounds_used, res.round_cap, tuple(res.outputs.items()),
                tuple(res.scheme.encoded.items()))

    def check(self, res):
        blocks_of = _blocks(self.inst.graph, res.decomposition, res.plan, res.oracle_weights)
        errors, tl = checks.run_errors(self.inst, res, blocks_of)
        return errors, Figures(res.rounds_used, res.scheme.max_bits(), tl)


@dataclass(frozen=True)
class Labelling:
    decomposition: object
    plan: object
    weights: dict
    scheme: object
    diameter: int
    round_cap: int


@dataclass(frozen=True)
class LabelOp:
    """Labelling plus the round cap, as run_protocol does before simulating."""

    inst: Instance

    @property
    def name(self):
        return self.inst.name

    def execute(self):
        g = self.inst.graph
        d = graphs.decompose(g)
        plan = upper_sets.compute_upper_sets(g, d)
        weights = upper_sets.compute_weights(plan, d)
        scheme = labels.assign_labels(g, d, plan, weights)
        diameter = g.diameter()
        cap = protocol.round_cap_multiplier() * diameter * g.n * g.n * upper_sets.bitlen(d.delta)
        return Labelling(d, plan, weights, scheme, diameter, cap)

    def digest(self, out):
        return (out.diameter, out.round_cap, tuple(out.scheme.encoded.items()))

    def check(self, out):
        blocks_of = _blocks(self.inst.graph, out.decomposition, out.plan, out.weights)
        errors, tl = checks.labelling_errors(self.inst, out, blocks_of)
        # Nothing is simulated here: the rounds are those the oracle's
        # schedule implies, which equal rounds_used wherever it is simulated.
        return errors, Figures(tl.total if tl else 0, out.scheme.max_bits(), tl)


@dataclass(frozen=True)
class CliOp:
    """`rsd run GRAPH --trace FILE --report FILE`, in process."""

    inst: Instance
    graph_file: str
    trace_file: str
    report_file: str

    @property
    def name(self):
        return self.inst.name

    def execute(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["run", self.graph_file, "--trace", self.trace_file,
                             "--report", self.report_file])
        return code, out.getvalue()

    def digest(self, res):
        return res, hashlib.sha256(Path(self.trace_file).read_bytes()).hexdigest()

    def check(self, res):
        code, stdout = res
        report_text = Path(self.report_file).read_text()
        trace_text = Path(self.trace_file).read_text()
        g = self.inst.graph
        fast = protocol.run_protocol(g)
        blocks_of = _blocks(g, fast.decomposition, fast.plan, fast.oracle_weights)
        errors, tl = checks.run_errors(self.inst, fast, blocks_of)
        errors += checks.cli_errors(self.inst, code, stdout, report_text, trace_text, fast)
        report = json.loads(report_text)
        return errors, Figures(report["rounds_used"], report["max_label_bits"], tl)


@dataclass(frozen=True)
class LemmaOp:
    """check_lemmas at one degree, plus the exact pattern count."""

    delta: int
    seed: int

    @property
    def name(self):
        return f"lemmas-{self.delta}"

    def execute(self):
        report = history_lab.check_lemmas(self.delta, trials=LEMMA_TRIALS, rounds=LEMMA_ROUNDS,
                                          seed=self.seed, beta=LEMMA_BETA)
        return report, history_lab.pattern_bound(LEMMA_BETA)

    def digest(self, res):
        return json.dumps(res[0], sort_keys=True), res[1]

    def check(self, res):
        report, bound = res
        return checks.lemma_errors(report, self.delta, LEMMA_TRIALS, LEMMA_ROUNDS, bound,
                                   LEMMA_BETA), Figures()


# --- set-up per workload ------------------------------------------------------


def setup_corpus(seed, _work):
    recipe = [(name, kind, build, ()) for name, kind, build in corpus_recipe(CORPUS_STRIDE)]
    return [RunOp(inst) for inst in _instances(recipe, seed)]


def setup_deep(seed, _work):
    rows, cols = DEEP_GRID
    recipe = [
        (f"path-{DEEP_PATH}", "path", lambda: generators.path(DEEP_PATH), ()),
        (f"cycle-{DEEP_CYCLE}", "cycle", lambda: cycle(DEEP_CYCLE), ()),
        (f"grid-{rows}x{cols}", "grid", lambda: grid(rows, cols), DEEP_GRID),
    ]
    return [RunOp(inst) for inst in _instances(recipe, seed)]


def setup_oracle_large(seed, _work):
    recipe = [
        ("tree-%d" % ORACLE_TREE[0], "tree", lambda: generators.random_tree(*ORACLE_TREE), ()),
        ("graph-%d" % ORACLE_GRAPH[0], "graph",
         lambda: generators.random_connected_graph(*ORACLE_GRAPH), ()),
        ("star-%d" % ORACLE_STAR, "star", lambda: generators.star(ORACLE_STAR), ()),
    ]
    return [LabelOp(inst) for inst in _instances(recipe, seed)]


def setup_traced_lab(seed, work: Path):
    recipe = [
        (f"tree-{n}", "tree", lambda n=n, cap=cap, s=s: generators.random_tree(n, cap, s), ())
        for n, cap, s in TRACED_TREES
    ]
    ops = []
    # The seed moves only the lemma checks: relabelled, three trees are too
    # few for the longest label to saturate, and label_bits_max jumped
    # between 23 and 25 bits from seed to seed.
    for inst in _instances(recipe, 0):
        graph_file = work / f"{inst.name}.g"
        graph_file.write_text(inst.graph.to_text())
        ops.append(CliOp(inst, str(graph_file), str(work / f"{inst.name}.trace"),
                         str(work / f"{inst.name}.json")))
    # Seed 0 gives the acceptance gate's lemma seeds (seed = delta).
    ops += [LemmaOp(delta, delta + 1000 * seed) for delta in LEMMA_DELTAS]
    return ops


WORKLOADS = {
    "corpus": setup_corpus,
    "deep": setup_deep,
    "oracle_large": setup_oracle_large,
    "traced_lab": setup_traced_lab,
}
