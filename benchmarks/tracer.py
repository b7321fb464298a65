"""Per-module spans and counts, recorded from outside the program.

`instrument(tracer)` wraps the public functions of each rsd module for the
duration of a `with` block and restores the originals afterwards; nothing
under src/ is edited.  Spans nest on a stack: a span's self time is its
duration minus the time its child spans cover.  Spans are aggregated by
name as they close, so the hot automaton methods cost no memory per call.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from rsd import cli, generators, graphs, history_lab, labels, protocol, radio, upper_sets


class Tracer:
    """Span times and counts of one traced set-up or pass."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[list[float]] = [[0.0]]
        # rounds at which run_scheduled asks nodes to decide, counted once each
        self.in_scheduled = False
        self.last_round = None

    def span(self, name, fn, after=None):
        """Wrap fn in a span; `after(result, args)` runs once the span closed."""
        stack, total, self_time = self.stack, self.total, self.self_time

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                stack[-1][0] += took
                total[name] += took
                self_time[name] += took - frame[0]
            if after is not None:
                after(out, args)
            return out

        return wrapper


def _rsd_modules():
    return [m for name, m in list(sys.modules.items()) if name == "rsd" or name.startswith("rsd.")]


@contextmanager
def instrument(tracer: Tracer | None):
    """Install the tracer's wrappers (no-op for None); always restore."""
    if tracer is None:
        yield
        return
    undo = []

    def patch_function(owner, name, make):
        orig = getattr(owner, name)
        new = make(orig)
        for mod in _rsd_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, value))
                    setattr(mod, key, new)

    def patch_method(cls, name, make, static=False):
        raw = cls.__dict__[name]
        new = make(raw.__func__ if static else raw)
        undo.append((cls, name, raw))
        setattr(cls, name, staticmethod(new) if static else new)

    t = tracer
    counts = t.counts
    span = t.span

    for name in ("random_tree", "random_connected_graph", "star", "path", "family_member"):
        patch_function(generators, name, lambda f: span("generators", f))
    patch_method(graphs.Graph, "from_edges", lambda f: span("graphs.from_edges", f), static=True)
    patch_method(graphs.Graph, "diameter", lambda f: span("graphs.diameter", f))

    def bfs_levels(f):
        def wrapper(self, source):
            counts["graphs.bfs_runs"] += 1
            return f(self, source)
        return wrapper

    patch_method(graphs.Graph, "bfs_levels", bfs_levels)
    patch_function(graphs, "decompose", lambda f: span("graphs.decompose", f))

    def count_members(plan, _args):
        counts["upper_sets.members"] += sum(len(us) for us in plan.us.values())

    patch_function(upper_sets, "compute_upper_sets",
                   lambda f: span("upper_sets.compute_upper_sets", f, count_members))
    patch_function(upper_sets, "compute_weights", lambda f: span("upper_sets.compute_weights", f))
    patch_function(upper_sets, "finalize_weight_tags",
                   lambda f: span("upper_sets.finalize_weight_tags", f))

    def count_bits(scheme, _args):
        counts["labels.bits"] += sum(len(b) for b in scheme.encoded.values())
        counts["labels.labels"] += len(scheme.encoded)

    patch_function(labels, "assign_labels", lambda f: span("labels.assign_labels", f, count_bits))

    def run_scheduled(f):
        inner = span("radio.run_scheduled", f)

        def wrapper(*args, **kwargs):
            t.in_scheduled, t.last_round = True, None
            try:
                return inner(*args, **kwargs)
            finally:
                t.in_scheduled = False
        return wrapper

    patch_function(radio, "run_scheduled", run_scheduled)
    patch_function(radio, "run", lambda f: span("radio.run", f))

    def count_rounds(_obs, _args):
        counts["radio.resolve_round_calls"] += 1

    patch_function(radio, "resolve_round", lambda f: span("radio.resolve_round", f, count_rounds))

    def count_bytes(text, _args):
        counts["radio.trace_bytes"] += len(text.encode())

    patch_method(radio.SimulationTrace, "format_text",
                 lambda f: span("radio.format_trace", f, count_bytes))

    stack, total = t.stack, t.total

    def automaton(f, calls, on_result=None):
        def wrapper(node, r, *rest):
            counts[calls] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = f(node, r, *rest)
            finally:
                took = perf_counter() - start
                stack.pop()
                stack[-1][0] += took
                total["protocol.automaton"] += took
            if on_result is not None:
                on_result(r, out)
            return out
        return wrapper

    def on_decide(r, msg):
        if t.in_scheduled and r != t.last_round:
            counts["radio.nonsilent_rounds"] += 1
            t.last_round = r
        if msg is not None:
            counts["protocol.transmissions"] += 1
            if isinstance(msg, radio.WavePulse):
                counts["protocol.wave_pulses"] += 1

    node = protocol.SizeDiscoveryNode
    patch_method(node, "decide", lambda f: automaton(f, "protocol.decide_calls", on_decide))
    patch_method(node, "observe", lambda f: automaton(f, "protocol.observe_calls"))
    patch_method(node, "next_transmit_round",
                 lambda f: automaton(f, "radio.schedule_queries"))

    def pulse(f):
        def wrapper(self, r):
            counts["protocol.listener_pulses"] += 1
            counts["protocol.listener_candidates"] += len(self.cands)
            return f(self, r)
        return wrapper

    patch_method(protocol.WaveListener, "pulse", pulse)
    patch_function(protocol, "run_protocol", lambda f: span("protocol.run_protocol", f))
    patch_function(cli, "main", lambda f: span("cli.main", f))
    patch_function(history_lab, "check_lemmas", lambda f: span("history_lab.check_lemmas", f))

    def count_steps(_hist, args):
        tree, _labeling, _automaton, rounds = args[:4]
        counts["history_lab.history_steps"] += rounds * tree.n

    patch_function(history_lab, "compute_histories",
                   lambda f: span("history_lab.compute_histories", f, count_steps))
    try:
        yield
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-module figures named in BENCHMARK.json, from one tracer."""
    c, tot, own = t.counts, t.total, t.self_time
    return {
        "generators.self_s": own["generators"],
        "graphs.from_edges_s": tot["graphs.from_edges"],
        "graphs.diameter_s": tot["graphs.diameter"],
        "graphs.bfs_runs": c["graphs.bfs_runs"],
        "graphs.decompose_s": tot["graphs.decompose"],
        "upper_sets.compute_upper_sets_s": tot["upper_sets.compute_upper_sets"],
        "upper_sets.compute_weights_s": tot["upper_sets.compute_weights"],
        "upper_sets.finalize_weight_tags_s": tot["upper_sets.finalize_weight_tags"],
        "upper_sets.members": c["upper_sets.members"],
        "labels.assign_labels_self_s": own["labels.assign_labels"],
        "radio.run_scheduled_self_s": own["radio.run_scheduled"],
        "radio.schedule_queries": c["radio.schedule_queries"],
        "radio.nonsilent_rounds": c["radio.nonsilent_rounds"],
        "radio.run_self_s": own["radio.run"],
        "radio.resolve_round_s": tot["radio.resolve_round"],
        "radio.resolve_round_calls": c["radio.resolve_round_calls"],
        "radio.format_trace_s": tot["radio.format_trace"],
        "radio.trace_bytes": c["radio.trace_bytes"],
        "protocol.automaton_s": tot["protocol.automaton"],
        "protocol.decide_calls": c["protocol.decide_calls"],
        "protocol.observe_calls": c["protocol.observe_calls"],
        "protocol.transmissions": c["protocol.transmissions"],
        "protocol.wave_pulses": c["protocol.wave_pulses"],
        "protocol.listener_pulses": c["protocol.listener_pulses"],
        "protocol.listener_candidates": c["protocol.listener_candidates"],
        "protocol.run_protocol_self_s": own["protocol.run_protocol"],
        "cli.self_s": own["cli.main"],
        "history_lab.check_lemmas_self_s": own["history_lab.check_lemmas"],
        "history_lab.compute_histories_s": tot["history_lab.compute_histories"],
        "history_lab.history_steps": c["history_lab.history_steps"],
        "labels.bits": c["labels.bits"],
        "labels.labels": c["labels.labels"],
    }
