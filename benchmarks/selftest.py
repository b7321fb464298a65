"""Self-test of the benchmark's checks at tiny sizes.

    python3 benchmarks/selftest.py

Runs small instances through the benchmark's own operations and checks and
expects no errors; then corrupts each output in one way (an output off by
one, a wrong diameter, a flipped trace observation, ...) and expects the
check to reject it.  A check that cannot fail shows up here as a
corruption that passes.  Exits 1 if any case misbehaves.
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import run as bench

bench._import_program()

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from rsd import generators  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(case: str, errors, fragment: str | None):
    """fragment None: no errors expected; else an error containing it."""
    errors = list(errors)
    ok = not errors if fragment is None else any(fragment in e for e in errors)
    RESULTS.append((case, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {case}" + ("" if ok else f": {errors[:2]}"))


def inst(name, kind, g, shape=()):
    return wl.Instance(name, kind, g, shape)


def small_instances():
    return [
        inst("tree", "tree", generators.random_tree(14, 3, 5)),
        inst("graph", "graph", generators.random_connected_graph(12, 4, 9)),
        inst("path", "path", generators.path(7)),
        inst("cycle", "cycle", wl.cycle(9)),
        inst("grid", "grid", wl.grid(3, 4), (3, 4)),
        inst("star", "star", generators.star(5)),
        inst("K2", "star", generators.star(1)),
        inst("relabelled", "tree", wl.relabel(generators.random_tree(15, 4, 2), 7, 0)),
    ]


def run_cases():
    for item in small_instances():
        op = wl.RunOp(item)
        res = op.execute()
        expect(f"run {item.name}: clean output passes", bench.check_one(op, res)[0], None)
        expect(f"diameter {item.name}: closed form equals Graph.diameter",
               [] if checks.expected_diameter(item.kind, item.graph.n, item.graph.edges, item.shape)
               == item.graph.diameter() else ["differs"], None)

    op = wl.RunOp(small_instances()[0])
    res = op.execute()
    g = op.inst.graph
    root = res.decomposition.root

    def corrupted(case, fragment, **changes):
        expect(case, bench.check_one(op, dataclasses.replace(res, **changes))[0], fragment)

    corrupted("output off by one", "do not output n", outputs={**res.outputs, 3: g.n + 1})
    corrupted("run reported failed", "run not ok", ok=False)
    corrupted("rounds_used off by one", "!= timeline", rounds_used=res.rounds_used + 1)
    corrupted("round cap from a wrong diameter", "round cap",
              round_cap=res.round_cap // checks.expected_diameter("tree", g.n, g.edges)
              * (checks.expected_diameter("tree", g.n, g.edges) + 1))
    corrupted("rounds over the cap", "exceeds", rounds_used=res.round_cap + 1)
    corrupted("root weight wrong", "root weight", oracle_weights={**res.oracle_weights, root: g.n - 1})
    leaf = res.decomposition.levels[-1][0]
    corrupted("level weight sum wrong", "weights sum",
              oracle_weights={**res.oracle_weights, leaf: 2})
    members = res.plan.us[0]
    child = res.plan.nprime[members[0]][0]
    nprime = {**res.plan.nprime, members[0]: res.plan.nprime[members[0]][1:]}
    corrupted("private children not a partition", "partition",
              plan=dataclasses.replace(res.plan, nprime=nprime))
    corrupted("wrong root", "differs from BFS",
              decomposition=dataclasses.replace(res.decomposition, root=child))
    v = next(iter(res.scheme.encoded))
    bits = res.scheme.encoded[v]
    flipped = ("1" if bits[0] == "0" else "0") + bits[1:]
    corrupted("label bit flipped", "decodes to",
              scheme=dataclasses.replace(res.scheme, encoded={**res.scheme.encoded, v: flipped}))
    corrupted("label over the length bound", "bits >",
              scheme=dataclasses.replace(res.scheme, encoded={**res.scheme.encoded, v: bits + "0" * 40}))
    corrupted("label with trailing bits", "trailing",
              scheme=dataclasses.replace(res.scheme, encoded={**res.scheme.encoded, v: bits + "0"}))


def label_cases():
    item = inst("star", "star", generators.star(40))
    op = wl.LabelOp(item)
    out = op.execute()
    expect("labelling star: clean output passes", bench.check_one(op, out)[0], None)
    expect("labelling: wrong diameter", bench.check_one(op, dataclasses.replace(out, diameter=3))[0], "diameter")
    expect("labelling: wrong round cap", bench.check_one(op, dataclasses.replace(out, round_cap=out.round_cap + 1))[0],
           "round cap")


def cli_cases(work: Path):
    item = inst("tree", "tree", generators.random_tree(10, 3, 4))
    graph_file = work / "t.g"
    graph_file.write_text(item.graph.to_text())
    op = wl.CliOp(item, str(graph_file), str(work / "t.trace"), str(work / "t.json"))
    code, stdout = op.execute()
    expect("rsd run --trace: clean output passes", bench.check_one(op, (code, stdout))[0], None)
    expect("rsd run: nonzero exit", bench.check_one(op, (1, stdout))[0], "exited")

    trace = Path(op.trace_file).read_text()
    lines = trace.splitlines()
    k = next(i for i, line in enumerate(lines) if line.endswith(" L S"))
    for new, what in (("C", "silence read as collision"), ("H:WavePulse", "silence read as a message")):
        bad = lines[:k] + [lines[k][: -1] + new] + lines[k + 1:]
        Path(op.trace_file).write_text("\n".join(bad) + "\n")
        expect(f"trace: {what}", bench.check_one(op, (code, stdout))[0], "rule gives")
    k = next(i for i, line in enumerate(lines) if " T:" in line)
    r = lines[k].split()[0]
    bad = lines[:k] + [" ".join(lines[k].split()[:2] + ["L", "S"])] + lines[k + 1:]
    Path(op.trace_file).write_text("\n".join(bad) + "\n")
    expect(f"trace: transmitter in round {r} dropped", bench.check_one(op, (code, stdout))[0], "rule gives")
    Path(op.trace_file).write_text(trace)

    report = Path(op.report_file).read_text()
    forged = report.replace('"rounds_used":', '"rounds_used":1')
    Path(op.report_file).write_text(forged)
    expect("report: rounds_used changed", bench.check_one(op, (code, forged))[0], "fast-engine report")


def lemma_cases():
    op = wl.LemmaOp(4, 4)
    report, bound = op.execute()
    expect("check_lemmas: clean report passes", bench.check_one(op, (report, bound))[0], None)
    expect("check_lemmas: a violation", bench.check_one(op, ({**report, "violations": [{"lemma": "x"}]}, bound))[0],
           "violations")
    expect("pattern bound off by one", bench.check_one(op, (report, bound + 1))[0], "pattern bound")
    expect("pattern count at beta 0, 1", [] if (checks.pattern_count(0), checks.pattern_count(1))
           == (324, 104976) else ["differs"], None)


def determinism_case():
    class Drifting:
        calls = 0

        def execute(self):
            self.calls += 1
            return self.calls

        def digest(self, out):
            return out

    r = bench.Run([Drifting()])
    r.one_pass()
    r.one_pass()
    expect("output differing between passes is caught", [] if r.mismatches == [1] else ["missed"], None)


def recipe_cases():
    g = generators.random_tree(30, 4, 1)
    h = wl.relabel(g, 5, 3)
    root_ok = h.degree(0) == h.max_degree() == g.max_degree()
    same = sorted(map(h.degree, range(h.n))) == sorted(map(g.degree, range(g.n)))
    expect("relabel pins the root and keeps degrees", [] if root_ok and same else ["differs"], None)
    expect("relabel is the identity at seed 0", [] if wl.relabel(g, 0, 3) is g else ["differs"], None)
    tests = bench.ROOT / "tests"
    if not (tests / "test_acceptance.py").exists():
        return
    sys.path.insert(0, str(tests))
    from test_acceptance import build_corpus

    ours = [(name, build().edges) for name, _kind, build in wl.corpus_recipe(1)]
    theirs = [(name, g.edges) for name, g in build_corpus()]
    expect("seed 0, stride 1 is the acceptance corpus", [] if ours == theirs else ["differs"], None)


def main() -> int:
    with bench.work_dir() as work:
        run_cases()
        label_cases()
        cli_cases(work)
        lemma_cases()
        determinism_case()
        recipe_cases()
    failed = [case for case, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-test cases behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
