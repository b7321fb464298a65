"""Byte-identity digests of rsd's outputs on six fixed sets.

Run it with the checkout to examine on the path, once per checkout, and
compare the printed lines; equal digests mean byte-identical outputs:

    PYTHONPATH=src python scripts/identity_digest.py [SET ...]

It prints one blake2b digest per set, with the number of records hashed:

- corpus: the 513-instance acceptance recipe (`tests/test_acceptance.py`),
  each through `rsd oracle`, `rsd label` and `rsd run --report` (with
  `--trace` where n <= 40): exit codes, stdout, stderr and written files;
  and through `run_protocol`: per-node events, outputs, `rounds_used` and
  `failure`, plus the trace text where n <= 40;
- deep: the same `run_protocol` record for path(90), cycle(91), the 12x12
  grid, path(150) and random_tree(1000,8,2);
- dense: the same record for random_connected_graph(300,16,1,extra_edges=300);
- small: the same record for all 27,475 connected labelled graphs on
  2 <= n <= 6;
- repair: the same record for the graphs whose phase replay needs a
  repair: random_connected_graph(n, cap, seed, extra_edges=2n) for the
  eight (n, cap, seed) of REPAIRS, and the DENSE_REPAIRS of
  `tests/test_regressions.py`;
- lab: the stdout and exit code of `rsd lowerbound lemmas` for delta 4,
  6, 8 and 12 at the acceptance gate's settings (50 trials, 200 rounds,
  seed delta) and at the benchmark's (8 trials, 200 rounds, seeds delta
  and delta + 1000), plus the exit code, stdout, stderr and trace file of
  `rsd run --trace` on the benchmark's three `traced_lab` trees.

With no SET named, all six are printed; `small` takes the longest.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from rsd import cli  # noqa: E402
from rsd.generators import path, random_connected_graph, random_tree  # noqa: E402
from rsd.graphs import Graph  # noqa: E402
from rsd.protocol import run_protocol  # noqa: E402

TRACE_MAX_N = 40  # larger traces are too long to hash on every graph


def record(h, g: Graph) -> None:
    """Hash one `run_protocol` run of g: its graph, verdict, failure,
    rounds, outputs, every node's events and, where n <= 40, the trace."""
    res = run_protocol(g, record_trace=g.n <= TRACE_MAX_N, record_events=True)
    events = [res.nodes[v].events for v in range(g.n)]
    h.update(repr((g.n, g.edges, res.ok, res.failure, res.rounds_used, res.outputs, events)).encode())
    if res.trace is not None:
        for chunk in res.trace.iter_text():  # one round at a time
            h.update(chunk.encode())


def record_cli(h, g: Graph, tmp: str) -> None:
    """Hash `rsd oracle`, `rsd label` and `rsd run --report [--trace]` on g's
    graph file: exit code, stdout, stderr and the files `run` wrote."""
    graph, report, trace = (os.path.join(tmp, name) for name in ("graph.txt", "report.json", "trace.txt"))
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write(g.to_text())
    run = ["run", graph, "--report", report] + (["--trace", trace] if g.n <= TRACE_MAX_N else [])
    for argv in (["oracle", graph], ["label", graph], run):
        for written in (report, trace):
            if os.path.exists(written):
                os.remove(written)
        code, stdout, stderr = run_cli(argv)
        files = []
        for written in (report, trace):
            if os.path.exists(written):
                with open(written, encoding="utf-8") as fh:
                    files.append(fh.read())
        h.update(repr((argv[0], code, stdout, stderr, files)).encode())


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`rsd ARGV` in process: its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def digest(graphs, with_cli: bool = False) -> tuple[str, int]:
    """The blake2b digest of every graph's record, and the record count."""
    h = hashlib.blake2b(digest_size=16)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for g in graphs:
            record(h, g)
            count += 1
            if with_cli:
                record_cli(h, g, tmp)
                count += 1
    return h.hexdigest(), count


def corpus():
    from test_acceptance import build_corpus

    return (g for _name, g in build_corpus())


def deep():
    from test_graphs import cycle, grid

    yield path(90)
    yield cycle(91)
    yield grid(12, 12)
    yield path(150)
    yield random_tree(1000, 8, 2)


def dense():
    yield random_connected_graph(300, 16, 1, extra_edges=300)


REPAIRS = [(65, 6, 7289), (73, 8, 7358), (46, 10, 7575), (56, 8, 7890),
           (71, 6, 8149), (34, 8, 8234), (73, 10, 8395), (38, 8, 8482)]


def repair():
    from test_regressions import DENSE_REPAIRS

    for n, cap, seed in REPAIRS:
        yield random_connected_graph(n, cap, seed, extra_edges=2 * n)
    for n, cap, seed, extra in DENSE_REPAIRS:
        yield random_connected_graph(n, cap, seed, extra_edges=extra)


def small():
    from test_graphs import connected_graphs

    for n in range(2, 7):
        yield from connected_graphs(n)


# (delta, trials, rounds, seed): the acceptance gate's lemma checks, then
# the benchmark's at its seeds 0 and 1
LAB_LEMMAS = [(d, 50, 200, d) for d in (4, 6, 8, 12)] + [
    (d, 8, 200, d + 1000 * seed) for seed in (0, 1) for d in (4, 6, 8, 12)
]
LAB_TREES = [(40, 6, 30_040), (60, 6, 30_060), (80, 6, 30_080)]  # random_tree(n, cap, seed)


def lab(lemmas=LAB_LEMMAS, trees=LAB_TREES) -> tuple[str, int]:
    """The digest of the lemma reports and the trees' traced runs, and the
    record count."""
    h = hashlib.blake2b(digest_size=16)
    for delta, trials, rounds, seed in lemmas:
        argv = ["lowerbound", "lemmas", "--delta", str(delta), "--trials", str(trials),
                "--rounds", str(rounds), "--seed", str(seed)]
        h.update(repr((argv, run_cli(argv))).encode())
    with tempfile.TemporaryDirectory() as tmp:
        graph, trace = os.path.join(tmp, "graph.txt"), os.path.join(tmp, "trace.txt")
        for shape in trees:
            with open(graph, "w", encoding="utf-8") as fh:
                fh.write(random_tree(*shape).to_text())
            result = run_cli(["run", graph, "--trace", trace])
            with open(trace, encoding="utf-8") as fh:
                h.update(repr((shape, result, fh.read())).encode())
    return h.hexdigest(), len(lemmas) + len(trees)


SETS = {
    "corpus": lambda: digest(corpus(), with_cli=True),
    "deep": lambda: digest(deep()),
    "dense": lambda: digest(dense()),
    "small": lambda: digest(small()),
    "repair": lambda: digest(repair()),
    "lab": lab,
}


def main(argv: list[str]) -> int:
    names = argv or list(SETS)
    unknown = [name for name in names if name not in SETS]
    if unknown:
        print(f"unknown set(s) {', '.join(unknown)}; choose from {', '.join(SETS)}", file=sys.stderr)
        return 2
    for name in names:
        value, count = SETS[name]()
        print(f"{name} {value} {count}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
