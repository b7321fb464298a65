"""Command-line surface: gen, oracle, label, run, lowerbound.

Exit codes: 0 success, 1 verification failure, 2 usage or format error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from typing import List, Optional, TextIO

from . import generators
from .graphs import Graph, decompose, parse_graph
from .history_lab import check_lemmas, crossover, pattern_bound
from .labels import assign_labels, format_labels_file, length_bound
from .protocol import run_protocol
from .upper_sets import compute_upper_sets, compute_weights

# The largest beta whose pattern bound z^2 * 3^(2z), z = 2^(beta+1), prints
# within Python's default 4300-digit limit on int-to-str conversion: 3916
# digits at beta 11, 7817 at beta 12.
MAX_BETA = 11


def _output(files: ExitStack, path: Optional[str]) -> TextIO:
    """Stdout for None or "-"; else `path`, opened for writing now and closed
    with `files`."""
    if path is None or path == "-":
        return sys.stdout
    return files.enter_context(open(path, "w", encoding="utf-8"))


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b resolve to one file, existing or not."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)  # hard links
    except OSError:  # one of them does not exist
        return False


def _outputs(files: ExitStack, *paths: Optional[str]) -> List[Optional[TextIO]]:
    """`_output` of each path given, None for one not given, opened all or
    none: two paths that resolve to one file are refused (ValueError), then
    each file is checked for writing without being emptied, and created if
    missing.  If one check fails, the files it created are removed and the
    error raised, so every path is left as it was."""
    named = [path for path in paths if path and path != "-"]
    for i, path in enumerate(named):
        for other in named[:i]:
            if _same_file(other, path):
                raise ValueError(f"two outputs name the same file: {other} and {path}")
    created = []
    try:
        for path in paths:
            if not path or path == "-":
                continue
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:
                os.close(os.open(path, os.O_WRONLY))
    except OSError:
        for path in created:
            os.remove(path)
        raise
    return [_output(files, path) if path else None for path in paths]


def _write(path: Optional[str], content: str) -> None:
    with ExitStack() as files:
        _output(files, path).write(content)


def _read_graph(path: str) -> Graph:
    """The graph file of `oracle`, `label` and `run`: the root needs a neighbor."""
    with open(path, "r", encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    if g.n < 2:
        raise ValueError(f"the graph needs n >= 2 nodes so the root has a neighbor, got n = {g.n}")
    return g


def _stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_gen(args) -> int:
    if args.kind == "star":
        g = generators.star(args.delta)
    elif args.kind == "tree":
        g = generators.random_tree(args.n, args.delta, args.seed)
    elif args.kind == "graph":
        g = generators.random_connected_graph(args.n, args.delta, args.seed, args.extra)
    else:  # "family", the last of the kinds argparse accepts
        if args.index is None:
            raise ValueError("--index is required for --kind family")
        g = generators.family_member(args.delta, args.index)
    _write(args.out, g.to_text())
    return 0


def cmd_oracle(args) -> int:
    g = _read_graph(args.graph)
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    lines = [
        f"n {g.n}",
        f"delta {d.delta}",
        f"h {d.h}",
        f"root {d.root}",
    ]
    for l, nodes in enumerate(d.levels):
        lines.append(f"level {l}: {' '.join(map(str, nodes))}")
    for l in range(d.h):
        lines.append(f"US({l}): {' '.join(map(str, plan.us[l]))}")
        for v in plan.us[l]:
            ids = " ".join(f"{u}:{plan.child_id[u]}" for u in plan.tag_order[v])
            lines.append(f"  N'({v}) = {' '.join(map(str, plan.nprime[v]))} | ids {ids}")
    lines.append("weights " + " ".join(f"{v}:{weights[v]}" for v in range(g.n)))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_label(args) -> int:
    g = _read_graph(args.graph)
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    scheme = assign_labels(g, d, plan, weights)
    _write(args.out, format_labels_file(scheme))
    print(
        f"max_bits {scheme.max_bits()} mean_bits {scheme.mean_bits():.2f} "
        f"bound {length_bound(d.delta)}",
        file=sys.stderr if args.out in (None, "-") else sys.stdout,
    )
    return 0


def cmd_run(args) -> int:
    g = _read_graph(args.graph)
    with ExitStack() as files:
        # opened before the run: a path that cannot be written costs no
        # simulation and changes no output
        trace_out, report_out = _outputs(files, args.trace, args.report)
        result = run_protocol(g, record_trace=trace_out is not None)
        if trace_out is not None:
            trace_out.writelines(result.trace.iter_text())
        report = _stable_json(result.report(g))
        if report_out is not None and report_out is not sys.stdout:
            report_out.write(report)
    sys.stdout.write(report)
    if not result.ok:
        if result.failure:
            print(f"failure: {result.failure}", file=sys.stderr)
        return 1
    return 0


def cmd_lowerbound(args) -> int:
    if args.beta > MAX_BETA:  # every mode has --beta
        print(f"beta {args.beta} exceeds the configured maximum {MAX_BETA}", file=sys.stderr)
        return 2
    if args.mode == "patterns":
        sys.stdout.write(f"{pattern_bound(args.beta)}\n")
        return 0
    if args.mode == "crossover":
        report = crossover(args.beta, args.delta)
        sys.stdout.write(_stable_json(report))
        return 0
    report = check_lemmas(
        args.delta, trials=args.trials, rounds=args.rounds, seed=args.seed, beta=args.beta
    )
    sys.stdout.write(_stable_json(report))
    return 0 if not report["violations"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsd",
        description="Size discovery in radio networks with collision detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", choices=["star", "tree", "graph", "family"], required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--delta", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=None, help="family member index i")
    p.add_argument("--extra", type=int, default=None, help="extra edges beyond the spanning tree")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="print levels, upper sets, and weights")
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("label", help="assign labels and report length statistics")
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("run", help="run size discovery end to end")
    p.add_argument("graph")
    p.add_argument("--trace", default=None, help="write a full round trace here")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("lowerbound", help="pattern counting and lemma checks")
    lb = p.add_subparsers(dest="mode", required=True)
    q = lb.add_parser("patterns")
    q.add_argument("--beta", type=int, required=True)
    q.set_defaults(func=cmd_lowerbound)
    q = lb.add_parser("crossover")
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--delta", type=int, required=True)
    q.set_defaults(func=cmd_lowerbound)
    q = lb.add_parser("lemmas")
    q.add_argument("--delta", type=int, required=True)
    q.add_argument("--rounds", type=int, default=100)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--beta", type=int, default=1)
    q.set_defaults(func=cmd_lowerbound)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
