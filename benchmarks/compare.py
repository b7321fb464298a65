"""Compare two sets of benchmark results, or summarise one.

    python3 benchmarks/compare.py results/base results/change
    python3 benchmarks/compare.py results/base

A set is a directory written by sweep.py: <workload>/seed-<n>.json.  Per
workload and metric it prints each side's median and quartiles and the
spread (interquartile range over the median).  With two sets it says
whether each end-to-end metric stays within its bound, and whether each
count (any metric not measured in s, MiB or %) repeats exactly seed by
seed.  With one set it says whether each spread is below a third of the
metric's bound.  Exits 1 when an end-to-end metric is worse than its
bound or an operation failed.  A count that differs is reported but does
not fail: an optimisation is expected to change some counts, and within
one set of code the counts are held to exact repetition by run.py.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEASURED_UNITS = {"s", "ms", "MiB", "%"}


def load(directory: Path) -> dict[str, dict[int, dict]]:
    sets: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed-*.json")):
        seed = int(path.stem.split("-", 1)[1])
        sets.setdefault(path.parent.name, {})[seed] = json.loads(path.read_text())
    return sets


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(base, new, better):
    """Relative change in the worse direction; negative means better."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / base
    return change if better == "lower" else -change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(Path(d)) for d in argv]
    status = 0
    for workload in sorted(sides[0]):
        runs = [side.get(workload, {}) for side in sides]
        for label, side in zip(("base", "new"), runs):
            att = sum(r["attempted"] for r in side.values())
            fail = sum(r["failed"] for r in side.values())
            ok = all(r["correct"] for r in side.values())
            print(f"{workload} [{label}] {len(side)} runs, correct={ok}, failed {fail} of {att}")
            status |= fail > 0 or not ok
        names = [n for n in defs if all(n in r["metrics"] for side in runs for r in side.values())]
        for name in names:
            d = defs[name]
            vals = [[side[s]["metrics"][name]["value"] for s in sorted(side)] for side in runs]
            if not all(vals):
                continue
            cells = []
            for v in vals:
                q1, med, q3 = quartiles(v)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread(v):.3f}")
            verdict = ""
            bound = d.get("bound")
            counted = d["unit"] not in MEASURED_UNITS
            if len(runs) == 2 and counted:
                common = sorted(set(runs[0]) & set(runs[1]))
                same = all(runs[0][s]["metrics"][name]["value"] == runs[1][s]["metrics"][name]["value"]
                           for s in common)
                verdict = f"repeats exactly on {len(common)} seeds" if same else "count differs"
            if len(runs) == 2 and bound is not None:
                base_med, new_med = quartiles(vals[0])[1], quartiles(vals[1])[1]
                change = worse_by(base_med, new_med, d["better"])
                better_all = all(worse_by(b, n, d["better"]) < 0 for b in vals[0] for n in vals[1])
                if change > bound:
                    verdict += f"; WORSE by {change:+.1%} > bound {bound:.0%}"
                    status = 1
                elif spread(vals[0]) > bound and not better_all:
                    verdict += f"; unresolved: base spread exceeds bound {bound:.0%}"
                else:
                    verdict += f"; within bound {bound:.0%} ({change:+.1%} worse)"
            elif len(runs) == 1 and bound is not None:
                steady = spread(vals[0]) <= bound / 3
                verdict = f"{'steady' if steady else 'NOT STEADY'}: spread vs bound/3 {bound / 3:.3f}"
            print(f"  {name:36s} {d['unit']:7s} " + " | ".join(cells) + (f"  {verdict.lstrip('; ')}" if verdict else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
