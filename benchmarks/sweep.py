"""Run the benchmark over several workloads and seeds, one process per run.

    python3 benchmarks/sweep.py --out results/base --seeds 1-10
    python3 benchmarks/sweep.py --out results/traced --seeds 1 --trace 1

Each run's result line is saved as OUT/<workload>/seed-<n>.json, ready for
compare.py, and its metrics are printed with their units.  Every workload
of BENCHMARK.json runs, for its run_seconds; with no arguments besides
--out, once each at seed 0.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=seed_list, default=[0], help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in names:
        out_dir = args.out / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            (out_dir / f"seed-{seed}.json").write_text(lines[-1] + "\n")
            result = json.loads(lines[-1])
            shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items()
                             if args.trace == 0)
            print(f"{workload} seed {seed} ({took:.1f}s): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
            if proc.stderr:
                print(proc.stderr, file=sys.stderr, end="")
    return status


if __name__ == "__main__":
    sys.exit(main())
