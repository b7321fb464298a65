"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The workload's graphs are set up once, then whole passes of its operations
run until --seconds is spent, at least three of them; wall_s is the median
pass time.  After each operation the set-up is repeated, up to
SETUPS_PER_OP times and SETUP_SHARE of the time measured so far, so that
its samples span the whole run as the passes do; setup_s is their median.
The first pass's outputs are checked outside the timed region, and every
later pass must reproduce them exactly.  With --trace 1 the run sets up
MIN_SETUPS times traced, then alternates untraced and traced passes and
reports the per-module metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# A shared host's speed drifts in spells of 10-30 s, so set-up samples taken
# in one burst at the start spread by up to a quarter from run to run;
# interleaved with the operations they see the same mix of spells as wall_s.
# The share caps costly set-ups; the count keeps cheap ones from taking time
# the passes need.
SETUP_SHARE, SETUPS_PER_OP = 0.1, 5
MIN_SETUPS = 5  # traced set-ups, for the per-module set-up figures
MIN_PASSES = 3


def _import_program():
    """Import rsd from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rsd
    except ImportError as exc:
        sys.exit(f"error: cannot import rsd from {ROOT / 'src'}: {exc}")
    if Path(rsd.__file__).resolve().parent != ROOT / "src" / "rsd":
        sys.exit(f"error: rsd was imported from {rsd.__file__}, not from {ROOT / 'src'}")


@contextmanager
def work_dir():
    """A fresh directory under .bench_work/ in the checkout, removed on exit."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it


class Run:
    """Passes of one workload's operations, with the outputs of the first kept."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.digests = None
        self.passes = 0
        self.mismatches = [0] * len(ops)

    def one_pass(self, tracer=None, between=None) -> list[float]:
        """Run every operation once, calling between() after each outside
        its timing; returns each one's time."""
        from tracer import instrument
        from workloads import Failure

        results, times = [], []
        with instrument(tracer):
            for op in self.ops:
                start = perf_counter()
                try:
                    results.append(op.execute())
                except Exception as exc:  # one failed operation must not stop the run
                    results.append(Failure(f"{type(exc).__name__}: {exc}"))
                times.append(perf_counter() - start)
                if between:
                    between(sum(times))
        digests = [r if isinstance(r, Failure) else op.digest(r) for op, r in zip(self.ops, results)]
        if self.first is None:
            self.first, self.digests = results, digests
        else:
            for i, dg in enumerate(digests):
                self.mismatches[i] += dg != self.digests[i]
        self.passes += 1
        return times

    def check(self):
        """Check the first pass; returns per-op errors and figures."""
        errors, figures = [], []
        for op, res in zip(self.ops, self.first):
            errs, fig = check_one(op, res)
            errors.append(errs)
            figures.append(fig)
        return errors, figures


def check_one(op, res):
    """(errors, figures) for one operation's output; never raises."""
    from workloads import Failure, Figures

    if isinstance(res, Failure):
        return [res.message], Figures()
    try:
        return op.check(res)
    except Exception as exc:  # a malformed output fails its operation
        return [f"check raised {type(exc).__name__}: {exc}"], Figures()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    os.environ.pop("RSD_ROUND_CAP_MULTIPLIER", None)
    from tracer import Tracer, instrument, layer_metrics
    from workloads import WORKLOADS

    setup = WORKLOADS[args.workload]
    with work_dir() as work:
        setup_times = []

        def set_up(tracer=None):
            with instrument(tracer):
                start = perf_counter()
                ops = setup(args.seed, work)
                setup_times.append(perf_counter() - start)
            return ops

        setup_tracers = [Tracer() for _ in range(MIN_SETUPS)] if args.trace else [None]
        for tracer in setup_tracers:
            ops = set_up(tracer)
        run = Run(ops)
        plain, traced, pass_tracers = [], [], []

        def repeat_setup(pass_so_far):
            measured = sum(map(sum, plain)) + pass_so_far
            for _ in range(SETUPS_PER_OP):
                if sum(setup_times) >= SETUP_SHARE / (1 - SETUP_SHARE) * measured:
                    break
                set_up()

        elapsed = []  # untraced passes with their set-ups
        deadline = perf_counter() + args.seconds
        while True:
            start = perf_counter()
            plain.append(run.one_pass(between=None if args.trace else repeat_setup))
            elapsed.append(perf_counter() - start)
            if args.trace:
                pass_tracers.append(Tracer())
                traced.append(run.one_pass(pass_tracers[-1]))
                step = _median_pass(plain) + _median_pass(traced)
                if perf_counter() + step > deadline:
                    break
            elif len(plain) >= MIN_PASSES and perf_counter() + statistics.median(elapsed) > deadline:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        errors, figures = run.check()

    bad = [i for i, errs in enumerate(errors) if errs or run.mismatches[i]]
    failed = len(bad) * run.passes
    correct = failed == 0
    for i in bad[:10]:
        detail = errors[i] or [f"output differs between passes in {run.mismatches[i]} passes"]
        print(f"FAILED {ops[i].name}: {detail[:3]}", file=sys.stderr)

    timelines = [f.timeline for f in figures if f.timeline is not None]
    if args.trace:
        metrics, repeat = _traced_metrics(layer_metrics, setup_tracers, pass_tracers)
        if not repeat:
            correct = False
            print("per-module counts differ between traced passes", file=sys.stderr)
        metrics["protocol.rounds_param"] = sum(t.param for t in timelines)
        metrics["protocol.rounds_flood"] = sum(t.flood for t in timelines)
        metrics["protocol.rounds_blocks"] = sum(t.blocks for t in timelines)
        metrics["protocol.rounds_final"] = sum(t.final for t in timelines)
        metrics["trace.untraced_wall_s"] = _median_pass(plain)
        metrics["trace.wall_s"] = _median_pass(traced)
        metrics["trace.overhead_pct"] = 100 * (metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": _median_pass(plain),
            "sim_rounds": sum(f.rounds for f in figures),
            "label_bits_max": max(f.label_bits for f in figures),
            "peak_rss_mib": peak_rss_mib,
        }

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print(f"workload {args.workload} seed {args.seed}: {run.passes} passes of {len(ops)} operations")
    for name in units:
        print(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  attempted {len(ops) * run.passes} failed {failed}")
    result = {
        "correct": correct,
        "attempted": len(ops) * run.passes,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _median_pass(passes):
    return statistics.median(sum(times) for times in passes)


def _traced_metrics(layer_metrics, setup_tracers, pass_tracers):
    """Median set-up figure plus median pass figure for every per-module
    metric; counts must be identical across repetitions."""
    setup = [layer_metrics(t) for t in setup_tracers]
    passes = [layer_metrics(t) for t in pass_tracers]
    repeat = True
    out = {}
    for name in setup[0]:
        if name.endswith("_s"):
            out[name] = statistics.median(m[name] for m in setup) + statistics.median(
                m[name] for m in passes
            )
        else:
            repeat &= len({m[name] for m in setup}) == 1 and len({m[name] for m in passes}) == 1
            out[name] = setup[0][name] + passes[0][name]
    bits, count = out.pop("labels.bits"), out.pop("labels.labels")
    out["labels.bits_mean"] = bits / count if count else 0.0
    return out, repeat


if __name__ == "__main__":
    sys.exit(main())
