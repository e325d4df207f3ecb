"""Benchmark for quasilab: exact verdicts at desk scale, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-n6 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  scan-n5        `quasilab kunen-scan --order 5`, serial, in-process
  scan-n5-jobs2  the same scan with --jobs 2 and a fresh --checkpoint file
  corpus-n6      seeded order-6 samples through acceptance criteria 1-5
  loops          relabelled groups of order 4-8 and the reduced order-5
                 loops through the same pipeline plus check_normalization
  haar-axb       `quasilab axb verify` (run_verification_suite)

The run repeats passes of the workload over the same inputs for about
--seconds and checks every verdict.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes, adds the layer probes, and reports the per-layer metrics and the
tracing overhead.  The spans go to .perfbench-run/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from speed import SpeedMeter
from tracing import DERIVED, NULL, PER_LAYER, Tracer, layer_metrics, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = ".perfbench-run"
WORKLOADS = ["scan-n5", "scan-n5-jobs2", "corpus-n6", "loops", "haar-axb"]
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5

# One set-up in a fresh interpreter: import the package, make the inputs.
# It prints when it started and ended, so the time can be read at
# reference CPU speed like every other.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(start, time.perf_counter())
"""


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine_facts() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def repeat_passes(seconds: float, *runs):
    """Run each pass function in turn until the next round would overrun."""
    results = [[] for _ in runs]
    start = perf_counter()
    while True:
        for run, out in zip(runs, results):
            out.append(run())
        spent = perf_counter() - start
        next_round = sum(statistics.median(p.wall for p in out) for out in results)
        if spent + next_round > seconds:
            return results


def tally(results) -> tuple[int, int, list[str]]:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors]
    return attempted, failed, errors


def setup_in_child(name: str, seed: int, workdir: str) -> tuple[float, float]:
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, os.path.abspath("src"), HERE,
         name, str(seed), workdir],
        capture_output=True, text=True, check=True, timeout=120,
    )
    start, end = child.stdout.split()
    return float(start), float(end)


@contextlib.contextmanager
def reference_speed(workload, workdir):
    """Yield a function that reads a span [a, b] of the workload at reference CPU speed."""
    allowed = os.sched_getaffinity(0)
    # the workload (and the workers it forks) stays on the CPUs that are sampled
    cpus = sorted(allowed)[: workload.cpus]
    os.sched_setaffinity(0, cpus)
    try:
        with SpeedMeter(workdir, cpus) as meter:
            yield meter.seconds
    finally:
        os.sched_setaffinity(0, allowed)


def end_to_end(name, seed, seconds, workload, workdir) -> tuple[dict, list]:
    with reference_speed(workload, workdir) as at_speed:
        (passes,) = repeat_passes(seconds, lambda: workload.run_pass(NULL))
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setups = [at_speed(*setup_in_child(name, seed, workdir)) for _ in range(SETUP_SAMPLES)]
        walls = [at_speed(p.start, p.end) for p in passes]
        latencies = [at_speed(a, b) * 1e3 / n for p in passes for a, b, n in p.spans]

    print(f"passes: {len(passes)}, items per pass: {passes[0].items}, "
          f"latency samples: {len(latencies)}, set-ups: {len(setups)}")
    print(f"raw wall_s median {statistics.median(p.wall for p in passes):.4f} s; "
          f"at reference CPU speed {statistics.median(walls):.4f} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(p.items / w for p, w in zip(passes, walls)),
        "item_ms_p50": percentile(latencies, 0.50),
        "item_ms_p99": percentile(latencies, 0.99),
        "peak_rss_mb": usage / 1024,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, passes


def traced(name, seed, seconds, workload, workdir) -> tuple[dict, list, dict]:
    import workloads

    own = Tracer(name)
    with reference_speed(workload, workdir) as at_speed:
        plain, spanned = repeat_passes(
            seconds, lambda: workload.run_pass(NULL), lambda: workload.run_pass(own)
        )
        untraced_wall = statistics.median(at_speed(p.start, p.end) for p in plain)
        traced_wall = statistics.median(at_speed(p.start, p.end) for p in spanned)
    probe = Tracer(name + ":probe")
    results = plain + spanned + [workload.probe(probe)]
    tracers = [own, probe]
    values = layer_metrics(own.spans + probe.spans)
    source = dict.fromkeys(values, name)

    # A layer this workload does not reach is measured by a small traced
    # pass of the workload that is its home, so every metric is a measurement.
    for home in dict.fromkeys(m.home for m in PER_LAYER):
        wanted = {m.name for m in PER_LAYER if m.home == home} - values.keys()
        if not wanted:
            continue
        tracer = Tracer(home + ":stand-in")
        other = workloads.make(home, seed, workdir, small=True)
        results.append(other.run_pass(tracer))
        if wanted - layer_metrics(tracer.spans).keys():
            results.append(other.probe(tracer))
        tracers.append(tracer)
        for metric, value in layer_metrics(tracer.spans).items():
            if metric not in values:
                values[metric] = value
                source[metric] = home + " stand-in"
    missing = [m.name for m in PER_LAYER if m.name not in values]
    if missing:
        raise RuntimeError(f"no span measured {missing}")

    values["kunen.speedup_jobs2"] = values["kunen.scan_s"] / values["kunen.scan_jobs2_s"]
    source["kunen.speedup_jobs2"] = "kunen.scan_s / kunen.scan_jobs2_s"
    values["trace.overhead_s"] = traced_wall - untraced_wall

    print(f"passes: {len(plain)} untraced, {len(spanned)} traced; wall_s at reference "
          f"speed {untraced_wall:.4f} untraced, {traced_wall:.4f} traced; span times are raw")
    print("self time in the traced passes of this workload:")
    layers = self_times(own.spans)
    total = sum(secs for _, secs in layers.values())
    for layer, (count, secs) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        print(f"  {layer:<11} {secs:10.4f} s {100 * secs / total:6.2f} %  {count} spans")
    units = {m.name: m.unit for m in PER_LAYER} | {n: u for n, u, _ in DERIVED}
    moves = {m.name: m.moves for m in PER_LAYER} | {n: w for n, _, w in DERIVED}
    for metric in units:
        print(f"  {metric:<38} {values[metric]:14.6g} {units[metric]:<6} "
              f"[{source.get(metric, name)}] -> {moves[metric]}")

    doc = {
        "workload": name,
        "seed": seed,
        "self_time_s": {layer: secs for layer, (_, secs) in layers.items()},
        "metrics": values,
        "sources": source,
        "spans": [s for t in tracers for s in t.spans],
    }
    return {k: (values[k], units[k]) for k in units}, results, doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "quasilab", "__init__.py")):
        print("error: src/quasilab not found; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        sys.path.insert(0, src)
        import quasilab
        import workloads

        workload = workloads.make(args.workload, args.seed, workdir)

        if not quasilab.__file__.startswith(src + os.sep):
            print(f"error: quasilab imported from {quasilab.__file__}", file=sys.stderr)
            return 2
        facts = machine_facts()
        print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
              f"trace {args.trace}; " + ", ".join(f"{k} {v}" for k, v in facts.items()))
        if args.trace:
            metrics, results, doc = traced(
                args.workload, args.seed, args.seconds, workload, workdir
            )
            path = os.path.join(RUN_DIR, f"trace-{args.workload}.json")
            with open(path, "w") as fh:
                json.dump({"machine": facts, **doc}, fh)
            print(f"spans written to {path}")
        else:
            metrics, results = end_to_end(
                args.workload, args.seed, args.seconds, workload, workdir
            )
            for metric, (value, unit) in metrics.items():
                print(f"  {metric:<12} {value:14.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, errors = tally(results)
    for error in errors[:20]:
        print(f"WRONG: {error}")
    print(f"fail_frac {failed / max(attempted, 1)} ({failed} of {attempted} verdicts wrong or raised)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
