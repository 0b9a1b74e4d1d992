"""sensorreg benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
alternates untraced and traced calls on the same inputs, so it also
reports the tracing overhead.  Every timing is scaled to the machine's
nominal speed (see machine_speed.py); the lines before the JSON also
give the raw rate and the measured speed.  Spans are written to
``.perfbench_out/``.  See perfbench/BASELINE.md for the workloads, the
metric map and the baseline.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# every set-up compiles sensorreg from source, and the checkout stays clean
sys.dont_write_bytecode = True

from layer_trace import Tracer  # noqa: E402
from machine_speed import SpeedClock  # noqa: E402
from workloads import ROOT, WORKLOADS, load_sensorreg, rms  # noqa: E402

# set-up (fresh import, input generation, warm-up) is repeated and its
# median reported, so one slow repetition does not move setup_s
SETUP_REPS = 3


def set_up_once(workload, seed, workdir):
    mods = load_sensorreg()
    return mods, workload.setup(mods, seed, workdir)


def set_up(workload, seed, workdir, clock):
    times = []
    warm_ups = []
    for _ in range(SETUP_REPS):
        (mods, warm_up), _, scaled = clock.call(set_up_once, workload, seed,
                                                workdir)
        warm_ups.append(warm_up)
        times.append(scaled)
    problems = []
    if any(w != warm_ups[0] for w in warm_ups):
        problems.append("warm-up results differ between set-ups")
    return mods, warm_ups[0], statistics.median(times), problems


class Tally:
    """Scores every call: op counts, latencies, correctness, reruns."""

    def __init__(self, workload, mods, warm_up):
        self.workload = workload
        self.mods = mods
        self.warm_up = warm_up
        self.attempted = 0
        self.failed = 0
        self.raw_busy_s = 0.0
        self.busy_s = 0.0
        self.latencies_s = []
        self.problems = []
        self.first = {}   # input index -> (fingerprint, geodesic errors)

    def record(self, index, result, raw, scaled):
        out = self.workload.evaluate(self.mods, index, result, self.warm_up)
        self.attempted += out.ops
        self.failed += out.failed
        self.raw_busy_s += raw
        self.busy_s += scaled
        self.latencies_s.append(scaled)
        self.problems.extend(out.problems)
        if index not in self.first:
            self.first[index] = (out.fingerprint, out.geodesic_mrad)
        elif self.first[index][0] != out.fingerprint:
            self.problems.append(f"input {index}: a rerun gave another result")

    def rate(self):
        return self.attempted / self.busy_s


def measure(workload, mods, warm_up, seconds, clock):
    tally = Tally(workload, mods, warm_up)
    start = time.perf_counter()
    calls = 0
    while (time.perf_counter() - start < seconds
           or calls < max(workload.min_calls, workload.accuracy_inputs)):
        index = calls % workload.n_inputs
        tally.record(index, *clock.call(workload.call, mods, index))
        calls += 1
    geodesic = [g for i in range(workload.accuracy_inputs)
                for g in tally.first[i][1]]
    lat_ms = [1000.0 * t for t in tally.latencies_s]
    metrics = {
        "ops_per_s": (tally.rate(), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        # inclusive: with a handful of 7 s studies, p90 stays within the data
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10,
                                                method="inclusive")[8], "ms"),
        "rms_geodesic_mrad": (rms(geodesic), "mrad"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
    }
    return tally, metrics


def measure_traced(workload, mods, warm_up, seconds, spans_path, clock):
    """Untraced and traced calls on each input in turn, the order
    alternating.  Layer metrics cover the first ``trace_inputs`` inputs,
    so their counts repeat exactly for a seed; the overhead uses every
    pair."""
    tracer = Tracer()
    scales = {}   # traced op -> factor its raw times are scaled by
    plain = Tally(workload, mods, warm_up)
    traced = Tally(workload, mods, warm_up)
    start = time.perf_counter()
    pair = 0
    layer_metrics = None
    while time.perf_counter() - start < seconds or layer_metrics is None:
        index = pair % workload.n_inputs
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.active(mods, op=pair):
                    result, raw, scaled = clock.call(workload.call, mods,
                                                     index)
                scales[pair] = scaled / raw
                traced.record(index, result, raw, scaled)
            else:
                plain.record(index, *clock.call(workload.call, mods, index))
        pair += 1
        if pair == workload.trace_inputs:
            tracer.require_calls(workload.required)
            tracer.forbid_calls(workload.forbidden)
            layer_metrics = tracer.layer_metrics(scales)
    tracer.write(spans_path)
    for index, (fingerprint, _) in traced.first.items():
        if plain.first[index][0] != fingerprint:
            traced.problems.append(f"input {index}: traced result differs")
    layer_metrics["trace.overhead_frac"] = (1.0 - traced.rate() / plain.rate(),
                                            "frac")
    return plain, traced, layer_metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    clock = SpeedClock(sample=not args.trace)
    try:
        mods, warm_up, setup_s, problems = set_up(workload, args.seed, workdir,
                                                  clock)
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            plain, traced, metrics = measure_traced(
                workload, mods, warm_up, args.seconds, spans, clock)
            tallies = (plain, traced)
        else:
            tally, metrics = measure(workload, mods, warm_up, args.seconds,
                                     clock)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            tallies = (tally,)
    finally:
        shutil.rmtree(workdir)

    for tally in tallies:
        problems.extend(tally.problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    raw_rate = tallies[0].attempted / tallies[0].raw_busy_s
    print(f"{args.workload} unscaled ops_per_s = {raw_rate:.6g} 1/s, "
          f"machine speed = {clock.relative_speed():.3f} of nominal")
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
