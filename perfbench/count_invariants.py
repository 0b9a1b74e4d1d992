"""The benchmark's own tests: the tracer's counts on tiny studies.

    python3 perfbench/count_invariants.py

Each pair sweep of alg4 and alg7 solves Wahba's problem twice per
sensor pair, S(S-1) times in all, and each alg7 sweep triangulates once.
Counts taken through the wrappers must match those rules exactly and
repeat exactly at a fixed seed; a layer that must be called but records
nothing must fail loudly.  The speed clock (machine_speed.py) must keep
its samples out of the time of the call they interrupt.  The file name
keeps it out of the package's own test run.
"""

import signal
import statistics
import sys
import time

import pytest

from layer_trace import Tracer
from machine_speed import NOMINAL_REFERENCE_S, SpeedClock
from workloads import RING, WORKLOADS, load_sensorreg


@pytest.fixture(scope="module")
def mods():
    return load_sensorreg()


def traced_study(mods, algorithm, kind, count, runs=2, seed=7):
    cfg = mods["experiments"].ExperimentConfig(
        algorithm=algorithm, sensor_kind=kind, sensor_count=count, seed=seed,
        mc_runs=runs, sensor_locations_m=RING[:count])
    tracer = Tracer()
    with tracer.active(mods, op=0):
        report = mods["experiments"].run_experiment(cfg)
    return tracer, sum(rec.iterations for rec in report.runs)


@pytest.mark.parametrize("algorithm,kind", [("alg4", "3d"), ("alg7", "2d")])
def test_wahba_calls_are_sweeps_times_ordered_pairs(mods, algorithm, kind):
    s = 3
    tracer, sweeps = traced_study(mods, algorithm, kind, s)
    assert sweeps > 0
    assert tracer.counts["calibration.solve_wahba"] == sweeps * s * (s - 1)
    assert tracer.counts["calibration.sweeps"] == sweeps


def test_alg7_triangulates_once_per_sweep(mods):
    tracer, sweeps = traced_study(mods, "alg7", "2d", 3)
    assert tracer.counts["calibration.triangulate_batch"] == sweeps
    assert tracer.counts["triangulation.targets"] == sweeps * 91


def test_range_workload_never_triangulates(mods):
    workload = WORKLOADS["mc-range-s4"]()
    workload.setup(mods, seed=3, workdir=None)
    tracer = Tracer()
    with tracer.active(mods, op=0):
        workload.call(mods, 0)
    tracer.require_calls(workload.required)
    assert tracer.counts["calibration.triangulate_batch"] == 0
    with pytest.raises(RuntimeError, match="triangulate_batch"):
        tracer.require_calls(["calibration.triangulate_batch"])


def test_counts_repeat_exactly_at_a_fixed_seed(mods):
    first, _ = traced_study(mods, "alg7", "2d", 3)
    second, _ = traced_study(mods, "alg7", "2d", 3)
    assert dict(first.counts) == dict(second.counts)
    assert len(first.spans) == len(second.spans)


def test_self_times_add_up_to_the_outer_span(mods):
    tracer, _ = traced_study(mods, "alg7", "2d", 3)
    (outer,) = [sp for sp in tracer.spans if sp[2] == -1]
    total_s = (outer[5] - outer[4]) / 1e9
    assert sum(tracer.self_seconds({0: 1.0}).values()) == pytest.approx(
        total_s, rel=1e-9)


def test_speed_clock_samples_long_calls_outside_their_time():
    clock = SpeedClock()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    first = len(clock.references) - 1
    _, raw, scaled = clock.call(busy, 1.2)
    # two samples during the call and one after it
    assert len(clock.references) - first >= 4
    assert raw == pytest.approx(1.2 - clock._paused_s, abs=0.01)
    speed = statistics.fmean(clock.references[first:])
    assert scaled == pytest.approx(raw * NOMINAL_REFERENCE_S / speed)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_untraced_calls_run_the_original_functions(mods):
    original = mods["calibration"].solve_wahba
    tracer = Tracer()
    with tracer.active(mods, op=0):
        assert mods["calibration"].solve_wahba is not original
    assert mods["calibration"].solve_wahba is original
    assert not tracer.spans


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider",
                          "-p", "no:benchmark"]))
