#!/usr/bin/env python3
"""lengthlab benchmark: one workload, seeded inputs, a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
One caller sends each item after the previous one returns.  A run does
whole rounds (the same items every round) for as long as the next round
still fits into S seconds, and always at least one.  Outputs are checked
after each item, outside the timed region.

With --trace 0 the run prints the end-to-end metrics, with every latency
scaled to the reference speed of the host (see SpeedProbe).  With
--trace 1 it runs every item three times (warm-up, untraced, traced) and
prints the per-layer metrics of the traced runs, in wall time, and the
tracing overhead.
Metric names and units are those of BENCHMARK.json.  The last line of
standard output is one JSON object; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, make_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
# the tail is the highest of these percentiles with at least ten items
# of one round beyond it
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
# seconds of items between two speed probes
PROBE_EVERY = 0.05
# seconds the probe takes at full speed on the reference host (2-core
# shared VM, Python 3.11.7); times are reported at this speed
PROBE_REFERENCE = 0.62e-3


class SpeedProbe:
    """Times a fixed piece of pure-Python work (about a millisecond)
    between items, at most every PROBE_EVERY seconds.

    On a shared host the process runs at full speed or up to about 1.7
    times slower, in spells of a fraction of a second to minutes, and the
    spells shift the runs' timings far more than a program change of a
    few percent.  The probe's time around an item says how fast the host
    ran then; `scaled` divides it out and multiplies by PROBE_REFERENCE,
    so that a latency reads what the item takes on the reference host at
    full speed.  The probe runs with the garbage collector off, so that
    no collection of the program's objects falls into it.
    """

    def __init__(self):
        self.ends = []  # perf_counter() at the end of each probe
        self.seconds = []  # its duration

    @staticmethod
    def work():
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i % 31 + 1)
        return total

    def run(self):
        gc.disable()
        try:
            start = perf_counter()
            self.work()
            end = perf_counter()
        finally:
            gc.enable()
        self.ends.append(end)
        self.seconds.append(end - start)

    def due(self):
        if not self.ends or perf_counter() - self.ends[-1] >= PROBE_EVERY:
            self.run()

    def scaled(self, start, seconds):
        """An item's latency at the reference speed, by the mean of the
        last probe before the item and the first after it."""
        after = bisect.bisect_left(self.ends, start + seconds)
        near = (self.seconds[after - 1] + self.seconds[after]) / 2
        return seconds * PROBE_REFERENCE / near


class Round:
    """Items attempted in one round, their latencies and the mismatches
    found by the checks.

    With a tracer, every item runs three times on the same inputs: once
    to warm up, so that neither timed run pays for first use (fresh
    memory, cold caches), then untraced and traced in alternating order.
    Both timed runs see the same machine state, and their difference is
    the tracing overhead.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe  # a SpeedProbe, untraced rounds only
        self.latencies = []  # (start, seconds), untraced, items that returned
        self.timed = 0.0  # seconds, untraced, all items
        self.traced = 0.0  # seconds, traced, all items
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.mismatches = []

    def item(self, fn, *args, **kwargs):
        """Time one item; its result, or None if it raised."""
        self.attempted += 1
        if self.tracer is None:
            modes = (False,)
        else:
            order = (False, True) if self.attempted % 2 else (True, False)
            modes = (None, *order)
        error = None
        if self.probe is not None:
            self.probe.due()
        for traced in modes:
            try:
                result, start, elapsed = self._run(traced, fn, args, kwargs)
            except Exception as exc:  # a raising item is a failed operation
                error = exc
                continue
            if traced is False:
                latency = start, elapsed
        if error is not None:
            self.failed += 1
            self.errors.append(f"{type(error).__name__}: {error}")
            return None
        self.latencies.append(latency)
        return result

    def _run(self, traced, fn, args, kwargs):
        """(result, start, seconds) of one call, traced, untraced or
        (None) a warm-up that counts towards neither."""
        if traced:
            self.tracer.enabled = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            if traced:
                self.tracer.enabled = False
                self.traced += elapsed
            elif traced is False:
                self.timed += elapsed
        return result, start, elapsed

    def check(self, ok, what):
        if not ok:
            self.mismatches.append(what)


def percentile(values, q):
    """Linear-interpolated q-th percentile of sorted values."""
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_percentile(items_per_round):
    return next((q for q in TAIL_PERCENTILES
                 if items_per_round * (100 - q) / 100 >= 10), 50.0)


def setup(workload, seed):
    """Import the library and make a round's items; (seconds, tasks)."""
    start = perf_counter()
    tasks = make_round(workload, seed)
    return perf_counter() - start, tasks


def setup_seconds(workload, seed):
    """Set-up time in a fresh interpreter, where imports are not cached."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def run_round(tasks, rnd, tracer):
    for run, check in tasks:
        result = rnd.item(run, tracer)
        if result is not None and check is not None:
            check(rnd, result)


def measure(tasks, tracer, seconds, traced):
    """Whole rounds for as long as the next one fits into `seconds`;
    untraced rounds share one SpeedProbe, which also runs after the last
    item."""
    probe = None if traced else SpeedProbe()
    rounds = []
    start = perf_counter()
    longest = 0.0
    while True:
        begin = perf_counter()
        rnd = Round(tracer if traced else None, probe)
        run_round(tasks, rnd, tracer)
        rounds.append(rnd)
        longest = max(longest, perf_counter() - begin)
        if perf_counter() - start + longest > seconds:
            if probe is not None:
                probe.run()
            return rounds, probe


def end_to_end(rounds, probe, setup_samples):
    latencies = sorted(probe.scaled(*x) for rnd in rounds
                       for x in rnd.latencies)
    tail = tail_percentile(len(rounds[0].latencies))
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": percentile(latencies, 50) * 1e3,
        "item_tail_ms": percentile(latencies, tail) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }, tail


def per_layer(names, tracer, rounds):
    spans = tracer.summary()
    n = len(rounds)
    traced_s = sum(rnd.traced for rnd in rounds)
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        calls, busy, durations = spans.get(span, (0, 0.0, []))
        if name == "trace.overhead_s":
            value = (traced_s - sum(rnd.timed for rnd in rounds)) / n
        elif name == "trace.layer_share":
            value = sum(b for _, b, _ in spans.values()) / traced_s
        elif stat == "calls":
            value = calls / n
        elif stat == "busy_s":
            value = busy / n
        elif stat == "p99_ms":
            value = percentile(durations, 99) * 1e3
        else:
            value = tracer.counters.get(name, 0) / n
        out[name] = value
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lengthlab" / "__init__.py").is_file():
        print(f"error: no lengthlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_samples = [] if args.trace else [
        setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    _, tasks = setup(args.workload, args.seed)
    import lengthlab

    if Path(lengthlab.__file__).resolve().parent != SRC / "lengthlab":
        print(f"error: lengthlab imported from {lengthlab.__file__}",
              file=sys.stderr)
        return 2

    tracer = Tracer()
    rounds, probe = measure(tasks, tracer, args.seconds, args.trace)
    note = f"{len(rounds)} round(s) of {rounds[0].attempted} items"
    if args.trace:
        kind = "per_layer"
        values = per_layer([m["name"] for m in spec[kind]], tracer, rounds)
        note += ", each run to warm up, untraced and traced"
    else:
        kind = "end_to_end"
        values, tail = end_to_end(rounds, probe, setup_samples)
        note += (f", tail = p{tail:g}; speed probe: {len(probe.seconds)} "
                 f"runs, median {statistics.median(probe.seconds) * 1e3:.3f}"
                 f" ms, least {min(probe.seconds) * 1e3:.3f} ms")
    mismatches = [m for rnd in rounds for m in rnd.mismatches]
    errors = sorted({e for rnd in rounds for e in rnd.errors})
    print(f"{args.workload} seed {args.seed}: {note}; "
          f"{len(mismatches)} mismatch(es)", file=sys.stderr)
    for line in mismatches[:20] + errors:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
