"""Run one benchmark workload in this (fresh) process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--min-reps K] [--expect DIGEST]
                                [--trace-out PATH]

Builds the workload's inputs, runs one untimed repetition (its end marks
the end of set-up), then times repetitions until S seconds have passed and
at least K were made.  A fixed chunk of the benchmark's own code, the
yardstick, is timed before the first repetition and after each one, and
each repetition's time is also reported relative to the mean of the two
yardsticks beside it, which cancels the host's changes of speed.  Every
repetition's output is checked, and its digest must equal the first one's
(or --expect, from an earlier process).  With --trace-out, spans are
recorded around the lbmfd functions and per-layer numbers are reported;
the spans are written to PATH at the end.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# The yardstick: an interpreted loop with tiny numpy calls (per-call
# overhead), then a three-point smoothing stencil on arrays that fit one
# core's L2 (array throughput).  The host's changes of speed move the two
# kinds of work by different factors, so each workload's yardstick mixes
# them in the proportion that moves like the workload: (loop iterations,
# stencil sweeps), 30-40 ms in all, several scheduling slices.
YARDSTICKS = {
    "table": (9700, 330),
    "wide_grid": (9700, 330),
    "analysis": (7800, 530),
    "mesoscopic": (0, 1000),
}
YARD_NODES = 2 ** 14


class Yardstick:
    """A fixed chunk of work; calling it returns the times of its loop and
    its stencil, in seconds."""

    def __init__(self, calls: int, sweeps: int) -> None:
        self.calls, self.sweeps = calls, sweeps
        self.small = np.linspace(0.0, 1.0, 8)
        self.a = np.linspace(0.0, 1.0, YARD_NODES)
        self.b = np.zeros(YARD_NODES)
        self.half = np.empty(YARD_NODES - 2)

    def __call__(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        small, acc = self.small, 0.0
        for i in range(self.calls):
            acc += math.sin(i) * float(small[i % small.shape[0]])
            small = small * 0.999 + 0.001
        t1 = time.perf_counter()
        # In place, so that only array arithmetic is timed, no allocation.
        a, b, half = self.a, self.b, self.half
        for _ in range(self.sweeps):
            inner = b[1:-1]
            np.add(a[:-2], a[2:], out=inner)
            inner *= 0.25
            np.multiply(a[1:-1], 0.5, out=half)
            inner += half
            a, b = b, a
        return t1 - t0, time.perf_counter() - t1


def _import_lbmfd() -> None:
    import lbmfd
    if not Path(lbmfd.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: lbmfd was imported from {lbmfd.__file__}, "
                 f"not from {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--expect", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    _import_lbmfd()

    import tracing
    from workloads import WORKLOADS

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install()
    op, check = WORKLOADS[args.workload](args.seed)
    yardstick = Yardstick(*YARDSTICKS[args.workload])

    attempted = failed = 0
    expect = args.expect

    def checked(out) -> None:
        nonlocal attempted, failed, expect
        results, digest = check(out)
        if expect is None:
            expect = digest
        results.append(digest == expect)
        attempted += len(results)
        failed += results.count(False)

    def lost() -> None:
        # A repetition that raised fails every operation it holds.
        nonlocal attempted, failed
        traceback.print_exc()
        attempted += ops_per_rep
        failed += ops_per_rep

    # Set-up ends with the first repetition, which fills lazy caches.
    out = op()
    setup_end = time.monotonic()
    checked(out)
    ops_per_rep = attempted

    rep_s, rel, yard_s, layers = [], [], [], []
    reps = 0
    began = time.perf_counter()
    before = yardstick()
    while time.perf_counter() - began < args.seconds or reps < args.min_reps:
        reps += 1
        if tracer is not None:
            lo = len(tracer.start)
            tracer.take_counts()
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception:
            lost()
            before = yardstick()
            continue
        rep_s.append(time.perf_counter() - t0)
        after = yardstick()
        rel.append(rep_s[-1] / (0.5 * (sum(before) + sum(after))))
        yard_s.append(after)
        before = after
        if tracer is not None:
            spans, top_s = tracer.span_times(lo, len(tracer.start))
            layers.append(tracing.rep_layers(spans, top_s,
                                             tracer.take_counts(),
                                             rep_s[-1]))
        try:
            checked(out)
        except Exception:
            lost()

    report = {
        "setup_end": setup_end,
        "rep_s": rep_s,
        "rel": rel,
        "yard_s": yard_s,
        "attempted": attempted,
        "failed": failed,
        "digest": expect,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": np.__version__,
    }
    if tracer is not None and layers:
        report["layers"] = {name: statistics.median(r[name] for r in layers)
                            for name in layers[0]}
        report["layers"]["calibration.epsilon_max.s"] = \
            tracer.first_duration("calibration.epsilon_max")
        tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
