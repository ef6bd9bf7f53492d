"""lbmfd benchmark: one workload per call, run in fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): table, wide_grid, analysis, mesoscopic.

With --trace 0 the workload runs in three fresh single-threaded worker
processes, one after the other, that share the S seconds; it prints the
end-to-end metrics of BENCHMARK.json.  With --trace 1 untraced and traced
workers alternate (two of each) and the per-layer metrics are printed,
with the tracing overhead.  Every output is checked in the workers.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A record with the machine, versions and
all samples is written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"

# Repetitions made by all workers of a run together, at least; the tail
# percentile of an untraced run needs ten samples beyond it.
MIN_SAMPLES = 12
TAIL_BEYOND = 10
# Every worker must be done this long after the benchmark started.
DEADLINE_S = 170.0

SINGLE_THREAD = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _worker_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, traced: bool, min_reps: int, seconds: float,
               expect: str | None, index: int, deadline: float) -> dict:
    """Run one worker process to completion; return its report and its
    set-up time (fresh interpreter to end of the first repetition)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--min-reps", str(min_reps)]
    if expect is not None:
        cmd += ["--expect", expect]
    if traced:
        cmd += ["--trace-out",
                str(OUT / f"spans-{args.workload}-{index}.npz")]
    # time.monotonic is CLOCK_MONOTONIC on Linux, shared by all processes.
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with "
                           f"{proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - spawned
    return report


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "caches_cpu0": caches, "mem_mib": mem // 2 ** 20,
            "python": platform.python_version()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "lbmfd" / "__init__.py").is_file():
        print(f"perfbench: no lbmfd sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)

    plan = [False, True, False, True] if args.trace else [False] * 3
    reports, expect = [], None
    try:
        for index, traced in enumerate(plan):
            report = run_worker(args, traced, -(-MIN_SAMPLES // len(plan)),
                                args.seconds / len(plan), expect, index,
                                started + DEADLINE_S)
            expect = expect or report["digest"]
            reports.append((traced, report))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for _, r in reports)
    # Workers after the first compare every digest with the first's.
    failed = sum(r["failed"] for _, r in reports)
    plain = [r for traced, r in reports if not traced]
    plain_reps = [s for r in plain for s in r["rep_s"]]
    plain_rel = [s for r in plain for s in r["rel"]]
    traced_reports = [r for traced, r in reports if traced]
    if len(plain_rel) <= (0 if args.trace else TAIL_BEYOND) \
            or any("layers" not in r for r in traced_reports):
        print("perfbench: too few repetitions completed", file=sys.stderr)
        return 1
    notes = {}
    if args.trace:
        group = spec["per_layer"]
        traced_rel = [s for r in traced_reports for s in r["rel"]]
        values = {name: statistics.median(r["layers"][name]
                                          for r in traced_reports)
                  for name in traced_reports[0]["layers"]}
        # Relative times, so that the host's speed cancels.
        values["trace.overhead_frac"] = (statistics.median(traced_rel)
                                         / statistics.median(plain_rel)
                                         - 1.0)
        notes["traced_samples"] = len(traced_rel)
    else:
        group = spec["end_to_end"]
        tail_rel, tail_pct = tail(plain_rel)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_rel": statistics.median(plain_rel),
            "wall_rel_tail": tail_rel,
            "peak_rss_mb": statistics.median(r["peak_rss_mib"]
                                             for r in plain),
            "ok_fraction": (attempted - failed) / attempted,
        }
        notes["tail_percentile"] = tail_pct
        # Raw seconds, which move with the host's speed; not gated.
        notes["wall_s"] = statistics.median(plain_reps)
        notes["wall_s_tail"] = tail(plain_reps)[0]
        notes["yardstick_s"] = statistics.median(
            sum(parts) for r in plain for parts in r["yard_s"])
    notes["samples"] = len(plain_rel)
    notes["setup_samples"] = len(plain)

    declared = {m["name"]: m["unit"] for m in group}
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": dict(machine(), numpy=reports[0][1]["numpy"]),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "output_sha256": expect, "notes": notes, "metrics": metrics,
        "rep_s": {("traced" if traced else "plain") + f"_{i}": r["rep_s"]
                  for i, (traced, r) in enumerate(reports)},
        "rel": {("traced" if traced else "plain") + f"_{i}": r["rel"]
                for i, (traced, r) in enumerate(reports)},
        "yard_s": {("traced" if traced else "plain") + f"_{i}": r["yard_s"]
                   for i, (traced, r) in enumerate(reports)},
        "setup_s": [r["setup_s"] for r in plain],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<44} {m['value']:>16.6g} "
              f"{m['unit']}")
    print(json.dumps({key: record[key] for key in
                      ("machine", "git_commit", "src_sha256", "seed",
                       "notes")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
