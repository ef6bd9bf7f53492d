"""Spans and counters around the public lbmfd functions, for the traced run.

`Tracer.install` replaces each traced function by a wrapper in every lbmfd
module that binds it, so calls through names bound by `from ... import`
(`verification.run`, `lbm.step`, `cli.run`, ...) are recorded too.  Spans
(name, start, end, parent) are kept in flat in-memory arrays and written
out once, at the end.  Byte counts are computed from array sizes (float64,
each operand read once and the result written once), not measured.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

import lbmfd
from lbmfd import calibration, cli, lbm, scheme, stability, verification

_F64 = 8
_MODULES = (lbmfd, calibration, cli, lbm, scheme, stability, verification)


def _count_step(counts, args, kwargs, result):
    nodes = args[0].current.shape[0]
    counts["scheme.step.nodes"] += nodes
    # Reads three levels, writes one.
    counts["scheme.step.bytes"] += 4 * _F64 * nodes


def _count_evolve(counts, args, kwargs, result):
    nodes = args[0].node_count
    counts["lbm.evolve.nodes"] += nodes
    # Reads three populations, writes three.
    counts["lbm.evolve.bytes"] += 6 * _F64 * nodes


def _count_deviation(counts, args, kwargs, result):
    n_nodes, steps = args[0], args[1]
    # The stored macroscopic trajectory: steps + 1 levels.
    counts["lbm.trace_bytes"] += (steps + 1) * n_nodes * _F64


def _count_scan(counts, args, kwargs, report):
    counts["stability.thetas"] += report.theta_samples


def _count_sweep(counts, args, kwargs, rows):
    counts["calibration.sweep.points"] += len(rows)
    counts["calibration.sweep.ok"] += sum(r.status == "ok" for r in rows)


def _count_csv(counts, args, kwargs, lines):
    counts["verification.output_bytes"] += sum(len(s) + 1 for s in lines)


# (module, attribute, span name, counter of work done by a returned call)
TRACED = (
    (calibration, "calibrate_sixth", "calibration.calibrate_sixth", None),
    (calibration, "calibrate_fourth", "calibration.calibrate_fourth", None),
    (calibration, "second_order_reference",
     "calibration.second_order_reference", None),
    (calibration, "calibration_sweep", "calibration.calibration_sweep",
     _count_sweep),
    (calibration, "epsilon_max", "calibration.epsilon_max", None),
    (scheme, "run", "scheme.run", None),
    (scheme, "step", "scheme.step", _count_step),
    (lbm, "evolve", "lbm.evolve", _count_evolve),
    (lbm, "fd_equivalence_deviation", "lbm.fd_equivalence_deviation",
     _count_deviation),
    (stability, "spectral_radius_scan", "stability.spectral_radius_scan",
     _count_scan),
    (verification, "reproduce_table", "verification.reproduce_table", None),
    (verification, "run_benchmark", "verification.run_benchmark", None),
    (verification, "convergence_csv_lines",
     "verification.convergence_csv_lines", _count_csv),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Records spans around the traced functions and counts their work."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, name, count in TRACED:
            original = getattr(module, attr)
            self._replace(original, self._wrap(original, name, count))
        self._replace(verification.analytic_phi,
                      self._seed_counter(verification.analytic_phi))

    @staticmethod
    def _replace(original, wrapper) -> None:
        for module in _MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _wrap(self, fn, name, count):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(float("nan"))
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def _seed_counter(self, fn):
        # Counts initializer calls made while seeding start levels, that is,
        # directly inside scheme.run; no span, as there are ~10**6 of them.
        run_id = self.names.index("scheme.run")
        stack = self._stack
        counts = self.counts

        def counted(*args, **kwargs):
            if stack and self.name_of[stack[-1]] == run_id:
                counts["scheme.seed.initializer_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def take_counts(self) -> Counter:
        counts = Counter(self.counts)
        self.counts.clear()
        return counts

    def span_times(self, lo: int, hi: int):
        """Per-name (total s, self s, calls) and the top-level time, over
        the spans with index in [lo, hi).  All of them must have ended."""
        # Slicing an array copies it, so no numpy view pins its buffer.
        names = np.frombuffer(self.name_of[lo:hi], dtype=np.int32)
        dur = (np.frombuffer(self.end[lo:hi])
               - np.frombuffer(self.start[lo:hi]))
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        k = len(self.names)
        total = np.bincount(names, weights=dur, minlength=k)
        self_time = np.bincount(names, weights=dur - child, minlength=k)
        calls = np.bincount(names, minlength=k)
        by_name = {n: (float(total[i]), float(self_time[i]), int(calls[i]))
                   for i, n in enumerate(self.names)}
        return by_name, float(dur[~nested].sum())

    def first_duration(self, name: str) -> float:
        """Duration of the first span of `name`, or 0 if there was none."""
        name_id = self.names.index(name)
        for idx, nid in enumerate(self.name_of):
            if nid == name_id:
                return self.end[idx] - self.start[idx]
        return 0.0

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.array(self.name_of, dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_layers(spans, top_s: float, counts: Counter, rep_s: float) -> dict:
    """Per-layer metrics of one repetition, from its spans and counts."""
    def total(n):
        return spans[n][0]

    def self_s(n):
        return spans[n][1]

    def calls(n):
        return spans[n][2]

    return {
        "scheme.step.calls": calls("scheme.step"),
        "scheme.step.node_steps": counts["scheme.step.nodes"],
        "scheme.step.us_per_call": _ratio(total("scheme.step") * 1e6,
                                          calls("scheme.step")),
        "scheme.step.ns_per_node": _ratio(total("scheme.step") * 1e9,
                                          counts["scheme.step.nodes"]),
        "scheme.step.bytes_computed": counts["scheme.step.bytes"],
        "scheme.run.self_s": self_s("scheme.run"),
        "scheme.seed.initializer_calls":
            counts["scheme.seed.initializer_calls"],
        "lbm.evolve.calls": calls("lbm.evolve"),
        "lbm.evolve.node_steps": counts["lbm.evolve.nodes"],
        "lbm.evolve.ns_per_node": _ratio(total("lbm.evolve") * 1e9,
                                         counts["lbm.evolve.nodes"]),
        "lbm.evolve.bytes_computed": counts["lbm.evolve.bytes"],
        "lbm.fd_equivalence_deviation.self_s":
            self_s("lbm.fd_equivalence_deviation"),
        "lbm.trace_bytes_computed": counts["lbm.trace_bytes"],
        "calibration.calibrate_sixth.us_per_call": _ratio(
            total("calibration.calibrate_sixth") * 1e6,
            calls("calibration.calibrate_sixth")),
        "calibration.calibration_sweep.us_per_point": _ratio(
            total("calibration.calibration_sweep") * 1e6,
            counts["calibration.sweep.points"]),
        "calibration.sweep.ok_fraction": _ratio(
            counts["calibration.sweep.ok"],
            counts["calibration.sweep.points"]),
        "stability.spectral_radius_scan.calls":
            calls("stability.spectral_radius_scan"),
        "stability.spectral_radius_scan.us_per_theta": _ratio(
            total("stability.spectral_radius_scan") * 1e6,
            counts["stability.thetas"]),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "verification.run_benchmark.self_s":
            self_s("verification.run_benchmark"),
        "verification.convergence_csv_lines.s":
            total("verification.convergence_csv_lines"),
        "verification.output_bytes": counts["verification.output_bytes"],
        "trace.coverage": _ratio(top_s, rep_s),
    }
