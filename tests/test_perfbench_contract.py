"""The benchmark in perfbench/ against the lbmfd names it uses.

The benchmark calls public lbmfd functions by name and wraps some of them
by attribute, so a renamed function or a changed signature would otherwise
show up only as a failed benchmark run.  Its modules are loaded here from
their files; the tracer is never installed, as that patches the lbmfd
modules globally.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lbmfd import calibration, lbm, scheme, stability

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_every_traced_attribute_resolves():
    for module, attr, name, _ in tracing.TRACED:
        assert callable(getattr(module, attr, None)), name
    assert callable(tracing.verification.analytic_phi)


def test_the_tracer_counters_read_real_results():
    counts = Counter()
    history = scheme.PhiHistory.from_levels(*[np.zeros(5)] * 3)
    tracing._count_step(counts, (history,), {}, None)
    params = calibration.ModelParams(0.8, 1.0, 1.0, dx=1.0, dt=1.0)
    tracing._count_evolve(counts, (lbm.initialize(np.zeros(4), params),),
                          {}, None)
    tracing._count_scan(counts, (), {},
                        stability.spectral_radius_scan(0.8, 1.0, 1.0))
    tracing._count_sweep(counts, (), {},
                         calibration.calibration_sweep([0.1, 0.3]))
    assert counts == Counter({
        "scheme.step.nodes": 5, "scheme.step.bytes": 160,
        "lbm.evolve.nodes": 4, "lbm.evolve.bytes": 192,
        "stability.thetas": 721,
        "calibration.sweep.points": 2, "calibration.sweep.ok": 1})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_own_checks(name):
    op, check = workloads.WORKLOADS[name](1)
    results, digest = check(op())
    assert results and all(results)
    assert len(digest) == 64
