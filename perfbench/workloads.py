"""The four benchmark workloads, each with its correctness checks.

A workload is built from the seed by `WORKLOADS[name](seed)`, which returns
a pair `(op, check)`:

- `op()` performs one repetition through public lbmfd functions only and
  returns its raw outputs.  Only `op` is timed.
- `check(out)` returns `(results, digest)`: one boolean per checked
  operation and a sha256 of the serialized output, which must not change
  from one repetition (or process) to the next.

Every reference value is computed here, independently of the marching code
it checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np

from lbmfd import calibration, cli, lbm, scheme, stability, verification

ORDERS = ("second", "fourth", "sixth")

# Tolerances of the modal oracle.  Both sides are float64 and their gap is
# rounding: the field is O(1), so allow two ulps of 1 per step, accumulated
# linearly (the largest gap on the 45 table cells is 9.1e-14 after 640
# steps, against 2.8e-13 allowed).
ROUNDING_PER_STEP = 2.0 ** -51
ORACLE_RTOL = 1e-9
# The calibration docstring promises residuals below this value.
RESIDUAL_TOL = 1e-12
# The four-level prediction matches the mesoscopic field to rounding error.
EQUIVALENCE_TOL = 1e-12

WIDE_INTERVALS = 2 ** 18
WIDE_STEPS = 200
WIDE_EPSILON = 0.1

MESO_NODES = 2 ** 14
MESO_STEPS = 400
MESO_TRIPLE = (0.5, 1.5, 0.5)


def _digest(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def modal_amplitude(coeffs, dx: float, kappa: float, dt: float,
                    n_steps: int) -> float:
    """Amplitude of sin(pi*x) after n_steps four-level updates.

    With zero Dirichlet ends, sin(pi*x_j) is an exact eigenvector of the
    stencil: a neighbour pair sums to 2*cos(pi*dx) times the centre.  The
    field stays A_n*sin(pi*x_j), and A_n obeys a scalar three-term
    recurrence started from the exact amplitudes at t = 0, dt, 2*dt.
    """
    c = math.cos(math.pi * dx)
    a = 2.0 * coeffs.side_n * c + coeffs.center_n
    b = 2.0 * coeffs.side_nm1 * c + coeffs.center_nm1
    d = coeffs.center_nm2
    old, prev, cur = (math.exp(-kappa * math.pi ** 2 * k * dt)
                      for k in range(3))
    for _ in range(n_steps - 2):
        old, prev, cur = prev, cur, a * cur + b * prev + d * old
    return cur


def modal_rmse(coeffs, dx: float, kappa: float, dt: float,
               n_steps: int) -> float:
    """Interior-node RMSE of the modal solution against the exact decay."""
    n = round(1.0 / dx)
    amp = modal_amplitude(coeffs, dx, kappa, dt, n_steps)
    exact = math.exp(-kappa * math.pi ** 2 * n_steps * dt)
    shape = np.sin(np.pi * np.arange(1, n) / n)
    return abs(amp - exact) * math.sqrt(float(np.mean(shape ** 2)))


def _close(value: float, reference: float, n_steps: int) -> bool:
    return abs(value - reference) <= (ROUNDING_PER_STEP * n_steps
                                      + ORACLE_RTOL * abs(reference))


def table(seed: int):
    """The paper's convergence tables: all three orders on the default
    5 epsilons x 3 spacings (45 marches at N <= 41), then their CSV."""
    del seed  # a fixed problem from the paper
    oracle = {}

    def op():
        reports = [rep for order in ORDERS
                   for rep in verification.reproduce_table(order)]
        return reports, verification.convergence_csv_lines(reports)

    def check(out):
        reports, lines = out
        if not oracle:
            for order in ORDERS:
                for eps in verification.DEFAULT_EPSILONS:
                    for dx in verification.DEFAULT_SPACINGS:
                        case = verification.BenchmarkCase(eps, dx, order)
                        res = case.params
                        coeffs = scheme.coefficients(res.omega0, res.s1,
                                                     res.s2)
                        n_steps = round(case.t_end / case.dt)
                        oracle[order, eps, dx] = n_steps, modal_rmse(
                            coeffs, dx, case.kappa, case.dt, n_steps)
        results = []
        for rep in reports:
            for dx, err in rep.rows:
                n_steps, ref = oracle[rep.order, rep.epsilon, dx]
                results.append(_close(err, ref, n_steps))
        csv_errs = [float(line.split(",")[4]) for line in lines[1:]]
        results.append(csv_errs == [err for rep in reports
                                    for _, err in rep.rows])
        return results, _digest("\n".join(lines).encode())

    return op, check


def wide_grid(seed: int):
    """One sixth-order Dirichlet decaying-sine march through scheme.run on
    2**18 intervals for 200 steps; each of the four live levels is 2 MiB."""
    del seed  # a fixed problem from the paper
    dx = 1.0 / WIDE_INTERVALS
    dt = 30.0 * dx * dx
    kappa = WIDE_EPSILON / 30.0
    t_end = WIDE_STEPS * dt
    xs = np.arange(WIDE_INTERVALS + 1) / WIDE_INTERVALS
    shape = np.sin(np.pi * xs)
    oracle = {}

    def op():
        res = calibration.calibrate_sixth(WIDE_EPSILON)
        params = calibration.ModelParams.from_rates(
            res.omega0, res.s1, res.s2, dx=dx, dt=dt)
        final = scheme.run(
            params, scheme.Grid1D(WIDE_INTERVALS),
            lambda x, t: verification.analytic_phi(x, t, kappa),
            scheme.BoundarySpec.dirichlet(0.0, 0.0), t_end)
        return res, final

    def check(out):
        res, final = out
        if not oracle:
            coeffs = scheme.coefficients(res.omega0, res.s1, res.s2)
            oracle["amp"] = modal_amplitude(coeffs, dx, kappa, dt,
                                            WIDE_STEPS)
            oracle["rmse"] = modal_rmse(coeffs, dx, kappa, dt, WIDE_STEPS)
        exact = shape * math.exp(-kappa * math.pi ** 2 * t_end)
        err = float(np.sqrt(np.mean((final[1:-1] - exact[1:-1]) ** 2)))
        field_gap = float(np.max(np.abs(final - oracle["amp"] * shape)))
        results = [
            final.shape == xs.shape and final[0] == 0.0 and final[-1] == 0.0,
            _close(err, oracle["rmse"], WIDE_STEPS),
            field_gap <= ROUNDING_PER_STEP * WIDE_STEPS,
        ]
        return results, _digest(final.tobytes())

    return op, check


def analysis(seed: int):
    """Parameter-space work without a Dirichlet march: a dense sweep that
    crosses epsilon_max, calibration and stability scans at seeded
    epsilons, and one in-process call of four CLI subcommands."""
    rng = np.random.default_rng(seed)
    sweep_grid = np.linspace(0.01, 0.30, 600)
    # Below epsilon_max (about 0.2624), where sixth order is solvable.
    samples = [float(e) for e in rng.uniform(0.01, 0.26, size=24)]
    probe = calibration.calibrate_sixth(samples[0])
    triple = [repr(v) for v in (probe.omega0, probe.s1, probe.s2)]
    cli_calls = [
        ["calibrate", "--epsilon", repr(samples[0]), "--order", "6"],
        ["stability", "--omega0", triple[0], "--s1", triple[1],
         "--s2", triple[2]],
        ["sweep", "--eps-min", "0.01", "--eps-max", "0.3",
         "--n-points", "30"],
        ["equivalence", "--omega0", triple[0], "--s1", triple[1],
         "--s2", triple[2], "--seed", str(seed)],
    ]

    def op():
        rows = calibration.calibration_sweep(sweep_grid)
        eps_max = calibration.epsilon_max()
        calibrated = []
        for eps in samples:
            for res in (calibration.calibrate_sixth(eps),
                        calibration.calibrate_fourth(eps)):
                scan = stability.spectral_radius_scan(res.omega0, res.s1,
                                                      res.s2)
                calibrated.append((res, scan))
        cli_out = []
        for argv in cli_calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            cli_out.append((code, buf.getvalue()))
        return rows, eps_max, calibrated, cli_out

    def check(out):
        rows, eps_max, calibrated, cli_out = out
        statuses = [row.status for row in rows]
        flips = sum(a != b for a, b in zip(statuses, statuses[1:]))
        first_bad = statuses.index("no_real_root") if flips else 0
        results = [flips == 1 and statuses[0] == "ok"
                   and rows[first_bad - 1].epsilon <= eps_max
                   < rows[first_bad].epsilon]
        for res, scan in calibrated:
            residuals = [res.residual_second]
            if res.order == "sixth":
                residuals.append(res.residual_fourth)
            results.append(all(abs(r) <= RESIDUAL_TOL for r in residuals))
            results.append(scan.stable)
        results.extend(code == 0 for code, _ in cli_out)
        payload = {
            "sweep": [[r.epsilon, r.omega0, r.s1, r.s2, r.status]
                      for r in rows],
            "epsilon_max": eps_max,
            "calibrated": [[res.to_json_dict(), scan.to_json_dict()]
                           for res, scan in calibrated],
            "cli": cli_out,
        }
        return results, _digest(payload)

    return op, check


def mesoscopic(seed: int):
    """lbm.fd_equivalence_deviation on 2**14 periodic nodes for 400 steps,
    from a start field drawn with the workload seed."""

    def op():
        return lbm.fd_equivalence_deviation(MESO_NODES, MESO_STEPS,
                                            *MESO_TRIPLE, seed=seed)

    def check(out):
        max_dev, max_phi = out
        ok = math.isfinite(max_phi) and 0.0 < max_phi \
            and max_dev <= EQUIVALENCE_TOL * max_phi
        return [ok], _digest([max_dev, max_phi])

    return op, check


WORKLOADS = {
    "table": table,
    "wide_grid": wide_grid,
    "analysis": analysis,
    "mesoscopic": mesoscopic,
}
