"""Convergence benchmarks on the decaying-sine diffusion problem.

The manufactured problem is d(phi)/dt = kappa * d2(phi)/dx2 on 0 <= x <= 1
with phi(x, 0) = sin(pi*x) and homogeneous Dirichlet ends, whose solution is
sin(pi*x) * exp(-kappa*pi**2*t).  Benchmark cases tie the time step to the
mesh through dt = 30*dx**2 and kappa = epsilon/30, which keeps the mesh
Fourier number equal to epsilon on every refinement level, so the measured
error decay isolates the spatial order.  Errors are root-mean-square over
the interior nodes at t_end = 12, and observed orders come from the log2
ratio of errors on successive 2x refinements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import calibration
from .calibration import CalibrationResult, ModelParams
from .errors import DomainError, LengthMismatch
from .scheme import BoundarySpec, Grid1D, run

_FMT = "{:.17g}"

DEFAULT_EPSILONS = (0.1, 0.15, 0.175, 0.2, 0.24)
DEFAULT_SPACINGS = (0.1, 0.05, 0.025)
_DT_OVER_DX2 = 30.0
_T_END = 12.0
# A march holds about six float64 arrays of the node count: 2**22 intervals
# keep that near 200 MB.
_MAX_INTERVALS = 2 ** 22


def analytic_phi(x, t, kappa: float):
    """Exact solution of the decaying-sine problem; broadcasts over x."""
    return np.sin(np.pi * x) * np.exp(-kappa * np.pi ** 2 * t)


def rmse(numerical: np.ndarray, analytic: np.ndarray) -> float:
    """Root-mean-square deviation between two equally long samplings."""
    a = np.asarray(numerical, dtype=float)
    b = np.asarray(analytic, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch("fields must share a length")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def convergence_rate(err_coarse: float, err_fine: float) -> float:
    """Observed order from one 2x refinement: log2(coarse/fine)."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        raise DomainError("errors must be positive to take a rate")
    return math.log(err_coarse / err_fine) / math.log(2.0)


def _params_for(order: str, epsilon: float) -> CalibrationResult:
    if order == "sixth":
        return calibration.calibrate_sixth(epsilon)
    if order == "fourth":
        return calibration.calibrate_fourth(epsilon, 1.0)
    if order == "second":
        return calibration.second_order_reference(epsilon)
    raise DomainError(f"order must be one of {calibration.ORDERS}")


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark configuration with its calibrated parameter set.

    `params` is calibrated by the calibrator of `order`, which validates
    epsilon; a given one must be calibrated for the same epsilon and order
    (else `DomainError`), so cases that differ only in dx can share it.
    """

    epsilon: float
    dx: float
    order: str
    dt: float = field(init=False)
    kappa: float = field(init=False)
    t_end: float = field(init=False)
    params: CalibrationResult | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise DomainError(f"dx must be positive and finite, got {self.dx}")
        try:
            n = round(1.0 / self.dx)
            dt = _DT_OVER_DX2 * self.dx ** 2
            n_steps = round(_T_END / dt)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"dx = {self.dx} is too small: 1/dx, dt or the "
                              "step count leaves the float range") from None
        if n > _MAX_INTERVALS:
            raise DomainError(f"dx = {self.dx} needs {float(n):.3g} "
                              f"intervals, more than the {_MAX_INTERVALS} a "
                              "march may hold")
        if abs(n * self.dx - 1.0) > 1e-9:
            raise DomainError(f"dx = {self.dx} does not divide the unit "
                              "interval")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "kappa", self.epsilon / _DT_OVER_DX2)
        object.__setattr__(self, "t_end", _T_END)
        if abs(n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise DomainError("t_end is not an integer multiple of dt at "
                              f"dx = {self.dx}")
        if self.params is None:
            object.__setattr__(self, "params", _params_for(self.order,
                                                           self.epsilon))
        elif (self.params.epsilon, self.params.order) != (self.epsilon,
                                                          self.order):
            raise DomainError("params must be calibrated for the case's "
                              "epsilon and order")


def _march_decaying_sine(cases,
                         t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """March benchmark cases that share dx to t_end as one batch.

    Returns the grid nodes and a (cases, nodes) array whose row i is the
    field of cases[i] at t_end.  dt = 30*dx**2 does not depend on epsilon,
    so every case at one dx shares the grid and the step count.
    """
    params = [ModelParams.from_rates(c.params.omega0, c.params.s1,
                                     c.params.s2, dx=c.dx, dt=c.dt)
              for c in cases]
    kappa = np.array([[c.kappa] for c in cases])
    grid = Grid1D(round(1.0 / cases[0].dx))
    finals = run(params, grid, lambda x, t: analytic_phi(x, t, kappa),
                 BoundarySpec.dirichlet(0.0, 0.0), t_end)
    return grid.nodes(), finals


def _interior_rmse(case: BenchmarkCase, xs: np.ndarray,
                   final: np.ndarray) -> float:
    exact = analytic_phi(xs, case.t_end, case.kappa)
    return rmse(final[1:-1], exact[1:-1])


def run_benchmark(case: BenchmarkCase) -> float:
    """March the scheme to t_end and return the interior-node RMSE."""
    xs, finals = _march_decaying_sine([case], case.t_end)
    return _interior_rmse(case, xs, finals[0])


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors and observed orders for one epsilon across refinements."""

    epsilon: float
    order: str
    rows: tuple
    rates: tuple

    def dts(self) -> tuple:
        return tuple(_DT_OVER_DX2 * dx ** 2 for dx, _ in self.rows)


def reproduce_table(order: str, eps_list=None,
                    dx_list=None) -> list[ConvergenceReport]:
    """Run the refinement study for each epsilon at one accuracy order.

    dx_list must be strictly decreasing; rates pair successive levels.
    """
    eps_values = tuple(DEFAULT_EPSILONS if eps_list is None else eps_list)
    dx_values = tuple(DEFAULT_SPACINGS if dx_list is None else dx_list)
    if not eps_values or not dx_values:
        raise DomainError("epsilon and dx lists must not be empty")
    if any(b >= a for a, b in zip(dx_values, dx_values[1:])):
        raise DomainError("dx list must be strictly decreasing")
    # Each epsilon is calibrated once, at the first spacing; one batched
    # march per spacing, and column j holds the errors at dx_values[j].
    first = [BenchmarkCase(epsilon=eps, dx=dx_values[0], order=order)
             for eps in eps_values]
    columns = []
    for dx in dx_values:
        cases = [replace(case, dx=dx) for case in first]
        xs, finals = _march_decaying_sine(cases, _T_END)
        columns.append([_interior_rmse(case, xs, final)
                        for case, final in zip(cases, finals)])
    reports = []
    for i, eps in enumerate(eps_values):
        rows = tuple((dx, col[i]) for dx, col in zip(dx_values, columns))
        rates = tuple(convergence_rate(rows[k][1], rows[k + 1][1])
                      for k in range(len(rows) - 1))
        reports.append(ConvergenceReport(epsilon=eps, order=order,
                                         rows=rows, rates=rates))
    return reports


def convergence_csv_lines(reports: list[ConvergenceReport]) -> list[str]:
    """Serialize refinement reports; the coarsest row has an empty rate."""
    lines = ["epsilon,order,dx,dt,rmse,rate"]
    for rep in reports:
        for i, ((dx, err), dt) in enumerate(zip(rep.rows, rep.dts())):
            rate = "" if i == 0 else _FMT.format(rep.rates[i - 1])
            lines.append(",".join([
                _FMT.format(rep.epsilon),
                rep.order,
                _FMT.format(dx),
                _FMT.format(dt),
                _FMT.format(err),
                rate,
            ]))
    return lines


@dataclass(frozen=True)
class SolutionProfile:
    """Numeric versus exact field at t_end for one epsilon."""

    epsilon: float
    x: np.ndarray
    phi_numeric: np.ndarray
    phi_analytic: np.ndarray
    max_abs_deviation: float


def profile_solution(epsilon_list=None, dx: float = 0.025,
                     order: str = "sixth") -> list[SolutionProfile]:
    """Full-field comparison against the exact solution at t_end."""
    eps_values = tuple(DEFAULT_EPSILONS if epsilon_list is None
                       else epsilon_list)
    if not eps_values:
        raise DomainError("the epsilon list must not be empty")
    cases = [BenchmarkCase(epsilon=eps, dx=dx, order=order)
             for eps in eps_values]
    xs, finals = _march_decaying_sine(cases, _T_END)
    profiles = []
    for case, final in zip(cases, finals):
        exact = analytic_phi(xs, case.t_end, case.kappa)
        profiles.append(SolutionProfile(
            epsilon=case.epsilon, x=xs, phi_numeric=final,
            phi_analytic=exact,
            max_abs_deviation=float(np.max(np.abs(final - exact)))))
    return profiles


def profile_csv_lines(profiles: list[SolutionProfile]) -> list[str]:
    lines = ["epsilon,x,phi_numeric,phi_analytic"]
    for prof in profiles:
        for x, num, exa in zip(prof.x, prof.phi_numeric, prof.phi_analytic):
            lines.append(",".join([
                _FMT.format(prof.epsilon),
                _FMT.format(float(x)),
                _FMT.format(float(num)),
                _FMT.format(float(exa)),
            ]))
    return lines
