"""Convergence benchmarks on the decaying-sine diffusion problem.

The manufactured problem is d(phi)/dt = kappa * d2(phi)/dx2 on 0 <= x <= 1
with phi(x, 0) = sin(pi*x) and homogeneous Dirichlet ends, whose solution is
sin(pi*x) * exp(-kappa*pi**2*t).  Benchmark cases tie the time step to the
mesh through dt = 30*dx**2 and kappa = epsilon/30, which keeps the mesh
Fourier number equal to epsilon on every refinement level, so the measured
error decay isolates the spatial order.  Errors are root-mean-square over
the interior nodes at t_end = 12, and observed orders come from the log2
ratio of errors on successive 2x refinements.  Every case of a table, at
every spacing, goes into one staged march of the four-level scheme, with
one group of rows per spacing; each case gets the bits it would get
marched on its own.  Every CSV writer of the package goes through
`csv_lines`, which writes each number as "{:.17g}", so a float read back
from CSV has the bits it had.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import calibration
from .calibration import CalibrationResult, ModelParams
from .errors import DomainError
from .scheme import (_MAX_INTERVALS, BoundarySpec, Grid1D, _check_node_steps,
                     _is_spacing, _march)

DEFAULT_EPSILONS = (0.1, 0.15, 0.175, 0.2, 0.24)
DEFAULT_SPACINGS = (0.1, 0.05, 0.025)
_DT_OVER_DX2 = 30.0
_T_END = 12.0
# Tables of 2,000 epsilons at the default spacings peaked at 185-208 B per
# node of their rows (tracemalloc; a profile at 120): 2**20 nodes keep that
# near 220 MB.
_MAX_TABLE_NODES = 2 ** 20


def analytic_phi(x, t, kappa: float):
    """Exact solution of the decaying-sine problem; broadcasts over x."""
    return np.sin(np.pi * x) * np.exp(-kappa * np.pi ** 2 * t)


def rmse(numerical: np.ndarray, analytic: np.ndarray) -> float:
    """Root-mean-square deviation between two equally long samplings."""
    a = np.asarray(numerical, dtype=float)
    b = np.asarray(analytic, dtype=float)
    if a.shape != b.shape:
        raise DomainError("fields must share a length")
    if a.size == 0:
        raise DomainError("fields must not be empty")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def convergence_rate(err_coarse: float, err_fine: float) -> float:
    """Observed order from one 2x refinement: log2(coarse/fine)."""
    for err in (err_coarse, err_fine):
        if not (math.isfinite(err) and err > 0.0):
            raise DomainError("errors must be positive and finite to take a "
                              f"rate, got {err}")
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
        except OverflowError:
            raise DomainError(f"dx = {self.dx} is out of range: 1/dx or dt "
                              "leaves the float range") from None
        if n > 1:
            Grid1D(n)  # refuses more intervals than a grid may hold
        if n == 0 or not _is_spacing(self.dx, n):
            raise DomainError(f"dx = {self.dx} does not divide the unit "
                              "interval")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "kappa", self.epsilon / _DT_OVER_DX2)
        object.__setattr__(self, "t_end", _T_END)
        if self.params is None:
            object.__setattr__(self, "params", _params_for(self.order,
                                                           self.epsilon))
        elif (self.params.epsilon, self.params.order) != (self.epsilon,
                                                          self.order):
            raise DomainError("params must be calibrated for the case's "
                              "epsilon and order")
        if n == 1:
            Grid1D(n)  # refuses one interval, once the calibration has run


def _march_decaying_sine(cases, t_end: float) -> list:
    """March benchmark cases to t_end as one staged batch.

    dt = 30*dx**2 does not depend on epsilon, so the cases at one dx share
    the grid, dt and step count and form one group of `scheme._march`.
    Returns (grid nodes, field at t_end) per case, in the order given.
    """
    by_dx = {}
    for i, case in enumerate(cases):
        by_dx.setdefault(case.dx, []).append(i)
    groups = []
    for dx, rows in by_dx.items():
        group = [cases[i] for i in rows]
        params = [ModelParams(c.params.omega0, c.params.s1, c.params.s2,
                              dx=c.dx, dt=c.dt)
                  for c in group]
        kappa = np.array([[c.kappa] for c in group])
        groups.append((params, Grid1D(round(1.0 / dx)),
                       lambda x, t, kappa=kappa: analytic_phi(x, t, kappa),
                       t_end))
    finals = _march(groups, BoundarySpec.dirichlet(0.0, 0.0))
    fields = [None] * len(cases)
    for (_, grid, _, _), rows, final in zip(groups, by_dx.values(), finals):
        xs = grid.nodes()
        for i, row in zip(rows, final):
            fields[i] = (xs, row)
    return fields


def _interior_rmse(case: BenchmarkCase, xs: np.ndarray,
                   final: np.ndarray) -> float:
    exact = analytic_phi(xs, case.t_end, case.kappa)
    return rmse(final[1:-1], exact[1:-1])


def _check_table_nodes(n_eps: int, spacings) -> None:
    """Refuse a table or profile whose rows hold more than
    _MAX_TABLE_NODES nodes, or whose march at one spacing would take more
    node-steps than `scheme._march` allows, before anything is calibrated.
    dt = 30*dx**2 depends on neither epsilon nor order, so the second check
    is `_check_group`'s, message and all.  A spacing that no grid can hold
    counts none here: its case refuses it."""
    held = [dx for dx in spacings if dx * _MAX_INTERVALS >= 1.0]
    nodes = n_eps * sum(round(1.0 / dx) + 1 for dx in held)
    if nodes > _MAX_TABLE_NODES:
        raise DomainError(f"{n_eps} epsilons at these spacings make {nodes} "
                          f"nodes, more than the {_MAX_TABLE_NODES} a table "
                          "or profile may hold")
    for dx in held:
        # Past dx = 1 a case refuses its spacing, and dx**2 may overflow.
        if dx <= 1.0:
            _check_node_steps(n_eps * (round(1.0 / dx) + 1),
                              _T_END / (_DT_OVER_DX2 * dx ** 2))


def run_benchmark(case: BenchmarkCase) -> float:
    """March the scheme to t_end and return the interior-node RMSE."""
    ((xs, final),) = _march_decaying_sine([case], case.t_end)
    return _interior_rmse(case, xs, final)


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
    Each epsilon is calibrated once, and all cases march in one staged
    batch, so the coarse spacings cost nothing once they have ended; each
    spacing may take at most 2**36 node-steps and the table's rows at most
    2**20 nodes, both checked before anything is calibrated.
    """
    eps_values = tuple(DEFAULT_EPSILONS if eps_list is None else eps_list)
    dx_values = tuple(DEFAULT_SPACINGS if dx_list is None else dx_list)
    if not eps_values or not dx_values:
        raise DomainError("epsilon and dx lists must not be empty")
    if any(b >= a for a, b in zip(dx_values, dx_values[1:])):
        raise DomainError("dx list must be strictly decreasing")
    _check_table_nodes(len(eps_values), dx_values)
    # The cases at later spacings share the calibration made at the first;
    # column j holds the errors at dx_values[j].
    first = [BenchmarkCase(epsilon=eps, dx=dx_values[0], order=order)
             for eps in eps_values]
    cases = [replace(case, dx=dx) for dx in dx_values for case in first]
    errs = [_interior_rmse(case, xs, final) for case, (xs, final)
            in zip(cases, _march_decaying_sine(cases, _T_END))]
    columns = [errs[j:j + len(first)]
               for j in range(0, len(errs), len(first))]
    reports = []
    for i, eps in enumerate(eps_values):
        rows = tuple((dx, col[i]) for dx, col in zip(dx_values, columns))
        rates = tuple(convergence_rate(rows[k][1], rows[k + 1][1])
                      for k in range(len(rows) - 1))
        reports.append(ConvergenceReport(epsilon=eps, order=order,
                                         rows=rows, rates=rates))
    return reports


def csv_lines(header: str, rows) -> list[str]:
    """The header, then one comma-joined line per row of fields: numbers
    as "{:.17g}" of their float, strings as they are, None as empty."""
    def text(value) -> str:
        if value is None:
            return ""
        return value if isinstance(value, str) else f"{float(value):.17g}"
    return [header] + [",".join(map(text, row)) for row in rows]


def snapshot_csv_lines(xs: np.ndarray, phi: np.ndarray) -> list[str]:
    """Serialize one field snapshot as CSV lines with header x,phi."""
    if xs.shape != phi.shape:
        raise DomainError("x and phi must share a length")
    return csv_lines("x,phi", zip(xs, phi))


def convergence_csv_lines(reports: list[ConvergenceReport]) -> list[str]:
    """Serialize refinement reports; the coarsest row has an empty rate."""
    return csv_lines("epsilon,order,dx,dt,rmse,rate", (
        (rep.epsilon, rep.order, dx, dt, err, rate) for rep in reports
        for (dx, err), dt, rate in zip(rep.rows, rep.dts(),
                                       (None,) + rep.rates)))


@dataclass(frozen=True)
class SolutionProfile:
    """Numeric versus exact field at t_end for one epsilon."""

    epsilon: float
    x: np.ndarray
    phi_numeric: np.ndarray
    phi_analytic: np.ndarray
    max_abs_deviation: float


def profile_solution(epsilon_list=None) -> list[SolutionProfile]:
    """Full-field comparison against the exact solution at t_end, at sixth
    order on the finest default spacing, dx = 0.025; the profiles may hold
    at most 2**20 nodes, checked before anything is calibrated."""
    eps_values = tuple(DEFAULT_EPSILONS if epsilon_list is None
                       else epsilon_list)
    if not eps_values:
        raise DomainError("the epsilon list must not be empty")
    _check_table_nodes(len(eps_values), DEFAULT_SPACINGS[-1:])
    cases = [BenchmarkCase(epsilon=eps, dx=DEFAULT_SPACINGS[-1],
                           order="sixth") for eps in eps_values]
    profiles = []
    for case, (xs, final) in zip(cases, _march_decaying_sine(cases, _T_END)):
        exact = analytic_phi(xs, case.t_end, case.kappa)
        profiles.append(SolutionProfile(
            epsilon=case.epsilon, x=xs, phi_numeric=final,
            phi_analytic=exact,
            max_abs_deviation=float(np.max(np.abs(final - exact)))))
    return profiles


def profile_csv_lines(profiles: list[SolutionProfile]) -> list[str]:
    return csv_lines("epsilon,x,phi_numeric,phi_analytic", (
        (prof.epsilon, *values) for prof in profiles
        for values in zip(prof.x, prof.phi_numeric, prof.phi_analytic)))
