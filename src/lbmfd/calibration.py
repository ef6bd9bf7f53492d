"""Parameters and accuracy calibration for the D1Q3 MRT diffusion model.

The mesoscopic model solves d(phi)/dt = kappa * d2(phi)/dx2 + R with three
velocities (-c, 0, c), rest-population weight omega0 (moving weights
omega1 = (1 - omega0) / 2 each) and relaxation rates (s0, s1, s2) for the
conserved, first and second moments.  `ModelParams` holds that set with the
mesh (dx, dt) and the source R as one record, which the finite-difference
march and the mesoscopic helpers take whole.  Two dimensionless groups
control the truncation error of the equivalent four-level finite-difference
update:

    epsilon = kappa * dt / dx**2 = (1 - omega0) * (1/s1 - 1/2)

and the rates themselves.  The scheme is second-order accurate in space for
any admissible parameters.  Zeroing the dx**2 truncation term raises it to
fourth order; zeroing the dx**4 term as well raises it to sixth order.  Both
conditions are polynomial in (omega0, s1, s2, epsilon):

    dx**2 term:  s1*s2/12 - (omega0*s2/2 + s1/2 - 1)
                 + (s1*s2/2 - s2 - s1)*epsilon = 0

    dx**4 term:  s1*s2/360 - (omega0*s2/2 + s1/2 - 1)/12
                 - (s1*s2/6 - omega0*s2/2 - s1/2 + 1)*epsilon/2
                 + (-2*s1*s2/3 + s2 + s1 - 1)*epsilon**2 = 0

`calibrate_fourth` solves the first condition in closed form (it is linear in
s2 once s1 is pinned and omega0 is forced by epsilon).  For
`calibrate_sixth` both conditions must hold at once: eliminating omega0
through the epsilon identity and s2 through the dx**2 condition (each is
linear in s2) reduces the pair to a single cubic in s1.  That cubic has
exactly one real root for 0 < epsilon <= epsilon_max() (about 0.2624, where
its discriminant changes sign); the root fixes the whole triple, which is
accepted when it lies in the open box and both residuals are at most 1e-12.
Larger epsilon is treated as out of calibration range, keeping omega0 in
[0.8, 1), s1 in (0, 0.92] and s2 in [1.12, 2) over the accepted domain.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, NoRealRoot

ORDERS = ("second", "fourth", "sixth")

_RESIDUAL_TOL = 1e-12


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError(f"epsilon must be positive and finite, got "
                          f"{epsilon}")


def check_box(omega0: float | None = None, s1: float | None = None,
              s2: float | None = None) -> None:
    """Raise DomainError unless each given parameter lies in its open
    interval: omega0 in (0, 1), s1 and s2 in (0, 2).  None skips a check."""
    for name, value, hi in (("omega0", omega0, 1.0), ("s1", s1, 2.0),
                            ("s2", s2, 2.0)):
        if value is not None and not 0.0 < value < hi:
            raise DomainError(f"{name} must lie in (0, {hi:g}), got {value}")


@dataclass(frozen=True)
class ModelParams:
    """The parameter set of one model run: rest weight omega0, relaxation
    rates s1, s2 (and s0, which drops out of the update), mesh (dx, dt)
    and source R.

    Derived: the moving weight omega1 = (1 - omega0)/2,
    kappa = 2*omega1*(1/s1 - 1/2)*dx**2/dt and epsilon = kappa*dt/dx**2.
    Construction rejects a triple outside the open box (see check_box),
    non-finite s0, dx, dt and source_R, non-positive dx and dt, and a kappa
    or epsilon that leaves the float range.
    """

    omega0: float
    s1: float
    s2: float
    dx: float
    dt: float
    source_R: float = 0.0
    s0: float = 1.0
    omega1: float = field(init=False)
    kappa: float = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        check_box(self.omega0, self.s1, self.s2)
        for name in ("s0", "dx", "dt", "source_R"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        if self.dx <= 0.0 or self.dt <= 0.0:
            raise DomainError("dx and dt must be positive")
        omega1 = (1.0 - self.omega0) / 2.0
        try:
            kappa = (2.0 * omega1 * (1.0 / self.s1 - 0.5)
                     * self.dx ** 2 / self.dt)
            epsilon = kappa * self.dt / self.dx ** 2
        except (OverflowError, ZeroDivisionError):
            kappa = epsilon = math.inf
        if not (math.isfinite(kappa) and math.isfinite(epsilon)):
            raise DomainError(f"dx = {self.dx} and dt = {self.dt} put kappa "
                              "or epsilon outside the float range")
        if kappa <= 0.0:
            raise DomainError(f"kappa must be positive, got {kappa}")
        object.__setattr__(self, "omega1", omega1)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "epsilon", epsilon)

    @classmethod
    def from_rates(cls, omega0: float, s1: float, s2: float, dx: float,
                   dt: float, source_R: float = 0.0,
                   s0: float = 1.0) -> "ModelParams":
        """The constructor under its earlier name."""
        return cls(omega0, s1, s2, dx, dt, source_R, s0)


def residual_second(omega0: float, s1: float, s2: float,
                    epsilon: float) -> float:
    """Residual of the dx**2 truncation term; zero means fourth order."""
    return (s1 * s2 / 12.0 - (omega0 * s2 / 2.0 + s1 / 2.0 - 1.0)
            + (s1 * s2 / 2.0 - s2 - s1) * epsilon)


def residual_fourth(omega0: float, s1: float, s2: float,
                    epsilon: float) -> float:
    """Residual of the dx**4 truncation term; zero (with the dx**2 term
    already zero) means sixth order."""
    return (s1 * s2 / 360.0
            - (omega0 * s2 / 2.0 + s1 / 2.0 - 1.0) / 12.0
            - (s1 * s2 / 6.0 - omega0 * s2 / 2.0 - s1 / 2.0 + 1.0)
            * epsilon / 2.0
            + (-2.0 * s1 * s2 / 3.0 + s2 + s1 - 1.0) * epsilon ** 2)


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated (omega0, s1, s2) triple with its accuracy residuals,
    which are computed from the triple and epsilon."""

    epsilon: float
    omega0: float
    s1: float
    s2: float
    residual_second: float = field(init=False)
    residual_fourth: float = field(init=False)
    order: str

    def __post_init__(self):
        triple = (self.omega0, self.s1, self.s2, self.epsilon)
        object.__setattr__(self, "residual_second", residual_second(*triple))
        object.__setattr__(self, "residual_fourth", residual_fourth(*triple))
        if self.order not in ORDERS:
            raise DomainError(f"order must be one of {ORDERS}")
        check_box(self.omega0, self.s1, self.s2)
        if self.order in ("fourth", "sixth") \
                and abs(self.residual_second) > _RESIDUAL_TOL:
            raise DomainError("fourth/sixth order requires a vanishing "
                              "dx**2 residual")
        if self.order == "sixth" and abs(self.residual_fourth) > _RESIDUAL_TOL:
            raise DomainError("sixth order requires a vanishing dx**4 "
                              "residual")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _omega0_of_s1(s1: float, epsilon: float) -> float:
    # epsilon identity solved for omega0 at fixed s1.
    return 1.0 - 2.0 * epsilon * s1 / (2.0 - s1)


def _s2_of(omega0: float, s1: float, epsilon: float) -> float | None:
    # dx**2 condition solved for s2 (it is linear in s2); None where it
    # degenerates.
    den = s1 / 12.0 - omega0 / 2.0 + (s1 / 2.0 - 1.0) * epsilon
    if den == 0.0:
        return None
    return (s1 / 2.0 - 1.0 + s1 * epsilon) / den


def _reduced_cubic(eps: float) -> tuple[float, float, float, float]:
    """Coefficients (a3, a2, a1, a0) of the cubic in s1 left after
    eliminating omega0 (epsilon identity) and s2 (dx**2 condition, linear in
    s2) from the pair of accuracy conditions."""
    e = eps
    a3 = 240.0 * e ** 3 + 300.0 * e ** 2 + 56.0 * e + 3.0
    a2 = 960.0 * e ** 3 - 960.0 * e ** 2 - 232.0 * e - 12.0
    a1 = -4320.0 * e ** 3 + 960.0 * e ** 2 + 360.0 * e + 12.0
    a0 = 2880.0 * e ** 3 - 240.0 * e
    return a3, a2, a1, a0


def _triple_from_root(eps: float, s1: float):
    """(omega0, s1, s2) built from one real root s1 of the reduced cubic, or
    None when the triple leaves the open box or either residual exceeds
    _RESIDUAL_TOL."""
    if not 0.0 < s1 < 2.0:
        return None
    omega0 = _omega0_of_s1(s1, eps)
    s2 = _s2_of(omega0, s1, eps)
    if s2 is None or not (0.0 < omega0 < 1.0 and 0.0 < s2 < 2.0):
        return None
    if not (abs(residual_second(omega0, s1, s2, eps)) <= _RESIDUAL_TOL
            and abs(residual_fourth(omega0, s1, s2, eps)) <= _RESIDUAL_TOL):
        return None
    return omega0, s1, s2


def _companion(t0, t1, t2) -> np.ndarray:
    """Companion matrices with top row (t0, t1, t2), stacked over the shape
    of the arrays t0, t1 and t2; their eigenvalues are the roots of
    lambda**3 - t0*lambda**2 - t1*lambda - t2."""
    comp = np.zeros((*np.shape(t0), 3, 3))
    comp[..., 0, 0] = t0
    comp[..., 0, 1] = t1
    comp[..., 0, 2] = t2
    comp[..., 1, 0] = comp[..., 2, 1] = 1.0
    return comp


def _solve_sixth(eps_values) -> list:
    """Solve both accuracy conditions from the reduced cubic at each epsilon.

    Returns one (omega0, s1, s2) per epsilon, or None where the cubic does
    not have a single real root (epsilon past epsilon_max), or where its
    root gives no admissible triple.  The cubics up to epsilon_max share
    one eigenvalue call on the companion matrices that np.roots builds,
    and each takes the root with the smallest real part.
    That is the real root (below 0.92), since the complex pair keeps its
    real part above 1.3 over the solvable range.  Below epsilon of about
    1e-8 the pair is a near-double close to s1 = 2, which LAPACK may return
    as two real roots; they are never picked.
    """
    out = [None] * len(eps_values)
    rows, cubics = [], []
    eps_max = epsilon_max()
    for i, eps in enumerate(eps_values):
        if eps <= eps_max:
            rows.append(i)
            cubics.append(_reduced_cubic(eps))
    if not rows:
        return out
    a3, a2, a1, a0 = np.array(cubics).T
    roots = np.linalg.eigvals(_companion(-a2 / a3, -a1 / a3, -a0 / a3))
    picked = roots[np.arange(len(rows)), np.argmin(roots.real, axis=1)]
    for i, root in zip(rows, picked):
        if root.imag == 0.0:
            out[i] = _triple_from_root(eps_values[i], float(root.real))
    return out


def calibrate_sixth(epsilon: float) -> CalibrationResult:
    """Calibrate (omega0, s1, s2) for sixth-order spatial accuracy.

    Raises NoRealRoot when epsilon leaves the range where the reduced cubic
    has a single real root (see epsilon_max), and below about 1.7e-9, where
    that root exists but the triple it gives rounds onto the edge of the
    open box: omega0 = 1 - 2*epsilon*s1/(2 - s1) rounds to 1 and, below
    about 1e-32, s1 itself to 0.  Raises DomainError for a non-positive or
    non-finite epsilon.
    """
    _check_epsilon(epsilon)
    sol = _solve_sixth([epsilon])[0]
    if sol is None and epsilon > epsilon_max():
        raise NoRealRoot(
            f"no real sixth-order solution at epsilon = {epsilon}; "
            f"the solvable range is 0 < epsilon <= {epsilon_max():.6f}"
        )
    if sol is None:
        raise NoRealRoot(
            f"epsilon = {epsilon} is too small: the sixth-order root exists, "
            "but the triple it gives rounds onto the edge of the open box "
            "(omega0 to 1, or s1 to 0)")
    omega0, s1, s2 = sol
    return CalibrationResult(epsilon, omega0, s1, s2, "sixth")


def calibrate_fourth(epsilon: float, s1: float = 1.0) -> CalibrationResult:
    """Calibrate for fourth-order accuracy at a pinned s1.

    omega0 is forced by the epsilon identity and s2 solves the dx**2
    condition, which is linear in s2.  Raises NoRealRoot when the forced
    omega0 or s2 leaves its open interval or the dx**2 condition
    degenerates; raises DomainError for an invalid epsilon or s1.
    """
    _check_epsilon(epsilon)
    check_box(s1=s1)
    omega0 = _omega0_of_s1(s1, epsilon)
    if not 0.0 < omega0 < 1.0:
        raise NoRealRoot(
            f"epsilon = {epsilon} with s1 = {s1} forces omega0 = {omega0} "
            "outside (0, 1)")
    s2 = _s2_of(omega0, s1, epsilon)
    if s2 is None or not 0.0 < s2 < 2.0:
        raise NoRealRoot(f"epsilon = {epsilon} with s1 = {s1} leaves the "
                         f"dx**2 condition no s2 in (0, 2) (it gives {s2})")
    return CalibrationResult(epsilon, omega0, s1, s2, "fourth")


def second_order_reference(epsilon: float) -> CalibrationResult:
    """Baseline second-order parameter set: s1 = s2 = 1 and
    omega0 = 1 - 2*epsilon.

    With unit rates the four-level update degenerates to the classical
    two-level central scheme with mesh Fourier number epsilon.  Raises
    NoRealRoot where omega0 leaves (0, 1): for epsilon >= 0.5, and where it
    rounds to one.
    """
    _check_epsilon(epsilon)
    omega0 = _omega0_of_s1(1.0, epsilon)
    if not 0.0 < omega0 < 1.0:
        raise NoRealRoot(f"epsilon = {epsilon} forces omega0 = {omega0} "
                         "outside (0, 1)")
    return CalibrationResult(epsilon, omega0, 1.0, 1.0, "second")


def epsilon_max() -> float:
    """Largest epsilon with a sixth-order calibration.

    The discriminant of the reduced cubic is 768*e**2*q(e**2), with q a
    quintic that has one positive root; this is the square root of that
    root, correctly rounded.  Up to this float q is negative and the
    reduced cubic has its single real root and a complex pair; one ulp
    above it q is non-negative.
    """
    return 0.2624182802648436


@dataclass(frozen=True)
class SweepRow:
    """One epsilon of a calibration sweep; rates are None when infeasible."""

    epsilon: float
    omega0: float | None
    s1: float | None
    s2: float | None
    status: str


def calibration_sweep(eps_grid) -> list[SweepRow]:
    """Sixth-order calibration over an increasing grid of epsilon values.

    Grid points past epsilon_max produce status "no_real_root" rows with the
    rate fields left empty.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise DomainError("the epsilon grid must not be empty")
    if not all(map(math.isfinite, grid)) or grid[0] <= 0.0 \
            or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("the epsilon grid must be finite, positive and "
                          "strictly increasing")
    return [SweepRow(eps, None, None, None, "no_real_root") if sol is None
            else SweepRow(eps, *sol, "ok")
            for eps, sol in zip(grid, _solve_sixth(grid))]
