"""Von Neumann and Routh-Hurwitz stability machinery.

A Fourier mode exp(i*theta*j) turns the four-level scheme into a 3x3
companion matrix with the characteristic cubic

    lambda**3 + p2*lambda**2 + p1*lambda + p0,

    p2 = -(2*side_n*cos(theta) + center_n),
    p1 = -(2*side_nm1*cos(theta) + center_nm1),    p0 = -center_nm2,

read off the stencil weights of `scheme.coefficients`: the cubic of the
float weights the march uses.  The same mode turns the mesoscopic update
into the 3x3 `population_amplification` matrix, built from the moment-space
collision alone; it has the same cubic and is kept as its oracle.  The
scheme is von Neumann stable iff all roots stay inside the closed unit disk
for every theta.  The transformation lambda = (1 + z)/(1 - z) maps that
condition onto five sign conditions on the coefficients (Routh-Hurwitz);
`routh_hurwitz_values` returns them in fixed order and `spectral_radius_scan`
checks the root moduli directly on a theta grid.  The fourth condition
vanishes identically at theta = 0: that root is the conserved mode, which
always has modulus exactly one.

The same five conditions on the cubic scaled to radius rho (coefficients
p0/rho**3, p1/rho**2, p2/rho) put every root inside |lambda| < rho.  The
scan uses that as a screen: rho sits a factor 1 - _SCREEN_TAU (1e-4) below
the LAPACK radius of the row with the largest cos(theta), and a row whose
five scaled values all exceed _SCREEN_DELTA (1e-12) cannot hold the maximum,
so LAPACK never sees it.  Every reported radius still comes from LAPACK.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass

import numpy as np

from .calibration import _companion, check_box
from .errors import DomainError
from .scheme import FdCoefficients, coefficients

_RADIUS_SLACK = 1e-10
_COS_ONE = 1.0 - 1e-12
# Screen of `spectral_radius_scan`.  rho = r0*(1 - _SCREEN_TAU) must sit below
# the seed radius r0 by more than LAPACK's radius error on any skipped row, or
# that row could still return a radius of r0 or more.  The error on a root of
# multiplicity m grows like (u*|A|)**(1/m), and a companion can hold a triple
# root: the cubic tends to (lambda + 1)**3 at theta = pi as (omega0, s1, s2)
# tends to (0, 0, 2), where errors of 1.2e-5 against 60-digit roots were
# measured.  _SCREEN_DELTA must exceed the float error of evaluating the five
# scaled values.  Over the box corners and 20,000 random triples r0 >= 0.95,
# so the scaled coefficients stay below 3.1 in modulus and that error below
# about 2e-14.
_SCREEN_TAU = 1e-4
_SCREEN_DELTA = 1e-12
# A scan holds about 200 B per theta sample when the screen keeps every row
# (the coefficient and Routh-Hurwitz grids, the companion stack and LAPACK's
# roots): 2**20 samples keep that near 200 MB.
_MAX_THETA_SAMPLES = 2 ** 20


@dataclass(frozen=True)
class CharPoly:
    """Coefficients of the monic characteristic cubic at one wavenumber."""

    p0: float
    p1: float
    p2: float


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a spectral radius scan over the wavenumber interval."""

    max_spectral_radius: float
    worst_theta: float
    rh_min_margin: float
    stable: bool
    theta_samples: int

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_theta(theta: float) -> None:
    if not -np.pi <= theta <= np.pi:
        raise DomainError(f"theta must lie in [-pi, pi], got {theta}")


def char_poly(omega0: float, s1: float, s2: float, theta: float) -> CharPoly:
    """Characteristic cubic of the amplification problem at wavenumber
    theta."""
    co = coefficients(omega0, s1, s2)
    _check_theta(theta)
    p0, p1, p2 = _char_coeff_grid(co, np.cos(theta))
    return CharPoly(p0=float(p0), p1=float(p1), p2=float(p2))


def population_amplification(omega0: float, s1: float, s2: float,
                             theta: float) -> np.ndarray:
    """Amplification matrix of the mesoscopic update for one Fourier mode.

    Population order (f_minus, f_zero, f_plus).  Columns sum to one at
    theta = 0 (conservation), so (1, 1, 1) is a left eigenvector with
    eigenvalue one there.
    """
    check_box(omega0, s1, s2)
    _check_theta(theta)
    a = 1.0 - s1 / 2.0 - omega0 * s2 / 2.0
    b = s2 / 2.0 - omega0 * s2 / 2.0
    d = s1 / 2.0 - omega0 * s2 / 2.0
    up = np.exp(1j * theta)
    dn = np.exp(-1j * theta)
    return np.array([
        [a * up, b * up, d * up],
        [omega0 * s2, omega0 * s2 - s2 + 1.0, omega0 * s2],
        [d * dn, b * dn, a * dn],
    ])


def companion_amplification(coeffs: FdCoefficients,
                            theta: float) -> np.ndarray:
    """Companion amplification matrix of the four-level scheme: the
    companion of the characteristic cubic, whose top row is the stencil
    applied to one Fourier mode."""
    _check_theta(theta)
    p0, p1, p2 = _char_coeff_grid(coeffs, np.cos(theta))
    return _companion(-p2, -p1, -p0)


def _max_moduli(p0, p1, p2) -> np.ndarray:
    # Largest root modulus of each monic cubic in a batch (LAPACK geev).
    return np.abs(np.linalg.eigvals(_companion(-p2, -p1, -p0))).max(axis=1)


def cubic_roots(p: CharPoly) -> np.ndarray:
    """Roots of the characteristic cubic via companion-matrix eigenvalues."""
    return np.linalg.eigvals(_companion(-p.p2, -p.p1, -p.p0))


def routh_hurwitz_values(
        p: CharPoly) -> tuple[float, float, float, float, float]:
    """The five sign conditions for all roots inside the closed unit disk.

    Order: (1 - p0 + p1 - p2, 1 - p0, 1 + p0, 1 + p0 + p1 + p2,
    1 - p1 + p0*p2 - p0**2).  All strictly positive away from theta = 0
    means strict stability; the fourth value is identically zero at
    theta = 0 (conserved mode).
    """
    return _rh_value_grid(p.p0, p.p1, p.p2)


def _char_coeff_grid(co: FdCoefficients, cos_t):
    # The cubic of the stencil: the mode exp(i*theta*j) turns each side pair
    # into 2*cos(theta) times its weight.
    p0 = np.full_like(cos_t, -co.center_nm2)
    p1 = -(2.0 * co.side_nm1 * cos_t + co.center_nm1)
    p2 = -(2.0 * co.side_n * cos_t + co.center_n)
    return p0, p1, p2


def _rh_value_grid(p0, p1, p2):
    return (
        1.0 - p0 + p1 - p2,
        1.0 - p0,
        1.0 + p0,
        1.0 + p0 + p1 + p2,
        1.0 - p1 + p0 * p2 - p0 ** 2,
    )


def _candidate_rows(p0, p1, p2, cos_t) -> np.ndarray:
    """Indices of the rows that could hold the largest root modulus: the
    screen of the module docstring, seeded by the largest cos(theta).  The
    seed row is always kept, so the result is never empty."""
    seed = int(np.argmax(cos_t))
    rho = _max_moduli(p0[[seed]], p1[[seed]], p2[[seed]])[0] \
        * (1.0 - _SCREEN_TAU)
    scaled = _rh_value_grid(p0 / rho ** 3, p1 / rho ** 2, p2 / rho)
    inside = np.logical_and.reduce([v > _SCREEN_DELTA for v in scaled])
    inside[seed] = False
    return np.flatnonzero(~inside)


def spectral_radius_scan(omega0: float, s1: float, s2: float,
                         n_theta: int = 720) -> StabilityReport:
    """Scan the characteristic root moduli over theta in [-pi, pi].

    Uses n_theta + 1 equispaced samples including both endpoints.  LAPACK
    computes every reported radius on the rows that the screen of the
    module docstring keeps, so the report equals a full-grid scan's.  The
    reported Routh-Hurwitz margin is the minimum of the five condition
    values over the grid, excluding the fourth condition where
    cos(theta) = 1 (it vanishes there identically).
    """
    co = coefficients(omega0, s1, s2)
    try:
        n_theta = operator.index(n_theta)
    except TypeError:
        raise DomainError(f"n_theta must be an integer, got "
                          f"{n_theta!r}") from None
    if not 64 <= n_theta <= _MAX_THETA_SAMPLES:
        raise DomainError(f"n_theta must lie in [64, {_MAX_THETA_SAMPLES}], "
                          f"got {n_theta}")
    thetas = -np.pi + 2.0 * np.pi * np.arange(n_theta + 1) / n_theta
    cos_t = np.cos(thetas)
    p0, p1, p2 = _char_coeff_grid(co, cos_t)
    rows = _candidate_rows(p0, p1, p2, cos_t)
    radii = _max_moduli(p0[rows], p1[rows], p2[rows])
    worst = int(rows[np.argmax(radii)])
    rh = np.stack(_rh_value_grid(p0, p1, p2))
    rh[3, cos_t > _COS_ONE] = np.inf
    margin = rh.min()
    max_radius = float(radii.max())
    return StabilityReport(
        max_spectral_radius=max_radius,
        worst_theta=float(thetas[worst]),
        rh_min_margin=float(margin),
        stable=bool(max_radius <= 1.0 + _RADIUS_SLACK),
        theta_samples=n_theta + 1,
    )
