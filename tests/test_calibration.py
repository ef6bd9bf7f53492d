"""Tests for parameter handling and accuracy calibration."""

import math

import numpy as np
import pytest

from lbmfd import calibration as cal
from lbmfd.errors import DomainError, NoRealRoot

# Invalid epsilons: each calibrator raises a plain DomainError on them, never
# NoRealRoot, which is kept for a valid epsilon with no admissible triple.
INVALID_EPSILONS = (0.0, -0.1, float("nan"), float("inf"), float("-inf"))


def _assert_invalid_epsilon(calibrate, *args):
    for eps in INVALID_EPSILONS:
        with pytest.raises(DomainError) as info:
            calibrate(eps, *args)
        assert type(info.value) is DomainError, eps

# Recorded high-precision sixth-order triples (omega0, s1, s2), one per
# mesh Fourier number.  Used as regression pins at 1e-9 relative.
SIXTH_REFERENCE = {
    0.1: (0.8310204592587027, 0.9159290534201945, 1.1450386147380731),
    0.15: (0.8101626131270389, 0.775103705680168, 1.1476236168426883),
    0.175: (0.8370678725639358, 0.6352970255557769, 1.1776696173022918),
    0.2: (0.870066309422671, 0.49037716562528605, 1.2047312964902426),
    0.24: (0.9274277013170459, 0.2626707812024917, 1.2388413217086902),
}

# Closed-form fourth-order values at s1 = 1: omega0 = 1 - 2*epsilon and
# s2 = (6 - 12*epsilon) / (5 - 6*epsilon).
FOURTH_REFERENCE = {
    0.1: (0.8, 12.0 / 11.0),
    0.15: (0.7, 42.0 / 41.0),
    0.175: (0.65, 78.0 / 79.0),
    0.2: (0.6, 18.0 / 19.0),
    0.24: (0.52, 78.0 / 89.0),
}


def test_weights_from_omega0_splits_the_rest_weight():
    w = cal.Weights(0.8)
    np.testing.assert_allclose(w.omega0, 0.8, rtol=1e-15)
    np.testing.assert_allclose(w.omega1, 0.1, rtol=1e-15)
    w = cal.Weights(1.0 / 3.0)
    np.testing.assert_allclose(w.omega1, 1.0 / 3.0, rtol=1e-15)


def test_weights_from_omega0_rejects_closed_ends():
    for omega0 in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            cal.Weights(omega0)


def test_relaxations_validation():
    r = cal.Relaxations(1.0, 0.5, 1.5)
    assert (r.s0, r.s1, r.s2) == (1.0, 0.5, 1.5)
    cal.Relaxations(-5.0, 0.5, 1.5)
    with pytest.raises(DomainError):
        cal.Relaxations(float("inf"), 0.5, 1.5)
    with pytest.raises(DomainError):
        cal.Relaxations(1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        cal.Relaxations(1.0, 0.5, 0.0)


def _mesh_fourier(omega0, s1):
    # The epsilon identity, epsilon = (1 - omega0)*(1/s1 - 1/2).
    return (1.0 - omega0) * (1.0 / s1 - 0.5)


def test_mesh_fourier_values():
    np.testing.assert_allclose(_mesh_fourier(0.8, 1.0), 0.1, rtol=1e-14)
    np.testing.assert_allclose(_mesh_fourier(0.6, 1.0), 0.2, rtol=1e-14)
    for eps, (omega0, s1, _) in SIXTH_REFERENCE.items():
        np.testing.assert_allclose(_mesh_fourier(omega0, s1), eps,
                                   rtol=1e-12)
        params = cal.ModelParams.from_rates(omega0, s1, 1.0, dx=1.0, dt=1.0)
        np.testing.assert_allclose(params.epsilon, eps, rtol=1e-12)
    with pytest.raises(DomainError):
        cal.check_box(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        cal.check_box(0.8, 2.0, 1.0)


def test_model_params_from_rates_and_diffusivity():
    params = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.025, dt=0.01875)
    np.testing.assert_allclose(params.kappa, 1.0 / 300.0, rtol=1e-14)
    np.testing.assert_allclose(params.epsilon, 0.1, rtol=1e-14)
    rng = np.random.default_rng(7)
    for _ in range(20):
        omega0 = rng.uniform(0.05, 0.95)
        s1 = rng.uniform(0.1, 1.9)
        s2 = rng.uniform(0.1, 1.9)
        dx = rng.uniform(0.01, 0.5)
        dt = rng.uniform(0.01, 0.5)
        params = cal.ModelParams.from_rates(omega0, s1, s2, dx=dx, dt=dt)
        np.testing.assert_allclose(
            params.kappa * params.dt / params.dx ** 2,
            _mesh_fourier(omega0, s1), rtol=1e-13)


def test_model_params_rejects_inconsistent_fields():
    good = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    with pytest.raises(DomainError):
        cal.ModelParams(-0.1, good.dt, 0.0, good.weights, good.relax)
    fields = (good.dx, good.dt, 0.0, good.weights, good.relax)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for i in (0, 1, 2):
            with pytest.raises(DomainError):
                cal.ModelParams(*fields[:i], bad, *fields[i + 1:])
        with pytest.raises(DomainError):
            cal.ModelParams.from_rates(0.5, 1.5, 0.5, dx=bad, dt=1.0)
        with pytest.raises(DomainError):
            cal.ModelParams.from_rates(0.5, 1.5, 0.5, dx=1.0, dt=bad)
        with pytest.raises(DomainError):
            cal.ModelParams.from_rates(0.5, 1.5, 0.5, dx=1.0, dt=1.0,
                                       source_R=bad)
    # dx**2 overflows at dx = 1e200 and vanishes at dx = 1e-200.
    for dx in (1e200, 1e-200):
        with pytest.raises(DomainError):
            cal.ModelParams.from_rates(0.5, 1.5, 0.5, dx=dx, dt=1.0)
        with pytest.raises(DomainError):
            cal.ModelParams(dx, *fields[1:])


def test_residual_second_vanishes_on_calibrated_parameters():
    assert abs(cal.residual_second(0.8, 1.0, 12.0 / 11.0, 0.1)) < 1e-15
    assert abs(cal.residual_second(0.6, 1.0, 18.0 / 19.0, 0.2)) < 1e-15
    for eps, (omega0, s1, s2) in SIXTH_REFERENCE.items():
        assert abs(cal.residual_second(omega0, s1, s2, eps)) < 1e-9


def test_residual_fourth_separates_the_orders():
    for eps, (omega0, s1, s2) in SIXTH_REFERENCE.items():
        assert abs(cal.residual_fourth(omega0, s1, s2, eps)) < 1e-9
    # Fourth-order parameters leave the next truncation term standing.
    assert abs(cal.residual_fourth(0.8, 1.0, 12.0 / 11.0, 0.1)) > 1e-6


def test_calibrate_sixth_matches_reference_triples():
    for eps, (omega0, s1, s2) in SIXTH_REFERENCE.items():
        res = cal.calibrate_sixth(eps)
        np.testing.assert_allclose(res.omega0, omega0, rtol=1e-9)
        np.testing.assert_allclose(res.s1, s1, rtol=1e-9)
        np.testing.assert_allclose(res.s2, s2, rtol=1e-9)
        assert res.order == "sixth"


def test_calibrate_sixth_residuals_and_identity():
    rng = np.random.default_rng(11)
    for eps in rng.uniform(0.01, 0.25, size=25):
        res = cal.calibrate_sixth(float(eps))
        assert abs(res.residual_second) <= 1e-12
        assert abs(res.residual_fourth) <= 1e-12
        assert abs(cal.residual_second(res.omega0, res.s1, res.s2,
                                       res.epsilon)) <= 1e-12
        np.testing.assert_allclose(_mesh_fourier(res.omega0, res.s1),
                                   eps, rtol=1e-10)


def test_calibrate_sixth_rejects_nonpositive_epsilon():
    _assert_invalid_epsilon(cal.calibrate_sixth)


def test_calibrate_sixth_beyond_the_solvable_range():
    with pytest.raises(NoRealRoot) as info:
        cal.calibrate_sixth(0.3)
    assert "0.262" in str(info.value)
    # epsilon**3 overflows a Python float here.
    with pytest.raises(NoRealRoot):
        cal.calibrate_sixth(1e200)


def test_calibrate_sixth_at_tiny_epsilon():
    # LAPACK returns the near-double complex pair near s1 = 2 as two real
    # roots here (1.99999988 and 1.99999994); the solver takes the root with
    # the smallest real part, 2.02e-7.
    res = cal.calibrate_sixth(1.011457467486107e-08)
    np.testing.assert_allclose(res.s1, 2.0229147e-07, rtol=1e-7)
    assert abs(res.residual_second) <= 1e-12
    assert abs(res.residual_fourth) <= 1e-12
    # Down to about 1.7e-9 the triple is representable: below it omega0
    # rounds to one.  The generic discriminant formula lost its sign below
    # about 1.6e-8.
    rows = cal.calibration_sweep(np.geomspace(2e-9, 1e-6, 300))
    assert all(row.status == "ok" for row in rows)
    # Below it the reduced cubic keeps its single real root, and the error
    # says that the triple rounds, not that there is no root (s1 rounds to
    # 0 at 1e-40).
    for eps in (1.5e-9, 1e-10, 1e-40):
        assert cal._sixth_discriminant_sign(eps) < 0.0
        with pytest.raises(NoRealRoot) as info:
            cal.calibrate_sixth(eps)
        assert "too small" in str(info.value)
        assert "no real" not in str(info.value)


def test_sixth_discriminant_factor_is_exact():
    # The discriminant of the reduced cubic equals 768*e**2*q(e**2) with q
    # the polynomial that _sixth_discriminant_sign evaluates.  Each
    # coefficient of the cubic is a cubic in e, recovered exactly from its
    # values at e = 0..3 (small integers, exact in floats); both sides have
    # degree 12 in e, so equality at 14 rational points is an identity.
    from fractions import Fraction

    samples = [cal._reduced_cubic(float(k)) for k in range(4)]

    def coeff(j, e):
        total = Fraction(0)
        for k in range(4):
            basis = Fraction(1)
            for m in range(4):
                if m != k:
                    basis *= Fraction(e - m, k - m)
            total += Fraction(samples[k][j]) * basis
        return total

    for e in (Fraction(n, 7) for n in range(-6, 8)):
        a3, a2, a1, a0 = (coeff(j, e) for j in range(4))
        textbook = (18 * a3 * a2 * a1 * a0 - 4 * a2 ** 3 * a0
                    + a2 ** 2 * a1 ** 2 - 4 * a3 * a1 ** 3
                    - 27 * a3 ** 2 * a0 ** 2)
        assert textbook == 768 * e ** 2 * cal._sixth_discriminant_sign(e)


def test_calibrate_sixth_rejects_the_split_pair_roots():
    # Below about 3.6e-12 LAPACK can split the near-double complex pair near
    # s1 = 2 into real roots whose triple passes the absolute residual gate
    # (at 1e-20: s1 = 1.99999999995, residual_fourth 6.8e7 times epsilon).
    # The real root, s1 of about 20*epsilon, rounds omega0 to one.
    for eps in (1e-20, 1e-15, 3e-12):
        with pytest.raises(NoRealRoot) as info:
            cal.calibrate_sixth(eps)
        assert "too small" in str(info.value)
    rows = cal.calibration_sweep(np.geomspace(1e-300, cal.epsilon_max(), 2000))
    ok = [row for row in rows if row.status == "ok"]
    assert ok
    for row in ok:
        assert row.s1 < 1.0
        args = (row.omega0, row.s1, row.s2, row.epsilon)
        assert abs(cal.residual_second(*args)) <= 1e-12
        assert abs(cal.residual_fourth(*args)) <= 1e-12


def test_epsilon_max_brackets_the_boundary():
    # q (see _sixth_discriminant_sign) is a quintic in x = e**2.  Its
    # coefficients come from q at x = 0..5 by a 50-digit Vandermonde solve;
    # it has one positive root, and epsilon_max is its square root, rounded.
    import mpmath

    with mpmath.workdps(50):
        xs = [mpmath.mpf(k) for k in range(6)]
        vander = mpmath.matrix([[x ** (5 - j) for j in range(6)] for x in xs])
        values = mpmath.matrix([cal._sixth_discriminant_sign(mpmath.sqrt(x))
                                for x in xs])
        coeffs = mpmath.lu_solve(vander, values)
        roots = mpmath.polyroots(list(coeffs), maxsteps=200, extraprec=100)
        positive = [r for r in roots if mpmath.im(r) == 0 and r > 0]
        assert len(positive) == 1
        em = cal.epsilon_max()
        assert em == float(mpmath.sqrt(positive[0]))
    cal.calibrate_sixth(em)
    with pytest.raises(NoRealRoot):
        cal.calibrate_sixth(math.nextafter(em, 1.0))
    cal.calibrate_sixth(em - 1e-4)
    with pytest.raises(NoRealRoot):
        cal.calibrate_sixth(em + 1e-3)


def test_calibrate_fourth_closed_form():
    for eps, (omega0, s2) in FOURTH_REFERENCE.items():
        res = cal.calibrate_fourth(eps, 1.0)
        assert res.omega0 == omega0
        np.testing.assert_allclose(res.s2, s2, atol=1e-14)
        assert res.s1 == 1.0
        assert res.order == "fourth"
        assert abs(res.residual_second) <= 1e-12


def test_calibrate_fourth_validation():
    _assert_invalid_epsilon(cal.calibrate_fourth, 1.0)
    with pytest.raises(DomainError):
        cal.calibrate_fourth(0.1, 2.0)
    # epsilon = 0.6 at s1 = 1 forces omega0 = -0.2.
    with pytest.raises(NoRealRoot):
        cal.calibrate_fourth(0.6, 1.0)


def test_second_order_reference_values():
    res = cal.second_order_reference(0.1)
    assert res.omega0 == 0.8
    assert res.s1 == 1.0 and res.s2 == 1.0
    assert res.order == "second"
    assert abs(res.residual_second) > 1e-3
    _assert_invalid_epsilon(cal.second_order_reference)
    # omega0 = 1 - 2*epsilon leaves (0, 1) at 0.5 and rounds to one at 1e-300.
    for eps in (0.5, 1e300, 1e-300):
        with pytest.raises(NoRealRoot):
            cal.second_order_reference(eps)


def test_calibration_result_validates_residuals_and_order():
    res = cal.calibrate_sixth(0.1)
    # The residuals are derived from the triple, never taken on trust: this
    # second-order triple's are about 0.183 and 0.0061, so it is refused at
    # fourth and sixth order.
    for order in ("fourth", "sixth"):
        with pytest.raises(DomainError):
            cal.CalibrationResult(0.1, 0.5, 1.0, 1.0, order=order)
    with pytest.raises(DomainError):
        cal.CalibrationResult(0.1, res.omega0, res.s1, res.s2, order="fifth")
    again = cal.CalibrationResult(0.1, res.omega0, res.s1, res.s2, "sixth")
    assert again == res
    assert again.residual_second == cal.residual_second(
        res.omega0, res.s1, res.s2, 0.1)
    assert again.residual_fourth == cal.residual_fourth(
        res.omega0, res.s1, res.s2, 0.1)


def test_calibration_result_json_keys():
    payload = cal.calibrate_sixth(0.1).to_json_dict()
    assert tuple(payload) == ("epsilon", "omega0", "s1", "s2",
                              "residual_second", "residual_fourth", "order")
    assert payload["order"] == "sixth"


def test_calibration_sweep_reproduces_the_reference_grid():
    rows = cal.calibration_sweep((0.1, 0.15, 0.175, 0.2, 0.24))
    assert [r.status for r in rows] == ["ok"] * 5
    for row in rows:
        omega0, s1, s2 = SIXTH_REFERENCE[row.epsilon]
        np.testing.assert_allclose(row.omega0, omega0, rtol=1e-9)
        np.testing.assert_allclose(row.s1, s1, rtol=1e-9)
        np.testing.assert_allclose(row.s2, s2, rtol=1e-9)


def test_calibration_sweep_stays_in_the_parameter_box():
    grid = np.linspace(0.01, 0.25, 49)
    rows = cal.calibration_sweep(grid)
    assert all(r.status == "ok" for r in rows)
    for row in rows:
        assert 0.79 < row.omega0 < 1.0
        assert 0.0 < row.s1 < 0.95
        assert 1.1 < row.s2 < 2.0
    # The solution branch is smooth: adjacent rows 0.005 apart in epsilon
    # move every parameter by less than 0.1.
    for a, b in zip(rows, rows[1:]):
        assert abs(b.omega0 - a.omega0) < 0.1
        assert abs(b.s1 - a.s1) < 0.1
        assert abs(b.s2 - a.s2) < 0.1


def test_calibration_sweep_flags_unsolvable_points():
    rows = cal.calibration_sweep((0.25, 0.26, 0.27, 0.28))
    assert [r.status for r in rows] == ["ok", "ok", "no_real_root",
                                        "no_real_root"]
    for row in rows[2:]:
        assert row.omega0 is None and row.s1 is None and row.s2 is None


def test_calibration_sweep_rows_equal_calibrate_sixth():
    em = cal.epsilon_max()
    grid = np.union1d(np.linspace(1e-3, 0.3, 400),
                      em + 1e-7 * np.arange(-5, 6))
    rows = cal.calibration_sweep(grid)
    statuses = [row.status for row in rows]
    assert "ok" in statuses and "no_real_root" in statuses
    for row in rows:
        if row.status == "no_real_root":
            assert row.epsilon > em
            with pytest.raises(NoRealRoot):
                cal.calibrate_sixth(row.epsilon)
            continue
        res = cal.calibrate_sixth(row.epsilon)
        assert [v.hex() for v in (row.omega0, row.s1, row.s2)] == [
            v.hex() for v in (res.omega0, res.s1, res.s2)]


def test_calibration_sweep_roots_equal_np_roots():
    # The batched eigenvalue call returns the roots np.roots gives, bit for
    # bit.  From 1e-6 up the cubic has one real root, which np.roots'
    # argmin(|imag|) picks as the solver's smallest real part does.
    grid = np.linspace(1e-6, 0.26, 300)
    for row in cal.calibration_sweep(grid):
        roots = np.roots(cal._reduced_cubic(row.epsilon))
        s1 = float(roots[np.argmin(np.abs(roots.imag))].real)
        want = cal._triple_from_root(row.epsilon, s1)
        assert [v.hex() for v in (row.omega0, row.s1, row.s2)] == [
            v.hex() for v in want]


def test_calibration_sweep_rejects_bad_grids():
    with pytest.raises(DomainError):
        cal.calibration_sweep(())
    with pytest.raises(DomainError):
        cal.calibration_sweep((0.1, 0.1))
    with pytest.raises(DomainError):
        cal.calibration_sweep((-0.1, 0.2))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            cal.calibration_sweep((0.1, bad))
        with pytest.raises(DomainError):
            cal.calibration_sweep((bad,))
