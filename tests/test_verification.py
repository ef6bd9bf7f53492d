"""Tests for the decaying-sine convergence benchmarks."""

import mpmath as mp
import numpy as np
import pytest

from lbmfd import calibration as cal
from lbmfd import scheme
from lbmfd import verification as ver
from lbmfd.errors import DomainError
from test_symbolic import _derivation, _exact

SPACINGS = (0.1, 0.05, 0.025)

# Recorded reference interior errors per epsilon at the three spacings.
SIXTH_RMSE = {
    0.1: (8.59e-10, 1.42e-11, 2.57e-13),
    0.15: (3.99e-8, 6.56e-10, 1.04e-11),
    0.175: (1.19e-7, 1.95e-9, 3.11e-11),
    0.2: (3.04e-7, 5.00e-9, 7.96e-11),
    0.24: (1.31e-6, 2.15e-8, 3.43e-10),
}
FOURTH_RMSE = {
    0.1: (4.68e-7, 3.08e-8, 1.96e-9),
    0.15: (2.21e-6, 1.46e-7, 9.30e-9),
    0.175: (5.13e-6, 3.39e-7, 2.16e-8),
    0.2: (9.84e-6, 6.49e-7, 4.14e-8),
    0.24: (2.19e-5, 1.44e-6, 9.16e-8),
}
SECOND_RMSE = {
    0.1: (5.65e-4, 1.49e-4, 3.81e-5),
    0.15: (1.77e-4, 4.62e-5, 1.17e-5),
    0.175: (8.77e-5, 2.40e-5, 6.18e-6),
    0.2: (3.76e-4, 1.00e-4, 2.57e-5),
    0.24: (8.55e-4, 2.27e-4, 5.79e-5),
}


def test_analytic_phi_values():
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(ver.analytic_phi(xs, 0.0, 1.0),
                               np.sin(np.pi * xs), rtol=1e-15)
    np.testing.assert_allclose(ver.analytic_phi(0.0, 3.0, 0.1), 0.0,
                               atol=1e-15)
    np.testing.assert_allclose(
        float(ver.analytic_phi(0.5, 12.0, 1.0 / 300.0)),
        0.6738254512314336, rtol=1e-12)


def test_rmse_examples():
    a = np.array([1.0, 2.0, 3.0])
    assert ver.rmse(a, a) == 0.0
    np.testing.assert_allclose(ver.rmse(a + 0.5, a), 0.5, rtol=1e-15)
    with pytest.raises(DomainError, match="fields must share a length"):
        ver.rmse(a, a[:2])


def test_rmse_rejects_empty_fields():
    with pytest.raises(DomainError, match="must not be empty"):
        ver.rmse(np.array([]), np.array([]))


def test_convergence_rate_examples():
    np.testing.assert_allclose(ver.convergence_rate(1.6e-5, 1e-6), 4.0,
                               rtol=1e-12)
    np.testing.assert_allclose(ver.convergence_rate(8.59e-10, 1.42e-11),
                               5.918695296521143, rtol=1e-12)
    np.testing.assert_allclose(ver.convergence_rate(5.65e-4, 1.49e-4),
                               1.9229385368403886, rtol=1e-12)
    for bad in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ver.convergence_rate(bad, 1e-6)
        with pytest.raises(DomainError):
            ver.convergence_rate(1e-6, bad)


def test_benchmark_case_derived_fields():
    case = ver.BenchmarkCase(epsilon=0.1, dx=0.1, order="sixth")
    np.testing.assert_allclose(case.dt, 0.3, rtol=1e-15)
    np.testing.assert_allclose(case.kappa, 1.0 / 300.0, rtol=1e-15)
    assert case.t_end == 12.0
    assert case.params.order == "sixth"
    with pytest.raises(DomainError):
        ver.BenchmarkCase(epsilon=0.1, dx=0.03, order="sixth")
    with pytest.raises(DomainError):
        ver.BenchmarkCase(epsilon=0.0, dx=0.1, order="sixth")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ver.BenchmarkCase(epsilon=bad, dx=0.1, order="sixth")
        with pytest.raises(DomainError):
            ver.BenchmarkCase(epsilon=0.1, dx=bad, order="sixth")
    # 1/dx overflows at 1e-320, dt = 30*dx**2 vanishes at 1e-200 and the
    # step count t_end/dt would overflow at 1e-160.
    # dx = 1e-100 stays in the float range but asks for 1e100 nodes; 2**-23
    # is the first power of two past the node bound.  None allocates.
    for tiny in (1e-320, 1e-200, 1e-160, 1e-100, 2.0 ** -23):
        with pytest.raises(DomainError):
            ver.BenchmarkCase(epsilon=0.1, dx=tiny, order="sixth")
    assert ver.BenchmarkCase(epsilon=0.1, dx=2.0 ** -22, order="sixth").dx \
        == 2.0 ** -22
    with pytest.raises(DomainError):
        ver.BenchmarkCase(epsilon=0.1, dx=0.1, order="fifth")
    # A case at another spacing may share the calibration, and only one
    # made for its own epsilon and order.
    finer = ver.BenchmarkCase(0.1, 0.05, "sixth", case.params)
    assert finer.params is case.params and finer.dt == 30.0 * 0.05 ** 2
    for eps, order in ((0.2, "sixth"), (0.1, "fourth")):
        with pytest.raises(DomainError):
            ver.BenchmarkCase(eps, 0.1, order, case.params)


# Interior RMSE of the sixth-order epsilon = 0.1 case at the three spacings,
# from the sin(pi*x) modal recurrence in 60-digit mpmath: stencil weights
# built from the calibrated float triple without rounding, dx = 1/N,
# dt = 30/N**2, kappa = 0.1/30 (the float 0.1), exact start amplitudes and
# exact reference decay.  The float march may differ only by rounding.
SIXTH_EPS01_EXACT = (9.49219393e-10, 1.49123179e-11, 2.31829149e-13)
SIXTH_EPS01_STEPS = (40, 160, 640)


def test_run_benchmark_regression_pins():
    errs = [ver.run_benchmark(ver.BenchmarkCase(epsilon=0.1, dx=dx,
                                                order="sixth"))
            for dx in SPACINGS]
    for err, exact, n_steps in zip(errs, SIXTH_EPS01_EXACT,
                                   SIXTH_EPS01_STEPS):
        # Rounding budget: a quarter ulp of the amplitude (in [0.5, 1)) per
        # step.
        assert abs(err - exact) <= n_steps * 2.0 ** -55


def test_sixth_order_table():
    reports = ver.reproduce_table("sixth")
    for rep in reports:
        recorded = SIXTH_RMSE[rep.epsilon]
        print(f"sixth eps={rep.epsilon}: "
              + ", ".join(f"{err:.3e}" for _, err in rep.rows)
              + " rates " + ", ".join(f"{r:.3f}" for r in rep.rates))
        for (_, err), ref in zip(rep.rows, recorded):
            assert ref / 3.0 <= err <= ref * 3.0
        for rate in rep.rates:
            assert 5.7 <= rate <= 6.1


def test_fourth_order_table():
    reports = ver.reproduce_table("fourth")
    for rep in reports:
        recorded = FOURTH_RMSE[rep.epsilon]
        print(f"fourth eps={rep.epsilon}: "
              + ", ".join(f"{err:.3e}" for _, err in rep.rows)
              + " rates " + ", ".join(f"{r:.3f}" for r in rep.rates))
        for (_, err), ref in zip(rep.rows, recorded):
            assert ref / 2.0 <= err <= ref * 2.0
        for rate in rep.rates:
            assert 3.8 <= rate <= 4.1


def test_second_order_table():
    reports = ver.reproduce_table("second")
    for rep in reports:
        recorded = SECOND_RMSE[rep.epsilon]
        print(f"second eps={rep.epsilon}: "
              + ", ".join(f"{err:.3e}" for _, err in rep.rows)
              + " rates " + ", ".join(f"{r:.3f}" for r in rep.rates))
        for (_, err), ref in zip(rep.rows, recorded):
            assert ref / 2.0 <= err <= ref * 2.0
        for rate in rep.rates:
            assert 1.8 <= rate <= 2.05


def test_refinement_shrinks_the_error_monotonically():
    for order in ("second", "fourth", "sixth"):
        for rep in ver.reproduce_table(order, eps_list=(0.1, 0.2)):
            errs = [err for _, err in rep.rows]
            assert errs[0] > errs[1] > errs[2]


def test_orders_separate_on_the_finest_grid():
    errs = {}
    for order in ("second", "fourth", "sixth"):
        case = ver.BenchmarkCase(epsilon=0.1, dx=0.025, order=order)
        errs[order] = ver.run_benchmark(case)
    assert errs["sixth"] < errs["fourth"] < errs["second"]


def test_smaller_epsilon_is_more_accurate_at_sixth_order():
    errs = [ver.run_benchmark(ver.BenchmarkCase(epsilon=eps, dx=0.025,
                                                order="sixth"))
            for eps in ver.DEFAULT_EPSILONS]
    assert all(a < b for a, b in zip(errs, errs[1:]))


def test_profile_solution_accuracy_and_symmetry():
    prof, = ver.profile_solution((0.1,))
    assert prof.epsilon == 0.1
    assert prof.max_abs_deviation < 1e-11
    assert prof.phi_numeric[0] == 0.0 and prof.phi_numeric[-1] == 0.0
    np.testing.assert_allclose(prof.phi_numeric, prof.phi_numeric[::-1],
                               atol=1e-13)
    np.testing.assert_allclose(
        prof.phi_analytic,
        ver.analytic_phi(prof.x, 12.0, 0.1 / 30.0), rtol=1e-15)


def test_reproduce_table_rows_equal_run_benchmark():
    for order in ("second", "sixth"):
        for rep in ver.reproduce_table(order, eps_list=(0.1, 0.24, 0.15)):
            for dx, err in rep.rows:
                case = ver.BenchmarkCase(epsilon=rep.epsilon, dx=dx,
                                         order=order)
                assert err == ver.run_benchmark(case)


def test_reproduce_table_calibrates_each_epsilon_once(monkeypatch):
    calls = []

    def counted(order, epsilon):
        calls.append((order, epsilon))
        return calibrate(order, epsilon)

    calibrate = ver._params_for
    monkeypatch.setattr(ver, "_params_for", counted)
    for _ in range(2):
        ver.reproduce_table("fourth")
    assert calls == [("fourth", eps) for eps in ver.DEFAULT_EPSILONS] * 2


def test_reproduce_table_validation():
    with pytest.raises(DomainError):
        ver.reproduce_table("sixth", dx_list=(0.05, 0.1))
    with pytest.raises(DomainError):
        ver.reproduce_table("sixth", eps_list=())
    with pytest.raises(DomainError):
        ver.profile_solution(())


def test_csv_serializations():
    reports = ver.reproduce_table("sixth", eps_list=(0.1,),
                                  dx_list=(0.1, 0.05))
    lines = ver.convergence_csv_lines(reports)
    assert lines[0] == "epsilon,order,dx,dt,rmse,rate"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[1] == "sixth" and first[5] == ""
    assert float(lines[2].split(",")[5]) == pytest.approx(reports[0].rates[0])
    profiles = ver.profile_solution((0.1,))
    plines = ver.profile_csv_lines(profiles)
    assert plines[0] == "epsilon,x,phi_numeric,phi_analytic"
    assert len(plines) == 42
    assert ver.csv_lines("a,b,c", [(0.1, "ok", None), (np.float64(-0.0), 2,
                                                        "")]) \
        == ["a,b,c", "0.10000000000000001,ok,", "-0,2,"]


def test_snapshot_csv_lines_round_trip():
    xs = np.array([0.0, 0.1, 0.2])
    phi = np.array([0.0, 0.123456789012345678, -1.0])
    lines = ver.snapshot_csv_lines(xs, phi)
    assert lines[0] == "x,phi"
    assert len(lines) == 4
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_array_equal(parsed, phi)
    with pytest.raises(DomainError, match="x and phi must share a length"):
        ver.snapshot_csv_lines(xs, phi[:2])


@pytest.mark.parametrize("order", ["second", "fourth", "sixth"])
@pytest.mark.parametrize("eps_list", [(0.175,), (0.24, 0.1, 0.15)])
def test_staged_table_equals_one_run_per_spacing_bit_for_bit(order,
                                                             eps_list):
    # The table marches its four spacings as one staged batch; each field
    # and each error must have the bits of one march per spacing.
    dx_list = (0.2, 0.1, 0.05, 0.025)
    reports = ver.reproduce_table(order, eps_list, dx_list)
    cases = [ver.BenchmarkCase(eps, dx, order)
             for dx in dx_list for eps in eps_list]
    staged = ver._march_decaying_sine(cases, 12.0)
    for j, dx in enumerate(dx_list):
        at_dx = cases[j * len(eps_list):(j + 1) * len(eps_list)]
        params = [cal.ModelParams.from_rates(c.params.omega0, c.params.s1,
                                             c.params.s2, dx=dx, dt=c.dt)
                  for c in at_dx]
        kappa = np.array([[c.kappa] for c in at_dx])
        grid = scheme.Grid1D(round(1.0 / dx))
        (finals,) = scheme._march(
            [(params, grid, lambda x, t: ver.analytic_phi(x, t, kappa),
              12.0)], scheme.BoundarySpec.dirichlet(0.0, 0.0))
        xs = grid.nodes()
        for i, (case, final) in enumerate(zip(at_dx, finals)):
            staged_xs, staged_final = staged[j * len(eps_list) + i]
            assert staged_xs.tobytes() == xs.tobytes()
            assert staged_final.tobytes() == final.tobytes()
            exact = ver.analytic_phi(xs, 12.0, case.kappa)
            err = np.float64(ver.rmse(final[1:-1], exact[1:-1]))
            assert np.float64(reports[i].rows[j][1]).tobytes() \
                == err.tobytes()


def test_reproduce_table_bounds_node_steps_per_spacing(monkeypatch):
    seeded = []
    phi = ver.analytic_phi

    def counted(x, t, kappa):
        seeded.append(t)
        return phi(x, t, kappa)

    monkeypatch.setattr(ver, "analytic_phi", counted)
    # dx = 2**-22 is within the interval bound, but its march would take
    # about 3e19 node-steps: the table is refused before anything is seeded.
    with pytest.raises(DomainError, match="node-steps"):
        ver.reproduce_table("second", eps_list=(0.1,),
                            dx_list=(0.1, 2.0 ** -22))
    assert seeded == []
    # The bound holds per spacing, not for the table's sum: the default
    # table passes a bound equal to its largest spacing's node-steps.
    largest = max(5 * (round(1.0 / dx) + 1) * (12.0 / case.dt)
                  for dx in ver.DEFAULT_SPACINGS
                  for case in [ver.BenchmarkCase(0.1, dx, "second")])
    monkeypatch.setattr(scheme, "_MAX_NODE_STEPS", largest)
    assert len(ver.reproduce_table("second")) == 5
    monkeypatch.setattr(scheme, "_MAX_NODE_STEPS", largest * (1 - 1e-9))
    with pytest.raises(DomainError, match="node-steps"):
        ver.reproduce_table("second")


def test_reproduce_table_refuses_a_spacing_off_the_step_grid(monkeypatch):
    # At dx = 0.25, dt = 1.875 and t_end = 12 is 6.4 steps: the table is
    # refused before anything is seeded, while a case at that spacing may
    # be built, as `lbmfd run --t-end` marches it to another end.
    seeded = []
    phi = ver.analytic_phi
    monkeypatch.setattr(ver, "analytic_phi", lambda x, t, kappa:
                        seeded.append(t) or phi(x, t, kappa))
    assert ver.BenchmarkCase(0.1, 0.25, "sixth").dt == 1.875
    with pytest.raises(DomainError, match="not an integer multiple of dt"):
        ver.reproduce_table("sixth", eps_list=(0.1,), dx_list=(0.25, 0.1))
    assert seeded == []


_WEIGHT_NAMES = ("side_n", "center_n", "side_nm1", "center_nm1",
                 "center_nm2")


def _modal_rmse(weights, n: int, epsilon: float, nodes: int | None = None):
    """RMSE of a decaying-sine march on n intervals, in mpmath.

    With zero ends, sin(pi*x_j) is an eigenvector of the stencil: a
    neighbour pair sums to 2*cos(pi/n) times the centre, so the field stays
    A_k*sin(pi*x_j) and A_k obeys the scalar three-term recurrence of the
    characteristic cubic at theta = pi/n.  It starts from the exact
    amplitudes at t = 0, dt, 2*dt, with dt = 30/n**2 and kappa = epsilon/30
    (the float epsilon, exactly).  The mean of sin**2 over `nodes` nodes
    that hold the n - 1 interior ones is n/(2*nodes): the RMSE is taken
    over the interior ones by default, and over all of them with
    nodes = n + 1.  `weights` are the five field weights in stencil order.
    Returns (RMSE, step count).
    """
    with mp.workdps(60):
        dt = mp.mpf(30) / n ** 2
        n_steps = int(mp.nint(12 / dt))
        decay = -mp.mpf(epsilon) / 30 * mp.pi ** 2
        side_n, center_n, side_nm1, center_nm1, center_nm2 = (
            mp.mpf(w) for w in weights)
        cos = mp.cos(mp.pi / n)
        a = 2 * side_n * cos + center_n
        b = 2 * side_nm1 * cos + center_nm1
        old, prev, cur = (mp.exp(decay * k * dt) for k in range(3))
        for _ in range(n_steps - 2):
            old, prev, cur = prev, cur, a * cur + b * prev + center_nm2 * old
        gap = abs(cur - mp.exp(decay * 12))
        return gap * mp.sqrt(mp.mpf(n) / (2 * (nodes or n - 1))), n_steps


def test_every_default_table_cell_matches_the_modal_oracle():
    # The oracle runs on the float weights the march uses, so the gap is
    # the march's own rounding: under 2**-53 per step, as the field is
    # O(1).  (Exact weights would leave a gap of 2e-14 at sixth order,
    # epsilon 0.2, dx 0.025: the rounding of the weights, not the march.)
    for order in ("second", "fourth", "sixth"):
        for rep in ver.reproduce_table(order):
            res = ver._params_for(order, rep.epsilon)
            co = scheme.coefficients(res.omega0, res.s1, res.s2)
            weights = [getattr(co, name) for name in _WEIGHT_NAMES]
            for dx, err in rep.rows:
                exact, n_steps = _modal_rmse(weights, round(1.0 / dx),
                                             rep.epsilon)
                assert abs(err - exact) <= n_steps * 2.0 ** -53, \
                    (order, rep.epsilon, dx)


def _exact_weights(res):
    # The stencil weights of a calibrated float triple without rounding:
    # the derived polynomials evaluated in rationals, as 60-digit mpfs.
    _, polys = _derivation()
    triple = (res.omega0, res.s1, res.s2)
    weights = []
    for name in _WEIGHT_NAMES:
        value = _exact(polys[name], triple)
        with mp.workdps(60):
            weights.append(mp.mpf(value.numerator) / value.denominator)
    return weights


def test_modal_oracle_derives_the_sixth_order_pins():
    weights = _exact_weights(cal.calibrate_sixth(0.1))
    for dx, pin, steps in zip(SPACINGS, SIXTH_EPS01_EXACT,
                              SIXTH_EPS01_STEPS):
        exact, n_steps = _modal_rmse(weights, round(1.0 / dx), 0.1)
        assert n_steps == steps
        assert float(mp.nstr(exact, 9)) == pin


def test_recorded_tables_hold_all_node_rmses_in_44_of_45_cells():
    # The recorded tables agree, to their three significant digits, with
    # the RMSE over all n + 1 nodes in every cell but one, on the exact
    # weights.  (The float march gives 7.967e-11 at sixth order, epsilon
    # 0.2, dx 0.025, so its all-node RMSEs match in 43 cells.)
    off = []
    for order, table in (("sixth", SIXTH_RMSE), ("fourth", FOURTH_RMSE),
                         ("second", SECOND_RMSE)):
        for eps, recorded in table.items():
            weights = _exact_weights(ver._params_for(order, eps))
            for dx, cell in zip(SPACINGS, recorded):
                n = round(1.0 / dx)
                err, _ = _modal_rmse(weights, n, eps, nodes=n + 1)
                if float(mp.nstr(err, 3)) != cell:
                    off.append((order, eps, dx, mp.nstr(err, 3)))
    assert off == [("sixth", 0.1, 0.025, "2.26e-13")]
