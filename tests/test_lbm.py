"""Tests for the mesoscopic three-velocity model."""

import numpy as np
import pytest

from lbmfd import lbm
from lbmfd.calibration import ModelParams
from lbmfd.errors import DomainError
from lbmfd.scheme import BoundarySpec, PhiHistory, coefficients, step


def _random_params(rng, source_R=0.0, s0=1.0):
    return ModelParams(rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.8),
                       rng.uniform(0.2, 1.8), dx=1.0, dt=1.0,
                       source_R=source_R, s0=s0)


def _unit_rates(omega0, dt=1.0, source_R=0.0):
    return ModelParams(omega0, 1.0, 1.0, dx=1.0, dt=dt, source_R=source_R)


def test_equilibrium_shares_phi_by_weight():
    fm, f0, fp = lbm.equilibrium(np.array([2.0]), _unit_rates(0.8))
    np.testing.assert_allclose(fm, [0.2], rtol=1e-15)
    np.testing.assert_allclose(f0, [1.6], rtol=1e-15)
    np.testing.assert_allclose(fp, [0.2], rtol=1e-15)


def test_equilibrium_moments():
    rng = np.random.default_rng(2)
    phi = rng.random(16)
    params = _unit_rates(0.65)
    fm, f0, fp = lbm.equilibrium(phi, params)
    c = 1.7
    np.testing.assert_allclose(fm + f0 + fp, phi, rtol=1e-14)
    np.testing.assert_allclose(c * (fp - fm), np.zeros_like(phi),
                               atol=1e-15)
    np.testing.assert_allclose(c * c * (fm + fp),
                               (1.0 - params.omega0) * phi * c * c,
                               rtol=1e-13)


def test_initialize_macro_phi_round_trip():
    rng = np.random.default_rng(4)
    phi0 = rng.random(12)
    for dt, R in ((1.0, 0.0), (0.25, 1.3)):
        params = _unit_rates(0.7, dt=dt, source_R=R)
        f = lbm.initialize(phi0, params)
        np.testing.assert_allclose(lbm.macro_phi(f, params), phi0,
                                   rtol=1e-13, atol=1e-14)


def test_initialize_applies_the_half_step_source_shift():
    phi0 = np.array([1.0, 2.0])
    f = lbm.initialize(phi0, _unit_rates(0.8, source_R=0.4))
    np.testing.assert_allclose(f.f_zero, 0.8 * (phi0 - 0.2), rtol=1e-14)


def test_distribution_field_length_check():
    with pytest.raises(DomainError, match="population arrays must share"):
        lbm.DistributionField(np.zeros(3), np.zeros(3), np.zeros(4))
    f = lbm.DistributionField(np.zeros(5), np.zeros(5), np.zeros(5))
    assert f.node_count == 5


def test_initialize_rejects_a_scalar_field():
    with pytest.raises(DomainError, match="population arrays must share"):
        lbm.initialize(1.0, _unit_rates(0.5))


def test_lattice_matrices_inverse_and_rows():
    # c = dx/dt = 2.
    mats = lbm.lattice_matrices(ModelParams(0.8, 1.1, 0.7, dx=1.0, dt=0.5,
                                            s0=0.9))
    np.testing.assert_allclose(mats.M @ mats.M_inv, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(mats.M_inv @ mats.M, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(mats.M[0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(mats.M[1], [-2.0, 0.0, 2.0])
    np.testing.assert_allclose(mats.M[2], [4.0, -8.0, 4.0])
    np.testing.assert_allclose(mats.S, np.diag([0.9, 1.1, 0.7]))
    # A valid record whose lattice speed dx/dt overflows to inf.
    fast = ModelParams(0.5, 1.0, 1.0, dx=1e-15, dt=5e-324)
    with pytest.raises(DomainError, match="lattice speed"):
        lbm.lattice_matrices(fast)


def test_uniform_equilibrium_is_a_fixed_point():
    params = ModelParams(0.6, 1.2, 0.8, dx=1.0, dt=1.0)
    phi = np.full(10, 1.7)
    f = lbm.initialize(phi, params)
    new = lbm.evolve(f, params, BoundarySpec.periodic())
    np.testing.assert_allclose(new.f_minus, f.f_minus, rtol=1e-14)
    np.testing.assert_allclose(new.f_zero, f.f_zero, rtol=1e-14)
    np.testing.assert_allclose(new.f_plus, f.f_plus, rtol=1e-14)


def test_evolve_conserves_the_total_field():
    rng = np.random.default_rng(6)
    params = _random_params(rng)
    phi0 = rng.random(20)
    f = lbm.initialize(phi0, params)
    total0 = float(np.sum(lbm.macro_phi(f, params)))
    for _ in range(100):
        f = lbm.evolve(f, params, BoundarySpec.periodic())
    total = float(np.sum(lbm.macro_phi(f, params)))
    np.testing.assert_allclose(total, total0, rtol=1e-13)


def test_evolve_rejects_bounded_domains():
    params = ModelParams(0.6, 1.2, 0.8, dx=1.0, dt=1.0)
    f = lbm.initialize(np.zeros(8), params)
    with pytest.raises(DomainError, match="only streams periodically"):
        lbm.evolve(f, params, BoundarySpec.dirichlet(0.0, 0.0))


def test_trajectory_matches_the_four_level_prediction():
    dev, max_phi = lbm.fd_equivalence_deviation(32, 60, 0.7, 1.2, 0.9,
                                                seed=5)
    assert dev <= 1e-12 * max_phi
    dev, max_phi = lbm.fd_equivalence_deviation(32, 60, 0.7, 1.2, 0.9,
                                                seed=5, source_R=0.8)
    assert dev <= 1e-12 * max_phi


def test_fd_equivalence_deviation_validation():
    with pytest.raises(DomainError):
        lbm.fd_equivalence_deviation(4, 60, 0.7, 1.2, 0.9, seed=5)
    with pytest.raises(DomainError):
        lbm.fd_equivalence_deviation(32, 2, 0.7, 1.2, 0.9, seed=5)
    with pytest.raises(DomainError):
        lbm.fd_equivalence_deviation(16.0, 60, 0.7, 1.2, 0.9, seed=5)
    with pytest.raises(DomainError):
        lbm.fd_equivalence_deviation(32, 60.0, 0.7, 1.2, 0.9, seed=5)
    for seed in (-1, 1.5, None):
        with pytest.raises(DomainError):
            lbm.fd_equivalence_deviation(32, 60, 0.7, 1.2, 0.9, seed=seed)
    # More than 2**36 node-steps or 2**21 nodes is refused before anything
    # is allocated.
    for n_nodes, steps in ((2 ** 20, 2 ** 16 + 1), (2 ** 40, 3),
                           (lbm._MAX_EQUIV_NODES + 1, 3)):
        with pytest.raises(DomainError):
            lbm.fd_equivalence_deviation(n_nodes, steps, 0.7, 1.2, 0.9,
                                         seed=5)
    assert lbm.fd_equivalence_deviation(np.int64(16), np.int32(20), 0.7,
                                        1.2, 0.9, seed=5) == \
        lbm.fd_equivalence_deviation(16, 20, 0.7, 1.2, 0.9, seed=5)


def test_fd_equivalence_deviation_carries_nan_through():
    # The source overflows the populations to inf and then NaN; a check
    # that dropped NaN would report a zero deviation and pass.
    with np.errstate(over="ignore", invalid="ignore"):
        dev, max_phi = lbm.fd_equivalence_deviation(16, 20, 0.5, 1.5, 0.5,
                                                    seed=1, source_R=1e308)
    assert np.isnan(dev)
    assert not dev <= 1e-12 * max_phi


def _pops(f):
    return (f.f_minus, f.f_zero, f.f_plus)


def _roll_evolve(f, params):
    # The substituted population update written as whole-array expressions
    # with np.roll streaming; the in-place kernel must match it bit for bit.
    omega0, omega1, s1, s2 = params.omega0, params.omega1, params.s1, params.s2
    dt_R = params.dt * params.source_R
    phi = lbm.macro_phi(f, params)
    asym = 0.5 * s1 * (f.f_minus - f.f_plus)
    pull = 0.5 * s2 * f.f_zero - 0.5 * omega0 * s2 * phi
    g_minus = f.f_minus - asym + pull + (omega1 + omega0 * s2 / 4.0) * dt_R
    g_zero = ((1.0 - s2) * f.f_zero + omega0 * s2 * phi
              + omega0 * (1.0 - s2 / 2.0) * dt_R)
    g_plus = f.f_plus + asym + pull + (omega1 + omega0 * s2 / 4.0) * dt_R
    return lbm.DistributionField(np.roll(g_minus, -1), g_zero,
                                 np.roll(g_plus, 1))


def _stored_trajectory_deviation(n_nodes, steps, omega0, s1, s2, seed,
                                 source_R):
    # The equivalence check with every level kept: `_roll_evolve` walks the
    # trajectory and the public `step` predicts each level from a fresh
    # history of the three before it.
    phi0 = np.random.default_rng(seed).random(n_nodes)
    params = ModelParams(omega0, s1, s2, dx=1.0, dt=1.0, source_R=source_R)
    f = lbm.initialize(phi0, params)
    trace = [lbm.macro_phi(f, params)]
    for _ in range(steps):
        f = _roll_evolve(f, params)
        trace.append(lbm.macro_phi(f, params))
    coeffs = coefficients(omega0, s1, s2)
    max_dev = 0.0
    for n in range(2, steps):
        history = PhiHistory.from_levels(trace[n - 2], trace[n - 1],
                                         trace[n])
        predicted = step(history, coeffs, params.dt, params.source_R,
                         BoundarySpec.periodic())
        max_dev = max(max_dev,
                      float(np.max(np.abs(predicted - trace[n + 1]))))
    max_phi = float(max(np.max(np.abs(lv)) for lv in trace))
    return max_dev, max_phi


def test_evolve_matches_the_roll_expression_bit_for_bit():
    rng = np.random.default_rng(14)
    for n_nodes in (1, 2, 3, 17, 64):
        for source_R in (0.0, rng.uniform(-2.0, 2.0)):
            params = _random_params(rng, source_R=source_R)
            f = lbm.initialize(rng.random(n_nodes), params)
            for _ in range(20):
                before = [p.tobytes() for p in _pops(f)]
                new = lbm.evolve(f, params, BoundarySpec.periodic())
                assert [p.tobytes() for p in _pops(f)] == before
                want = _roll_evolve(f, params)
                assert ([p.tobytes() for p in _pops(new)]
                        == [p.tobytes() for p in _pops(want)])
                f = new


def test_streamed_check_matches_the_stored_trajectory_bit_for_bit():
    rng = np.random.default_rng(16)
    for seed in (1, 2, 3):
        for source_R in (0.0, 0.3, -1.7):
            triple = (rng.uniform(0.05, 0.95), rng.uniform(0.1, 1.9),
                      rng.uniform(0.1, 1.9))
            # 3 to 9 steps end on a reduction of one to four levels, and 8
            # nodes give the shortest ghost copy.
            sizes = [(n, k) for n in (8, 9) for k in range(3, 10)]
            for n_nodes, steps in sizes + [(37, 50)]:
                args = (n_nodes, steps, *triple, seed, source_R)
                assert lbm.fd_equivalence_deviation(*args) == \
                    _stored_trajectory_deviation(*args)


def test_matrix_form_matches_the_substituted_form():
    rng = np.random.default_rng(8)
    for _ in range(5):
        params = _random_params(rng, source_R=rng.uniform(-1.0, 1.0))
        phi0 = rng.random(16)
        fa = lbm.initialize(phi0, params)
        fb = fa
        for _ in range(10):
            fa = lbm.evolve(fa, params, BoundarySpec.periodic())
            fb = lbm.evolve_matrix_form(fb, params)
            np.testing.assert_allclose(fa.f_minus, fb.f_minus, atol=1e-13)
            np.testing.assert_allclose(fa.f_zero, fb.f_zero, atol=1e-13)
            np.testing.assert_allclose(fa.f_plus, fb.f_plus, atol=1e-13)


def test_unit_rates_collide_straight_to_equilibrium():
    # With every rate 1 and no source the post-collision state is the
    # equilibrium, so one update is equilibrium plus streaming.
    params = ModelParams(0.75, 1.0, 1.0, dx=1.0, dt=1.0, s0=1.0)
    rng = np.random.default_rng(10)
    phi0 = rng.random(12)
    f = lbm.DistributionField(rng.random(12), rng.random(12), phi0)
    phi = lbm.macro_phi(f, params)
    fm, f0, fp = lbm.equilibrium(phi, params)
    new = lbm.evolve_matrix_form(f, params)
    np.testing.assert_allclose(new.f_minus, np.roll(fm, -1), atol=1e-14)
    np.testing.assert_allclose(new.f_zero, f0, atol=1e-14)
    np.testing.assert_allclose(new.f_plus, np.roll(fp, 1), atol=1e-14)


def test_conserved_moment_rate_never_enters_the_field():
    rng = np.random.default_rng(12)
    phi0 = rng.random(24)
    trajectories = []
    for s0 in (0.1, 1.0, 1.9):
        params = ModelParams(0.6, 1.3, 0.8, dx=1.0, dt=1.0,
                             source_R=0.7, s0=s0)
        f = lbm.initialize(phi0, params)
        levels = []
        for _ in range(10):
            f = lbm.evolve_matrix_form(f, params)
            levels.append(lbm.macro_phi(f, params))
        trajectories.append(np.array(levels))
    np.testing.assert_allclose(trajectories[0], trajectories[1], atol=1e-12)
    np.testing.assert_allclose(trajectories[2], trajectories[1], atol=1e-12)
