"""Tests for the four-level finite-difference scheme."""

import itertools
import math

import numpy as np
import pytest

from lbmfd import calibration as cal
from lbmfd import scheme, stability
from lbmfd.errors import DomainError
from lbmfd.scheme import (
    BoundarySpec,
    Grid1D,
    PhiHistory,
    coefficients,
    run,
    step,
)


def _mirror(phi):
    # Reflection j -> -j mod n on a periodic index set.
    return np.roll(phi[::-1], 1)


def test_coefficients_at_unit_rates():
    co = coefficients(0.8, 1.0, 1.0)
    np.testing.assert_allclose(co.side_n, 0.1, rtol=1e-14)
    np.testing.assert_allclose(co.center_n, 0.8, rtol=1e-14)
    assert abs(co.side_nm1) < 1e-15
    assert abs(co.center_nm1) < 1e-15
    assert co.center_nm2 == 0.0
    assert co.source == 1.0


def test_coefficient_weights_sum_to_one():
    # The rounded weights must sum to one within one rounding, or every
    # step rescales the field's mean by the same wrong factor.
    rng = np.random.default_rng(3)
    triples = [(rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.99),
                rng.uniform(0.01, 1.99)) for _ in range(200)]
    for eps in (0.1, 0.15, 0.175, 0.2, 0.24):
        res = cal.calibrate_sixth(eps)
        triples.append((res.omega0, res.s1, res.s2))
    for triple in triples:
        co = coefficients(*triple)
        total = math.fsum((2.0 * co.side_n, co.center_n, 2.0 * co.side_nm1,
                           co.center_nm1, co.center_nm2))
        assert abs(total - 1.0) <= 2.0 ** -53


def test_coefficients_validation():
    for bad in ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.8, 2.0, 1.0),
                (0.8, 1.0, -0.5)):
        with pytest.raises(DomainError):
            coefficients(*bad)


def test_unit_rates_reduce_to_a_two_level_stencil():
    # With s1 = s2 = 1 every history weight vanishes and one step is the
    # classical central update with mesh Fourier number epsilon.
    rng = np.random.default_rng(5)
    for omega0 in (0.2, 0.55, 0.8):
        co = coefficients(omega0, 1.0, 1.0)
        assert abs(co.side_nm1) < 1e-15
        assert abs(co.center_nm1) < 1e-15
        assert co.center_nm2 == 0.0
        eps = (1.0 - omega0) / 2.0  # the mesh Fourier number at s1 = 1
        phi = rng.random(24)
        R = rng.uniform(-1.0, 1.0)
        dt = 0.37
        history = PhiHistory.from_levels(phi.copy(), phi.copy(), phi.copy(),
                                         dt)
        new = step(history, co, dt, R, BoundarySpec.periodic())
        lap = np.roll(phi, 1) - 2.0 * phi + np.roll(phi, -1)
        np.testing.assert_allclose(new, phi + eps * lap + dt * R,
                                   rtol=1e-13, atol=1e-13)


def test_constant_field_is_a_fixed_point():
    co = coefficients(0.7, 1.3, 0.9)
    value = 2.5
    for boundary in (BoundarySpec.periodic(),
                     BoundarySpec.dirichlet(value, value)):
        phi = np.full(16, value)
        history = PhiHistory.from_levels(phi.copy(), phi.copy(), phi.copy(),
                                         0.1)
        new = step(history, co, 0.1, 0.0, boundary)
        np.testing.assert_allclose(new, value, rtol=1e-13)


def test_step_matches_the_companion_matrix_on_a_fourier_mode():
    # A single periodic mode evolves by the top row of the companion
    # amplification matrix at that wavenumber.
    rng = np.random.default_rng(17)
    n = 32
    j = np.arange(n)
    for k in (1, 3, 7):
        theta = 2.0 * np.pi * k / n
        mode = np.exp(1j * theta * j)
        omega0, s1, s2 = 0.65, 1.2, 0.8
        co = coefficients(omega0, s1, s2)
        H = stability.companion_amplification(co, theta)
        amps = rng.random(3) + 1j * rng.random(3)
        history = PhiHistory.from_levels(amps[2] * mode, amps[1] * mode,
                                         amps[0] * mode, 1.0)
        new = step(history, co, 1.0, 0.0, BoundarySpec.periodic())
        expected = (H[0, 0] * amps[0] + H[0, 1] * amps[1]
                    + H[0, 2] * amps[2]) * mode
        np.testing.assert_allclose(new, expected, atol=1e-12)


def test_step_commutes_with_spatial_reflection():
    rng = np.random.default_rng(23)
    co = coefficients(0.6, 1.4, 0.7)
    levels = [rng.random(20) for _ in range(3)]
    R = 0.3
    plain = PhiHistory.from_levels(*[lv.copy() for lv in levels], dt=1.0)
    flipped = PhiHistory.from_levels(*[_mirror(lv) for lv in levels], dt=1.0)
    new_plain = step(plain, co, 1.0, R, BoundarySpec.periodic())
    new_flipped = step(flipped, co, 1.0, R, BoundarySpec.periodic())
    np.testing.assert_allclose(new_flipped, _mirror(new_plain), atol=1e-14)


def test_steady_parabola_with_source_stays_stationary():
    # kappa * phi'' + R = 0 with zero ends has the exact solution
    # R*x*(1 - x)/(2*kappa), which the discrete update must preserve.
    grid = Grid1D(16)
    params = cal.ModelParams.from_rates(0.7, 1.3, 0.9, dx=grid.dx, dt=1.0,
                                        source_R=0.8)
    xs = grid.nodes()
    exact = params.source_R * xs * (1.0 - xs) / (2.0 * params.kappa)
    history = PhiHistory.from_levels(exact.copy(), exact.copy(),
                                     exact.copy(), params.dt)
    co = coefficients(0.7, 1.3, 0.9)
    for _ in range(10):
        new = step(history, co, params.dt, params.source_R,
                   BoundarySpec.dirichlet(0.0, 0.0))
        assert float(np.max(np.abs(new - exact))) <= 1e-10


def _reference_step(cur, prev, old, co, src, boundary):
    # The four-level update as one numpy expression, with np.roll for the
    # periodic wrap; the kernel must reproduce it bit for bit.
    if boundary.kind == "periodic":
        return (co.side_n * (np.roll(cur, 1) + np.roll(cur, -1))
                + co.center_n * cur
                + co.side_nm1 * (np.roll(prev, 1) + np.roll(prev, -1))
                + co.center_nm1 * prev
                + co.center_nm2 * old
                + src)
    new = np.empty_like(cur)
    new[1:-1] = (co.side_n * (cur[:-2] + cur[2:])
                 + co.center_n * cur[1:-1]
                 + co.side_nm1 * (prev[:-2] + prev[2:])
                 + co.center_nm1 * prev[1:-1]
                 + co.center_nm2 * old[1:-1]
                 + src)
    new[0] = boundary.left_value
    new[-1] = boundary.right_value
    return new


@pytest.mark.parametrize("chunk", [None, 4])
def test_step_matches_the_reference_expression_bit_for_bit(chunk,
                                                            monkeypatch):
    # chunk = 4 makes the kernel sweep the interior in many short passes.
    if chunk is not None:
        monkeypatch.setattr(scheme, "_CHUNK", chunk)
    rng = np.random.default_rng(29)
    co = coefficients(0.83, 0.92, 1.15)
    dt, R = 0.37, -0.6
    cases = [(BoundarySpec.periodic(), False), (BoundarySpec.periodic(), True),
             (BoundarySpec.dirichlet(0.25, -1.5), False)]
    for boundary, complex_levels in cases:
        for n in (2, 3, 6, 17, 64):
            levels = [rng.standard_normal(n) for _ in range(3)]
            if complex_levels:
                levels = [lv + 1j * rng.standard_normal(n) for lv in levels]
            history = PhiHistory.from_levels(*levels, dt=dt)
            new = step(history, co, dt, R, boundary)
            expected = _reference_step(levels[2], levels[1], levels[0], co,
                                       co.source * dt * R, boundary)
            assert new.dtype == expected.dtype
            np.testing.assert_array_equal(new, expected)


def test_step_requires_three_seeded_levels():
    phi = np.zeros(8)
    history = PhiHistory([phi.copy(), phi.copy(), phi.copy()], 0.1, 1)
    with pytest.raises(DomainError, match="three seeded levels"):
        step(history, coefficients(0.8, 1.0, 1.0), 0.1, 0.0,
             BoundarySpec.periodic())


def test_history_validation_and_rotation():
    phi = np.zeros(8)
    with pytest.raises(DomainError, match="exactly three levels"):
        PhiHistory([phi, phi], 0.1, 2)
    with pytest.raises(DomainError, match="history levels must share"):
        PhiHistory([phi, phi, np.zeros(9)], 0.1, 2)
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            PhiHistory([phi, phi, phi], dt, 2)
    a, b, c, d = (np.full(4, v) for v in (1.0, 2.0, 3.0, 4.0))
    history = PhiHistory.from_levels(a, b, c, 0.1)
    assert history.step_index == 2
    history.push(d)
    assert history.step_index == 3
    np.testing.assert_array_equal(history.oldest, b)
    np.testing.assert_array_equal(history.previous, c)
    np.testing.assert_array_equal(history.current, d)


def test_history_rejects_scalar_levels():
    with pytest.raises(DomainError, match="history levels must share"):
        PhiHistory.from_levels(1.0, 2.0, 3.0, dt=0.1)


def test_run_validates_its_time_and_grid_arguments():
    params = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    grid = Grid1D(10)
    init = lambda x, t: 0.0
    boundary = BoundarySpec.dirichlet(0.0, 0.0)
    with pytest.raises(DomainError):
        run(params, grid, init, boundary, 0.3)
    with pytest.raises(DomainError):
        run(params, grid, init, boundary, 1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DomainError):
            run(params, grid, init, boundary, bad)
    with pytest.raises(DomainError):
        run(params, Grid1D(12), init, boundary, 1.2)
    # More than 2**36 node-steps is refused before anything is allocated,
    # also where t_end/dt overflows to inf.
    for grid_n, t_end in ((10, 1e300), (2 ** 40, 0.9)):
        with pytest.raises(DomainError):
            run(params, Grid1D(grid_n), init, boundary, t_end)
    tiny = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=1e-300)
    with pytest.raises(DomainError):
        run(tiny, grid, init, boundary, 1e300)


def test_run_rejects_an_initializer_that_does_not_broadcast():
    # Three values per node, one row per case of a batch of two, and one
    # node too few: none fits the level of a single case on 11 nodes.
    params = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    for value in (np.zeros((11, 3)), np.zeros((2, 11)), np.zeros(10)):
        with pytest.raises(DomainError, match="does not broadcast"):
            run(params, Grid1D(10), lambda x, t: value,
                BoundarySpec.dirichlet(0.0, 0.0), 1.2)


def test_run_with_zero_updates_returns_the_third_seed():
    params = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    grid = Grid1D(10)
    init = lambda x, t: np.sin(np.pi * x) * (1.0 + t)
    final = run(params, grid, init, BoundarySpec.dirichlet(0.0, 0.0), 0.6)
    xs = grid.nodes()
    np.testing.assert_allclose(final,
                               [init(x, 0.6) for x in xs], rtol=1e-15)


def test_run_periodic_uses_the_distinct_nodes():
    params = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    final = run(params, Grid1D(10), lambda x, t: np.cos(2.0 * np.pi * x),
                BoundarySpec.periodic(), 1.2)
    assert final.shape == (10,)


def test_grid_and_boundary_validation():
    grid = Grid1D(4)
    assert grid.dx == 0.25
    np.testing.assert_allclose(grid.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        Grid1D(1)
    assert Grid1D(np.int64(4)).n_intervals == 4
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            BoundarySpec.dirichlet(bad, 0.0)
        with pytest.raises(DomainError):
            BoundarySpec.dirichlet(0.0, bad)
    # The count must be an integer: 10.5 would give 12 nodes, past x = 1.
    for bad in (10.5, 10.0, "10"):
        with pytest.raises(DomainError):
            Grid1D(bad)
    assert BoundarySpec.periodic().kind == "periodic"
    ends = BoundarySpec.dirichlet(1.0, 2.0)
    assert (ends.left_value, ends.right_value) == (1.0, 2.0)
    with pytest.raises(DomainError):
        BoundarySpec("neumann")


def _sine_bump(x, t):
    return np.sin(np.pi * x) * np.exp(-t) + 0.25 * np.cos(2.0 * np.pi * x)


def _batch(params, grid, initializer, boundary, t_end):
    # A batch of rows on one grid: the one-group case of the staged march.
    (final,) = scheme._march([(params, grid, initializer, t_end)], boundary)
    return final


def test_batched_run_rows_equal_single_runs():
    grid = Grid1D(20)
    triples = ((0.83, 0.92, 1.15), (0.6, 1.4, 0.7), (0.8, 1.0, 1.0))
    sources = (0.0, 0.5, -1.25)
    params = [cal.ModelParams.from_rates(*t, dx=grid.dx, dt=0.01,
                                         source_R=r)
              for t, r in zip(triples, sources)]
    boundary = BoundarySpec.dirichlet(0.0, 0.0)
    batch = _batch(params, grid, _sine_bump, boundary, 0.5)
    assert batch.shape == (3, 21)
    for row, p in zip(batch, params):
        np.testing.assert_array_equal(
            row, run(p, grid, _sine_bump, boundary, 0.5))


def test_periodic_march_holds_one_row():
    # One group of two rows and two groups of one row are both refused,
    # before the initializer is called.
    grid = Grid1D(10)
    p = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    seeded = []
    init = lambda x, t: seeded.append(t) or 0.0
    for groups in ([([p, p], grid, init, 1.2)],
                   [([p], grid, init, 1.2), ([p], grid, init, 0.9)]):
        with pytest.raises(DomainError, match="one row"):
            scheme._march(groups, BoundarySpec.periodic())
    assert seeded == []


def test_batched_run_accepts_one_row_per_case():
    grid = Grid1D(10)
    params = [cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)] * 2
    scale = np.array([[1.0], [2.0]])
    final = _batch(params, grid, lambda x, t: scale * np.sin(np.pi * x),
                   BoundarySpec.dirichlet(0.0, 0.0), 0.6)
    np.testing.assert_array_equal(final[1], 2.0 * final[0])


def test_run_rejects_empty_and_mismatched_batches():
    # run takes one ModelParams; a group of the march takes a non-empty
    # sequence of them that share dx and dt.
    grid = Grid1D(10)
    init = lambda x, t: 0.0
    boundary = BoundarySpec.dirichlet(0.0, 0.0)
    base = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    other_dt = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.1, dt=0.2)
    other_dx = cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=0.05, dt=0.3)
    with pytest.raises(DomainError, match="one ModelParams"):
        run([base], grid, init, boundary, 1.2)
    for params in ([], (), [base, other_dt], [base, other_dx]):
        with pytest.raises(DomainError):
            _batch(params, grid, init, boundary, 1.2)


def test_run_leaves_the_initializer_result_untouched():
    grid = Grid1D(10)
    params = cal.ModelParams.from_rates(0.7, 1.3, 0.9, dx=0.1, dt=0.3)
    start = np.sin(np.pi * grid.nodes())
    kept = start.copy()
    final = run(params, grid, lambda x, t: start,
                BoundarySpec.dirichlet(0.0, 0.0), 1.5)
    np.testing.assert_array_equal(start, kept)
    assert not np.shares_memory(final, start)


def _reference_run(triple, source_R, scale, grid, boundary, t_end):
    # run's march for one case, spelled out with the whole-array reference
    # expression, from the start levels scale * _sine_bump.
    p = cal.ModelParams.from_rates(*triple, dx=grid.dx, dt=0.01,
                                   source_R=source_R)
    xs = grid.nodes()[:-1] if boundary.kind == "periodic" else grid.nodes()
    levels = [scale * _sine_bump(xs, k * p.dt) for k in range(3)]
    co = coefficients(*triple)
    src = co.source * p.dt * p.source_R
    for _ in range(round(t_end / p.dt) - 2):
        levels = levels[1:] + [_reference_step(levels[2], levels[1],
                                               levels[0], co, src, boundary)]
    return levels[2]


@pytest.mark.parametrize("chunk", [4, 7])
def test_batched_run_matches_the_reference_march_bit_for_bit(chunk,
                                                             monkeypatch):
    # Passes of 4 and 7 nodes straddle the seams between the rows of the
    # flat Dirichlet batch.  A batch reads every weight and source per node,
    # and a single case keeps them as scalars; both must give the bits of
    # the reference march of each row on its own, whether the rows share a
    # weight or not.  A periodic march holds one row, so there only single
    # runs are checked.  Ends at 2*dt .. 7*dt finish a march with zero
    # updates and after each of the four phases of its call plan, the last
    # one after the carried pair has gone once round the four level
    # buffers.
    monkeypatch.setattr(scheme, "_CHUNK", chunk)
    grid = Grid1D(12)
    t0, t1, t2 = (0.83, 0.92, 1.15), (0.6, 1.4, 0.7), (0.8, 1.0, 1.0)
    r0, r1, r2 = 0.0, 0.5, -1.25
    batches = ([(t0, r0), (t1, r1), (t2, r2)],
               [(t0, r0), (t0, r1), (t0, r2)],
               [(t0, r1), (t1, r1), (t2, r1)],
               [(t1, r2)] * 3)
    scale = np.array([[1.0], [-2.0], [0.5]])
    ends = [0.2] + [k * 0.01 for k in range(2, 8)]
    for boundary, rows, t_end in itertools.product(
            (BoundarySpec.dirichlet(0.25, -1.5), BoundarySpec.periodic()),
            batches, ends):
        params = [cal.ModelParams.from_rates(*t, dx=grid.dx, dt=0.01,
                                             source_R=r)
                  for t, r in rows]
        if boundary.kind == "dirichlet":
            batch = _batch(params, grid,
                           lambda x, t: scale * _sine_bump(x, t), boundary,
                           t_end)
        for i, ((triple, source_R), p) in enumerate(zip(rows, params)):
            expected = _reference_run(triple, source_R, scale[i], grid,
                                      boundary, t_end)
            if boundary.kind == "dirichlet":
                assert batch[i].tobytes() == expected.tobytes()
            single = run(p, grid, lambda x, t: scale[i] * _sine_bump(x, t),
                         boundary, t_end)
            assert single.tobytes() == expected.tobytes()


def test_batched_run_keeps_the_sign_of_zero_per_row():
    # source_R = 0.0 and -0.0 compare equal, but on a field of -0.0 they
    # give different bits, so each row must keep its own source term.
    grid = Grid1D(6)
    params = [cal.ModelParams.from_rates(0.8, 1.0, 1.0, dx=grid.dx, dt=0.01,
                                         source_R=r) for r in (0.0, -0.0)]
    init = lambda x, t: np.full_like(x, -0.0)
    boundary = BoundarySpec.dirichlet(-0.0, -0.0)
    singles = [run(p, grid, init, boundary, 0.05) for p in params]
    assert singles[0].tobytes() != singles[1].tobytes()
    batch = _batch(params, grid, init, boundary, 0.05)
    for row, single in zip(batch, singles):
        assert row.tobytes() == single.tobytes()


# Groups of the staged march as (intervals, dt, t_end, rows of (triple,
# source_R)), with the step counts 7, 7, 2, 12 and 3: two groups end
# together, one ends at 2*dt with zero updates, and neither the first nor
# the last group given is the first or the last to end.
_STAGED_GROUPS = (
    (12, 0.01, 0.07, [((0.83, 0.92, 1.15), 0.0), ((0.6, 1.4, 0.7), 0.5)]),
    (5, 0.02, 0.14, [((0.8, 1.0, 1.0), -1.25)]),
    (9, 0.01, 0.02, [((0.6, 1.4, 0.7), 0.0), ((0.83, 0.92, 1.15), -1.25)]),
    (7, 0.005, 0.06, [((0.83, 0.92, 1.15), 0.5)]),
    (16, 0.01, 0.03, [((0.8, 1.0, 1.0), 0.5), ((0.6, 1.4, 0.7), -1.25),
                      ((0.83, 0.92, 1.15), 0.0)]),
)


@pytest.mark.parametrize("chunk", [None, 4, 7])
@pytest.mark.parametrize("boundary", [BoundarySpec.dirichlet(0.25, -1.5)],
                         ids=["dirichlet"])
def test_staged_march_matches_one_run_per_group_bit_for_bit(chunk, boundary,
                                                            monkeypatch):
    # Passes of 4 and 7 nodes straddle the seams between groups as well as
    # those between rows.  A group must get the bits of a march of its own,
    # which the batched reference test ties to the whole-array expression.
    if chunk is not None:
        monkeypatch.setattr(scheme, "_CHUNK", chunk)
    groups = []
    for g, (n, dt, t_end, rows) in enumerate(_STAGED_GROUPS):
        grid = Grid1D(n)
        params = [cal.ModelParams.from_rates(*t, dx=grid.dx, dt=dt,
                                             source_R=r) for t, r in rows]
        scale = (-0.5) ** g * np.arange(1.0, len(rows) + 1.0)[:, None]
        groups.append((params, grid,
                       lambda x, t, scale=scale: scale * _sine_bump(x, t),
                       t_end))
    finals = scheme._march(groups, boundary)
    assert len(finals) == len(groups)
    for (params, grid, init, t_end), final in zip(groups, finals):
        alone = _batch(params, grid, init, boundary, t_end)
        assert final.shape == alone.shape
        assert final.tobytes() == alone.tobytes()
