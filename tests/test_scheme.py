"""Tests for the four-level finite-difference scheme."""

import dataclasses
import faulthandler
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from lbmfd import calibration as cal
from lbmfd import cli, lbm, scheme, stability
from lbmfd import verification as ver
from lbmfd.errors import DomainError
from lbmfd.scheme import (
    BoundarySpec,
    Grid1D,
    PhiHistory,
    coefficients,
    run,
    step,
)


@pytest.fixture
def chunk(request, monkeypatch):
    # The `_CHUNK` of a reference-march test, its default when None.  A
    # short chunk makes plans of many passes, which every case but chunk 3
    # marches on one worker: two threads on passes of a few nodes take
    # longer than the march, and the split has tests of its own.
    if request.param is not None:
        monkeypatch.setattr(scheme, "_CHUNK", request.param)
        if request.param != 3:
            monkeypatch.setattr(scheme, "_cpus", lambda: 1)
    return request.param


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
        history = PhiHistory.from_levels(phi.copy(), phi.copy(), phi.copy())
        new = step(history, co, dt, R, BoundarySpec.dirichlet(0.0, 0.0))
        lap = phi[:-2] - 2.0 * phi[1:-1] + phi[2:]
        np.testing.assert_allclose(new[1:-1], phi[1:-1] + eps * lap + dt * R,
                                   rtol=1e-13, atol=1e-13)


def test_constant_field_is_a_fixed_point():
    co = coefficients(0.7, 1.3, 0.9)
    value = 2.5
    phi = np.full(16, value)
    history = PhiHistory.from_levels(phi.copy(), phi.copy(), phi.copy())
    new = step(history, co, 0.1, 0.0, BoundarySpec.dirichlet(value, value))
    np.testing.assert_allclose(new, value, rtol=1e-13)


def test_step_matches_the_companion_matrix_on_a_fourier_mode():
    # A single sine mode with zero ends evolves by the top row of the
    # companion amplification matrix at its wavenumber, since
    # sin(theta*(j-1)) + sin(theta*(j+1)) = 2*cos(theta)*sin(theta*j).
    rng = np.random.default_rng(17)
    n = 32
    j = np.arange(n + 1)
    for k in (1, 3, 7):
        theta = np.pi * k / n
        mode = np.sin(theta * j)
        omega0, s1, s2 = 0.65, 1.2, 0.8
        co = coefficients(omega0, s1, s2)
        H = stability.companion_amplification(co, theta)
        amps = rng.random(3) + 1j * rng.random(3)
        history = PhiHistory.from_levels(amps[2] * mode, amps[1] * mode,
                                         amps[0] * mode)
        new = step(history, co, 1.0, 0.0, BoundarySpec.dirichlet(0.0, 0.0))
        expected = (H[0, 0] * amps[0] + H[0, 1] * amps[1]
                    + H[0, 2] * amps[2]) * mode
        np.testing.assert_allclose(new, expected, atol=1e-12)


def test_step_commutes_with_spatial_reflection():
    # Reflection j -> n-1-j commutes with a step whose end values are equal.
    rng = np.random.default_rng(23)
    co = coefficients(0.6, 1.4, 0.7)
    levels = [rng.random(20) for _ in range(3)]
    R = 0.3
    ends = BoundarySpec.dirichlet(0.4, 0.4)
    plain = PhiHistory.from_levels(*[lv.copy() for lv in levels])
    flipped = PhiHistory.from_levels(*[lv[::-1] for lv in levels])
    new_plain = step(plain, co, 1.0, R, ends)
    new_flipped = step(flipped, co, 1.0, R, ends)
    np.testing.assert_allclose(new_flipped, new_plain[::-1], atol=1e-14)


def test_steady_parabola_with_source_stays_stationary():
    # kappa * phi'' + R = 0 with zero ends has the exact solution
    # R*x*(1 - x)/(2*kappa), which the discrete update must preserve.
    grid = Grid1D(16)
    params = cal.ModelParams(0.7, 1.3, 0.9, dx=grid.dx, dt=1.0, source_R=0.8)
    xs = grid.nodes()
    exact = params.source_R * xs * (1.0 - xs) / (2.0 * params.kappa)
    history = PhiHistory.from_levels(exact.copy(), exact.copy(),
                                     exact.copy())
    co = coefficients(0.7, 1.3, 0.9)
    for _ in range(10):
        new = step(history, co, params.dt, params.source_R,
                   BoundarySpec.dirichlet(0.0, 0.0))
        assert float(np.max(np.abs(new - exact))) <= 1e-10


def _reference_step(cur, prev, old, co, src, boundary):
    # The four-level update as one numpy expression on the interior, with
    # the Dirichlet ends pinned; the kernel must reproduce it bit for bit.
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


@pytest.mark.parametrize("chunk", [None, 4], indirect=True)
def test_step_matches_the_reference_expression_bit_for_bit(chunk):
    # chunk = 4 makes the kernel sweep the interior in many short passes.
    rng = np.random.default_rng(29)
    co = coefficients(0.83, 0.92, 1.15)
    dt, R = 0.37, -0.6
    boundary = BoundarySpec.dirichlet(0.25, -1.5)
    for complex_levels in (False, True):
        for n in (2, 3, 6, 17, 64):
            levels = [rng.standard_normal(n) for _ in range(3)]
            if complex_levels:
                levels = [lv + 1j * rng.standard_normal(n) for lv in levels]
            history = PhiHistory.from_levels(*levels)
            new = step(history, co, dt, R, boundary)
            expected = _reference_step(levels[2], levels[1], levels[0], co,
                                       co.source * dt * R, boundary)
            assert new.dtype == expected.dtype
            np.testing.assert_array_equal(new, expected)


def test_step_rejects_a_bad_dt_or_source():
    # dt and R enter the source term dt*R: a NaN there fills the interior
    # with NaN, and an infinite or non-positive dt marches a field that
    # means nothing.  The history is left as it was.
    z = np.zeros(6)
    co = coefficients(0.8, 1.0, 1.0)
    nan, inf = float("nan"), float("inf")
    for dt, R in ((nan, 1.0), (inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
                  (0.1, nan), (0.1, inf), (0.1, -inf)):
        history = PhiHistory.from_levels(z, z, z)
        with pytest.raises(DomainError):
            step(history, co, dt, R, BoundarySpec.dirichlet(0.0, 0.0))
        assert history.current is z


def test_history_validation_and_rotation():
    phi = np.zeros(8)
    with pytest.raises(DomainError, match="exactly three levels"):
        PhiHistory([phi, phi])
    with pytest.raises(DomainError, match="history levels must share"):
        PhiHistory([phi, phi, np.zeros(9)])
    # A level needs its two end nodes, which `step` pins; two nodes, both
    # pinned, with no interior, are enough.
    for n in (0, 1):
        with pytest.raises(DomainError, match="two end nodes"):
            PhiHistory([np.zeros(n)] * 3)
    # After a push the history holds b, c, d oldest first, so the next
    # step reads d as its current level, c as the previous and b as the
    # oldest; four distinct random levels make any other order show.
    rng = np.random.default_rng(31)
    a, b, c, d = (rng.standard_normal(7) for _ in range(4))
    co = coefficients(0.83, 0.92, 1.15)
    boundary = BoundarySpec.dirichlet(0.25, -1.5)
    history = PhiHistory.from_levels(a, b, c)
    assert history.push(d) is d
    assert history.current is d
    new = step(history, co, 0.37, -0.6, boundary)
    assert history.current is new
    expected = _reference_step(d, c, b, co, co.source * 0.37 * -0.6,
                               boundary)
    assert new.tobytes() == expected.tobytes()
    newer = step(history, co, 0.37, -0.6, boundary)
    expected = _reference_step(new, d, c, co, co.source * 0.37 * -0.6,
                               boundary)
    assert newer.tobytes() == expected.tobytes()


def test_history_rejects_scalar_levels():
    with pytest.raises(DomainError, match="history levels must share"):
        PhiHistory.from_levels(1.0, 2.0, 3.0)


def test_history_push_rejects_a_level_of_another_shape():
    # A shorter level would make the next step fail to broadcast, and a
    # longer one would step on its first nodes only; both are refused, and
    # the history is left as it was.
    levels = [np.zeros(7) for _ in range(3)]
    history = PhiHistory(levels)
    for bad in (np.zeros(3), np.zeros(9), np.zeros((1, 7)), 0.0):
        with pytest.raises(DomainError, match="does not fit a history"):
            history.push(bad)
        assert all(a is b for a, b in zip(history._levels, levels))
    new = step(history, coefficients(0.8, 1.0, 1.0), 0.3, 0.0,
               BoundarySpec.dirichlet(0.0, 0.0))
    assert new.shape == (7,)


def test_run_validates_its_time_and_grid_arguments():
    params = cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    grid = Grid1D(10)
    init = lambda x, t: 0.0
    boundary = BoundarySpec.dirichlet(0.0, 0.0)
    with pytest.raises(DomainError):
        run(params, grid, init, boundary, 0.3)
    with pytest.raises(DomainError):
        run(params, grid, init, boundary, 1.0)
    # dt = 30 * 0.1**2 = 0.30000000000000004 > 0.3, so t_end = 0.6 is two
    # steps within the slack, and returns the third seeded level.  A t_end
    # of dt, and of zero or less, stays refused.
    dt = 30.0 * 0.1 ** 2
    assert 0.6 < 2.0 * dt
    seeded = cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=dt)
    final = run(seeded, grid, lambda x, t: x + t, boundary, 0.6)
    assert final.tobytes() == (grid.nodes() + 2.0 * dt).tobytes()
    for bad in (dt, 0.0, -0.6):
        with pytest.raises(DomainError, match="at least 2"):
            run(seeded, grid, init, boundary, bad)
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
    tiny = cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=1e-300)
    with pytest.raises(DomainError):
        run(tiny, grid, init, boundary, 1e300)
    # More than 2**22 intervals is refused before anything is allocated,
    # also at two steps, which keep 2**34 intervals within the node-step
    # bound while their four levels would take 128 GiB each.
    wide = cal.ModelParams(0.8, 1.0, 1.0, dx=2.0 ** -34, dt=0.3)
    with pytest.raises(DomainError, match="intervals exceed"):
        run(wide, Grid1D(2 ** 34), init, boundary, 0.6)


def test_run_rejects_an_initializer_that_does_not_broadcast():
    # Three values per node, one row per case of a batch of two, and one
    # node too few: none fits the level of a single case on 11 nodes.
    params = cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    for value in (np.zeros((11, 3)), np.zeros((2, 11)), np.zeros(10)):
        with pytest.raises(DomainError, match="does not broadcast"):
            run(params, Grid1D(10), lambda x, t: value,
                BoundarySpec.dirichlet(0.0, 0.0), 1.2)


def test_run_with_zero_updates_returns_the_third_seed():
    params = cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    grid = Grid1D(10)
    init = lambda x, t: np.sin(np.pi * x) * (1.0 + t)
    final = run(params, grid, init, BoundarySpec.dirichlet(0.0, 0.0), 0.6)
    xs = grid.nodes()
    np.testing.assert_allclose(final,
                               [init(x, 0.6) for x in xs], rtol=1e-15)


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
    ends = BoundarySpec.dirichlet(1.0, 2.0)
    assert (ends.left_value, ends.right_value) == (1.0, 2.0)
    # The spec is the pair of end values and nothing else.
    assert dataclasses.astuple(BoundarySpec.dirichlet(1.0, -2.0)) == (1.0, -2.0)
    # The 2**22-interval cap is checked where the count enters, so nodes()
    # of a refused grid never allocates.
    assert Grid1D(2 ** 22).n_intervals == 2 ** 22
    for bad in (2 ** 22 + 1, 2 ** 40):
        with pytest.raises(DomainError, match="intervals exceed"):
            Grid1D(bad)


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
    params = [cal.ModelParams(*t, dx=grid.dx, dt=0.01, source_R=r)
              for t, r in zip(triples, sources)]
    boundary = BoundarySpec.dirichlet(0.0, 0.0)
    batch = _batch(params, grid, _sine_bump, boundary, 0.5)
    assert batch.shape == (3, 21)
    for row, p in zip(batch, params):
        np.testing.assert_array_equal(
            row, run(p, grid, _sine_bump, boundary, 0.5))


def test_batched_run_accepts_one_row_per_case():
    grid = Grid1D(10)
    params = [cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=0.3)] * 2
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
    base = cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=0.3)
    other_dt = cal.ModelParams(0.8, 1.0, 1.0, dx=0.1, dt=0.2)
    other_dx = cal.ModelParams(0.8, 1.0, 1.0, dx=0.05, dt=0.3)
    with pytest.raises(DomainError, match="one ModelParams"):
        run([base], grid, init, boundary, 1.2)
    for params in ([], (), [base, other_dt], [base, other_dx]):
        with pytest.raises(DomainError):
            _batch(params, grid, init, boundary, 1.2)


def test_run_leaves_the_initializer_result_untouched():
    grid = Grid1D(10)
    params = cal.ModelParams(0.7, 1.3, 0.9, dx=0.1, dt=0.3)
    start = np.sin(np.pi * grid.nodes())
    kept = start.copy()
    final = run(params, grid, lambda x, t: start,
                BoundarySpec.dirichlet(0.0, 0.0), 1.5)
    np.testing.assert_array_equal(start, kept)
    assert not np.shares_memory(final, start)


def _reference_march(levels, co, src, boundary, n_updates):
    # The march of one row from its three start levels, oldest first,
    # spelled out with the whole-array reference expression.
    for _ in range(n_updates):
        levels = levels[1:] + [_reference_step(levels[2], levels[1],
                                               levels[0], co, src, boundary)]
    return levels[2]


def _reference_run(triple, source_R, scale, grid, boundary, t_end):
    # run's march for one case from the start levels scale * _sine_bump.
    p = cal.ModelParams(*triple, dx=grid.dx, dt=0.01, source_R=source_R)
    levels = [scale * _sine_bump(grid.nodes(), k * p.dt) for k in range(3)]
    co = coefficients(*triple)
    return _reference_march(levels, co, co.source * p.dt * p.source_R,
                            boundary, round(t_end / p.dt) - 2)


# Fourth-order triples at s1 = 1, whose center_nm1 is +0.0 and whose
# center_nm2 is +0.0 at epsilon = 0.1 and -0.0 at 0.2.
_FOURTH = tuple((res.omega0, res.s1, res.s2) for res in (
    cal.calibrate_fourth(0.1, 1.0), cal.calibrate_fourth(0.2, 1.0)))


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7, 8, 9], indirect=True)
def test_batched_run_matches_the_reference_march_bit_for_bit(chunk):
    # Passes of 1 to 9 nodes straddle the seams between the rows of the
    # flat Dirichlet batch.  The level that trails by one cache line (eight
    # nodes) in a sweep makes empty passes first when the chunk is shorter
    # than that, and chunks of 8 and 9 nodes are the lag and one above it;
    # every row has more interior nodes than two chunks and the lag.  A
    # batch reads every weight and source per node, and a single case keeps
    # them as scalars; both must give the bits of the reference march of
    # each row on its own, whether the rows share a weight or not.  A batch
    # of second-order rows plans no history weight, and one of fourth-order
    # rows, whose center_nm2 is +0.0 at epsilon = 0.1 and -0.0 at 0.2, no
    # center_nm1 or center_nm2.  Ends at 2*dt .. 7*dt finish a march with
    # zero updates and after each of the four phases of its call plan, the
    # last one after the carried pair has gone once round the four level
    # buffers.
    grid = Grid1D(30)
    t0, t1, t2 = (0.83, 0.92, 1.15), (0.6, 1.4, 0.7), (0.8, 1.0, 1.0)
    t3, t4 = _FOURTH
    r0, r1, r2 = 0.0, 0.5, -1.25
    batches = ([(t0, r0), (t1, r1), (t2, r2)],
               [(t0, r0), (t0, r1), (t0, r2)],
               [(t0, r1), (t1, r1), (t2, r1)],
               [(t1, r2)] * 3,
               [(t2, r0), (t2, r1), (t2, r2)],
               [(t3, r0), (t4, r1), (t3, r2)])
    scale = np.array([[1.0], [-2.0], [0.5]])
    ends = [0.2] + [k * 0.01 for k in range(2, 8)]
    boundary = BoundarySpec.dirichlet(0.25, -1.5)
    for rows, t_end in itertools.product(batches, ends):
        params = [cal.ModelParams(*t, dx=grid.dx, dt=0.01, source_R=r)
                  for t, r in rows]
        batch = _batch(params, grid, lambda x, t: scale * _sine_bump(x, t),
                       boundary, t_end)
        for i, ((triple, source_R), p) in enumerate(zip(rows, params)):
            expected = _reference_run(triple, source_R, scale[i], grid,
                                      boundary, t_end)
            assert batch[i].tobytes() == expected.tobytes()
            single = run(p, grid, lambda x, t: scale[i] * _sine_bump(x, t),
                         boundary, t_end)
            assert single.tobytes() == expected.tobytes()


def test_batched_run_keeps_the_sign_of_zero_per_row():
    # source_R = 0.0 and -0.0 compare equal, but on a field of -0.0 they
    # give different bits, so each row must keep its own source term.
    grid = Grid1D(6)
    params = [cal.ModelParams(0.8, 1.0, 1.0, dx=grid.dx, dt=0.01,
                              source_R=r) for r in (0.0, -0.0)]
    init = lambda x, t: np.full_like(x, -0.0)
    boundary = BoundarySpec.dirichlet(-0.0, -0.0)
    singles = [run(p, grid, init, boundary, 0.05) for p in params]
    assert singles[0].tobytes() != singles[1].tobytes()
    batch = _batch(params, grid, init, boundary, 0.05)
    for row, single in zip(batch, singles):
        assert row.tobytes() == single.tobytes()


# Groups of the staged march as (intervals, dt, t_end, rows of (triple,
# source_R)), with the step counts 7, 7, 2, 12, 3, 15 and 13: two groups
# end together, one ends at 2*dt with zero updates, and neither the first
# nor the last group given is the first or the last to end.  The groups of
# second- and of fourth-order rows outlast the rest, so their stage from
# step 12 to 13 leaves out center_nm1 and center_nm2, and the last stage
# every history weight.
_STAGED_GROUPS = (
    (12, 0.01, 0.07, [((0.83, 0.92, 1.15), 0.0), ((0.6, 1.4, 0.7), 0.5)]),
    (5, 0.02, 0.14, [((0.8, 1.0, 1.0), -1.25)]),
    (9, 0.01, 0.02, [((0.6, 1.4, 0.7), 0.0), ((0.83, 0.92, 1.15), -1.25)]),
    (7, 0.005, 0.06, [((0.83, 0.92, 1.15), 0.5)]),
    (16, 0.01, 0.03, [((0.8, 1.0, 1.0), 0.5), ((0.6, 1.4, 0.7), -1.25),
                      ((0.83, 0.92, 1.15), 0.0)]),
    (8, 0.005, 0.075, [((0.8, 1.0, 1.0), 0.0), ((0.8, 1.0, 1.0), -1.25)]),
    (10, 0.01, 0.13, [(_FOURTH[0], 0.5), (_FOURTH[1], 0.0)]),
)


@pytest.mark.parametrize("chunk", [None, 1, 2, 3, 4, 7, 8, 9], indirect=True)
@pytest.mark.parametrize("boundary", [BoundarySpec.dirichlet(0.25, -1.5)],
                         ids=["dirichlet"])
def test_staged_march_matches_one_run_per_group_bit_for_bit(chunk, boundary):
    # Passes of 1 to 9 nodes straddle the seams between groups as well as
    # those between rows, and stages of odd and even length end with and
    # without a single-level tail.  A group must get the bits of a march of
    # its own, which the batched reference test ties to the whole-array
    # expression.
    groups = []
    for g, (n, dt, t_end, rows) in enumerate(_STAGED_GROUPS):
        grid = Grid1D(n)
        params = [cal.ModelParams(*t, dx=grid.dx, dt=dt,
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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_aligned_buffers_start_a_cache_line_at_their_lead_element(dtype):
    for lead, n in itertools.product(range(8), range(18)):
        buf = scheme._aligned(n, lead, dtype)
        assert (buf.ctypes.data + lead * buf.itemsize) % 64 == 0
        assert buf.shape == (n,) and buf.dtype == dtype
        assert buf.flags.writeable and buf.flags.aligned
        buf[...] = 1.0
        assert np.all(buf == 1.0)


def test_run_plans_its_passes_on_level_buffers_aligned_at_node_one(
        monkeypatch):
    # A pass writes its level from node lo + 1, and lo is a multiple of the
    # chunk or of the trailing level's lag, so the outputs of a march must
    # start a cache line at node 1.  2**16 intervals make two chunks.
    outputs = []
    plan = scheme._plan

    def recording_plan(ring, outs, *args):
        outputs.extend(outs)
        return plan(ring, outs, *args)

    monkeypatch.setattr(scheme, "_plan", recording_plan)
    grid = Grid1D(2 ** 16)
    p = cal.ModelParams(0.8, 1.0, 1.0, dx=grid.dx, dt=1e-9)
    run(p, grid, _sine_bump, BoundarySpec.dirichlet(0.0, 0.0), 6e-9)
    assert len(outputs) == 4
    for out in outputs:
        assert out.shape == (2 ** 16 + 1,)
        assert (out.ctypes.data + out.itemsize) % 64 == 0


# Start values for the signed-zero tests, drawn mostly as -0.0 so that a
# node's whole stencil is often zero, whose sum's sign the source add sets.
_SIGNED = np.array([0.0, -0.0, 5e-324, -5e-324, 0.3])
_SIGNED_P = [0.15, 0.55, 0.1, 0.1, 0.1]
_TRIPLES = ((0.83, 0.92, 1.15), (0.6, 1.4, 0.7), (0.8, 1.0, 1.0))
# At dt = 1e-4 a source_R of 1e-320 rounds to a +0.0 term, as 0.0 does.
_ZERO_SOURCES = (0.0, -0.0, 1e-320)
_SIGNED_ENDS = (BoundarySpec.dirichlet(0.0, -0.0),
                BoundarySpec.dirichlet(-0.0, -0.0))


def _signed_group(rng, rows, grid, boundary, n_steps, dt=1e-4):
    # One group of the march on signed-zero start levels, as the march's
    # argument, and each row's reference final level.
    starts = [rng.choice(_SIGNED, (len(rows), grid.n_intervals + 1),
                         p=_SIGNED_P)
              for _ in range(3)]
    params = [cal.ModelParams(*t, dx=grid.dx, dt=dt, source_R=r)
              for t, r in rows]
    expected = [_reference_march([lv[i] for lv in starts], coefficients(*t),
                                 coefficients(*t).source * dt * r, boundary,
                                 n_steps - 2)
                for i, (t, r) in enumerate(rows)]
    group = (params, grid, lambda x, t: starts[round(t / dt)], n_steps * dt)
    return group, expected


@pytest.mark.parametrize("chunk", [None, 3, 8], indirect=True)
def test_signed_zero_starts_match_the_reference_march_bit_for_bit(chunk):
    # A pass leaves out a source term that is +-0.0 in every active row, so
    # a level differs from the reference only in the sign of exact zeros
    # until the march's read-out adds the zero term back.  Rows of +0.0,
    # -0.0 and 1e-320 (a +0.0 term) run alone, in an all-zero batch, in a
    # batch whose row of 0.5 keeps the add, and in two-group stages where
    # the zero group ends first or runs on alone after the mixed stage,
    # from 2*dt (no update) to 7*dt.
    assert all(coefficients(*t).source * 1e-4 * 1e-320 == 0.0
               for t in _TRIPLES)
    rng = np.random.default_rng(43)
    zeros = [(t, r) for t in _TRIPLES for r in _ZERO_SOURCES]
    mixed = [(_TRIPLES[0], 0.0), (_TRIPLES[1], 0.5), (_TRIPLES[2], -0.0)]
    for n_steps, boundary in itertools.product(range(2, 8), _SIGNED_ENDS):
        for row in zeros + [mixed[1]]:
            group, (want,) = _signed_group(rng, [row], Grid1D(7), boundary,
                                           n_steps)
            (final,) = scheme._march([group], boundary)
            assert final[0].tobytes() == want.tobytes()
        for rows in (zeros, mixed):
            group, want = _signed_group(rng, rows, Grid1D(11), boundary,
                                        n_steps)
            (final,) = scheme._march([group], boundary)
            assert [row.tobytes() for row in final] == \
                [row.tobytes() for row in want]
        for extra in (0, 3):
            first = _signed_group(rng, zeros[:4], Grid1D(9), boundary,
                                  n_steps + extra)
            second = _signed_group(rng, mixed, Grid1D(6), boundary,
                                   n_steps + 3 - extra)
            finals = scheme._march([first[0], second[0]], boundary)
            for final, (_, want) in zip(finals, (first, second)):
                assert [row.tobytes() for row in final] == \
                    [row.tobytes() for row in want]


def _edge_starts(rng, n: int) -> list:
    # Start levels (phi0, phi1, phi2) of n nodes at which a left-out +-0.0
    # product would show: a NaN in phi0, which at second order only the
    # zero weights read; +inf and -inf in phi1, and in phi2; values near
    # 1.7e308, whose sums overflow to inf and then to NaN; and subnormal
    # values, whose products round to zeros of either sign.
    sets = []
    for level, values in ((0, [np.nan]), (1, [np.inf, -np.inf]),
                          (2, [-np.inf, np.inf])):
        starts = [rng.standard_normal(n) for _ in range(3)]
        starts[level][[2, n - 4][:len(values)]] = values
        sets.append(starts)
    huge = np.array([-1.7e308, 1.6e308, 1.7e308])
    tiny = 5e-324 * np.array([-3.0, -1.0, 1.0, 2.0])
    return sets + [[rng.choice(values, n) for _ in range(3)]
                   for values in (huge, tiny)]


@pytest.mark.parametrize("chunk", [None, 3], indirect=True)
def test_non_finite_huge_and_subnormal_starts_match_the_reference_march(
        chunk):
    # A march may leave out a zero weight's product only where that gives
    # the full plan's bits, NaN against inf and the sign of zero included,
    # so every start set marches to the bits of the reference march: alone,
    # with zero to six updates, and all five sets as the rows of one group.
    # The triples are second order at epsilon = 0.1 and 0.4 (whose small
    # center_n rounds subnormal products to zero), fourth and sixth order.
    # The -0.0 source term keeps the sign of every zero in the result, and
    # so marches on the full plan; the +0.0 one leaves out the zero weights
    # from finite starts, and marches again if the result is not finite.
    rng = np.random.default_rng(53)
    grid = Grid1D(11)
    sixth = cal.calibrate_sixth(0.1)
    triples = ((0.8, 1.0, 1.0), (0.2, 1.0, 1.0), _FOURTH[1],
               (sixth.omega0, sixth.s1, sixth.s2))
    sets = _edge_starts(rng, grid.n_intervals + 1)
    boundary = _SIGNED_ENDS[0]
    with np.errstate(all="ignore"):
        for triple, n_steps, R in itertools.product(
                triples, (2, 3, 4, 5, 8), (-0.0, 0.0)):
            co = coefficients(*triple)
            p = cal.ModelParams(*triple, dx=grid.dx, dt=1e-4, source_R=R)
            want = [_reference_march(list(starts), co, co.source * 1e-4 * R,
                                     boundary, n_steps - 2)
                    for starts in sets]
            for starts, expected in zip(sets, want):
                (final,) = scheme._march(
                    [([p], grid, lambda x, t: starts[round(t / 1e-4)],
                      n_steps * 1e-4)], boundary)
                assert final[0].tobytes() == expected.tobytes()
            rows = [np.array(level) for level in zip(*sets)]
            (final,) = scheme._march(
                [([p] * len(sets), grid, lambda x, t: rows[round(t / 1e-4)],
                  n_steps * 1e-4)], boundary)
            assert final.tobytes() == np.array(want).tobytes()


def test_step_keeps_the_sign_of_zero_bit_for_bit():
    # `step` returns its level, so it adds a zero term back to the nodes it
    # wrote, for real and complex levels alike.
    rng = np.random.default_rng(47)
    for triple, R, boundary, n, dtype in itertools.product(
            _TRIPLES, _ZERO_SOURCES, _SIGNED_ENDS, (2, 3, 17),
            (np.float64, np.complex128)):
        levels = [rng.choice(_SIGNED, n, p=_SIGNED_P).astype(dtype)
                  for _ in range(3)]
        if dtype is np.complex128:
            levels = [lv + 1j * rng.choice(_SIGNED, n, p=_SIGNED_P)
                      for lv in levels]
        co = coefficients(*triple)
        new = step(PhiHistory.from_levels(*levels), co, 1e-4, R, boundary)
        expected = _reference_step(levels[2], levels[1], levels[0], co,
                                   co.source * 1e-4 * R, boundary)
        assert new.tobytes() == expected.tobytes()


def _record_pass_calls(monkeypatch) -> list:
    # The ufunc-call count of each pass planned from now on, by the march,
    # `step` and the equivalence check, in plan order: one per phase of a
    # row of one pass, so four per stage of a march.  A Dirichlet phase
    # also makes its `put`, which is not a ufunc.
    counts = []
    pass_calls = scheme._pass_calls

    def recording_pass_calls(*args):
        calls = pass_calls(*args)
        counts.append(sum(isinstance(fn, np.ufunc) for fn, _ in calls))
        return calls

    monkeypatch.setattr(scheme, "_pass_calls", recording_pass_calls)
    return counts


def _per_stage(*counts) -> list:
    # The pass counts of marches of one-pass rows whose stages make the
    # given counts, four phases each.
    return [n for n in counts for _ in range(4)]


def test_a_pass_adds_the_source_term_only_when_a_row_has_one(monkeypatch):
    # A pass plans ten ufunc calls when every active row's source term is
    # +-0.0 and eleven when one is not.
    counts = _record_pass_calls(monkeypatch)
    grid = Grid1D(10)
    init = lambda x, t: np.sin(np.pi * x)
    for (R, n_calls), boundary in itertools.product(
            ((0.0, 10), (-0.0, 10), (1e-320, 10), (0.5, 11)),
            _SIGNED_ENDS[1:]):
        counts.clear()
        p = cal.ModelParams(*_TRIPLES[0], dx=grid.dx, dt=1e-4, source_R=R)
        run(p, grid, init, boundary, 6e-4)
        step(PhiHistory.from_levels(*[np.ones(5)] * 3),
             coefficients(*_TRIPLES[0]), 1e-4, R, boundary)
        assert counts == _per_stage(n_calls) + [n_calls]
    # A stage plans eleven while a row of 0.5 marches, and ten after it.
    counts.clear()
    zero, half = ([cal.ModelParams(*_TRIPLES[1], dx=grid.dx, dt=1e-4,
                                   source_R=R)] for R in (0.0, 0.5))
    scheme._march([(zero, grid, init, 9e-4), (half, grid, init, 5e-4)],
                  _SIGNED_ENDS[1])
    assert counts == _per_stage(11, 10)


def test_a_march_leaves_out_the_history_weights_that_are_zero(monkeypatch):
    # At the tables' second-order triple (s1 = s2 = 1) side_nm1, center_nm1
    # and center_nm2 are +-0.0, so a march's pass makes four ufunc calls,
    # and at the fourth-order ones (s1 = 1) center_nm1 and center_nm2 are,
    # so it makes six; the sixth-order triple keeps all ten.  `step` and
    # the equivalence check keep all ten at every triple.
    counts = _record_pass_calls(monkeypatch)
    grid = Grid1D(10)
    init = lambda x, t: np.sin(np.pi * x)
    boundary = BoundarySpec.dirichlet(0.0, 0.0)
    sixth = cal.calibrate_sixth(0.1)
    second, sixth = (0.8, 1.0, 1.0), (sixth.omega0, sixth.s1, sixth.s2)
    for triple, n_calls in ((second, 4), (_FOURTH[0], 6), (_FOURTH[1], 6),
                            (sixth, 10)):
        counts.clear()
        p = cal.ModelParams(*triple, dx=grid.dx, dt=1e-4)
        run(p, grid, init, boundary, 6e-4)
        step(PhiHistory.from_levels(*[np.ones(5)] * 3),
             coefficients(*triple), 1e-4, 0.0, boundary)
        lbm.fd_equivalence_deviation(8, 3, *triple, seed=1)
        assert counts == _per_stage(n_calls) + [10, 10]
    # A stage leaves a weight out only when it is zero in every row: ten
    # while a sixth-order row marches, then four, or six beside a
    # fourth-order row.
    counts.clear()
    p2, p4, p6 = (cal.ModelParams(*t, dx=grid.dx, dt=1e-4)
                  for t in (second, _FOURTH[1], sixth))
    scheme._march([([p2, p6], grid, init, 6e-4)], boundary)
    scheme._march([([p2], grid, init, 9e-4), ([p6], grid, init, 5e-4)],
                  boundary)
    scheme._march([([p2], grid, init, 9e-4), ([p4], grid, init, 7e-4)],
                  boundary)
    assert counts == _per_stage(10, 10, 4, 6, 4)
    # A group with a zero history weight skips only from finite start
    # levels: a stage that holds one with a NaN keeps all ten, and the
    # stage after it has ended skips again.  A field of compact support
    # skips, as its zeros differ from the full plan's only in sign, which
    # the read-out's add of +0.0 settles; a -0.0 source term would keep
    # that sign, so a group with one keeps all ten.
    counts.clear()
    nan_start = lambda x, t: np.where((x == x[3]) & (t == 0.0), np.nan, 1.0)
    scheme._march([([p2], grid, nan_start, 6e-4), ([p2], grid, init, 9e-4)],
                  boundary)
    bump = lambda x, t: 1.0 * (np.abs(x - 0.5) < 0.15)
    scheme._march([([p2], grid, bump, 3e-4)], boundary)
    p2_minus = dataclasses.replace(p2, source_R=-0.0)
    scheme._march([([p2_minus], grid, bump, 3e-4)], boundary)
    assert counts == _per_stage(10, 4, 4, 10)


def test_a_skipping_march_keeps_the_bits_of_the_reference_march():
    # Groups of one to three second- and fourth-order rows, whose zero
    # history weights a march leaves out, from starts of signed zeros,
    # subnormals and a few plain values, half of them zero on one half of
    # the row (compact support), under +-0.0, +-1e-320 (a zero term of
    # either sign) and nonzero sources, three pairs of ends and 2 to 11
    # steps: every row gets the reference march's bits.
    rng = np.random.default_rng(61)
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.3,
                       -0.7, 1.0])
    triples = ((0.8, 1.0, 1.0), (0.2, 1.0, 1.0), *_FOURTH)
    sources = (0.0, -0.0, 1e-320, -1e-320, 0.5, -0.3)
    ends = (*_SIGNED_ENDS, BoundarySpec.dirichlet(0.25, -1.5))
    for case in range(600):
        n_rows = int(rng.integers(1, 4))
        grid = Grid1D(int(rng.integers(4, 13)))
        rows = [(triples[rng.integers(4)], sources[rng.integers(6)])
                for _ in range(n_rows)]
        starts = [rng.choice(values, (n_rows, grid.n_intervals + 1))
                  for _ in range(3)]
        if case % 2:
            for level in starts:
                level[:, grid.n_intervals // 2:] *= 0.0
        n_steps = int(rng.integers(2, 12))
        boundary = ends[case % 3]
        params = [cal.ModelParams(*t, dx=grid.dx, dt=1e-4, source_R=r)
                  for t, r in rows]
        (final,) = scheme._march([(params, grid,
                                   lambda x, t: starts[round(t / 1e-4)],
                                   n_steps * 1e-4)], boundary)
        for i, (t, r) in enumerate(rows):
            co = coefficients(*t)
            want = _reference_march([level[i] for level in starts], co,
                                    co.source * 1e-4 * r, boundary,
                                    n_steps - 2)
            assert final[i].tobytes() == want.tobytes()


def test_an_overflowing_source_term_is_refused():
    # A finite dt and R can still overflow source*dt*R to inf, which would
    # fill the interior with inf; run, step and the check refuse it alike.
    params = cal.ModelParams(0.5, 1.5, 0.5, dx=0.1, dt=1e10, source_R=1e308)
    with pytest.raises(DomainError, match="source term"):
        run(params, Grid1D(10), lambda x, t: 0 * x,
            BoundarySpec.dirichlet(0.0, 0.0), 3e10)
    z = np.zeros(6)
    history = PhiHistory.from_levels(z, z, z)
    with pytest.raises(DomainError, match="source term"):
        step(history, coefficients(0.8, 1.0, 1.0), 1e300, 1e300,
             BoundarySpec.dirichlet(0.0, 0.0))
    assert history.current is z


def _staged_march_groups() -> list:
    # The groups of `_STAGED_GROUPS` as arguments of the march.
    return [([cal.ModelParams(*t, dx=1.0 / n, dt=dt, source_R=r)
              for t, r in rows], Grid1D(n),
             lambda x, t, g=g: (-0.5) ** g * _sine_bump(x, t), t_end)
            for g, (n, dt, t_end, rows) in enumerate(_STAGED_GROUPS)]


def _by_worker_count(monkeypatch, march, counts=(1, 2, 3)) -> list:
    # The result of `march()` when `_cpus` reports each count of CPUs.  A
    # march that hangs ends the test run, with every thread's traceback,
    # after a minute.
    results = []
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        for n_cpus in counts:
            monkeypatch.setattr(scheme, "_cpus", lambda: n_cpus)
            results.append(march())
    finally:
        faulthandler.cancel_dump_traceback_later()
    return results


def test_the_bits_do_not_depend_on_the_worker_count(monkeypatch):
    # A row of 2**16 intervals is two passes at the default `_CHUNK`.  The
    # staged groups at `_CHUNK` 3 and 8 put row ends and group seams inside
    # every worker's run, and stages end after each phase.  A fourth-order
    # row of starts near 1.7e308 leaves out its zero history weights,
    # overflows to non-finite values and is marched again, threaded, on the
    # full plan.
    boundary = BoundarySpec.dirichlet(0.25, -1.5)
    sixth = cal.calibrate_sixth(0.1)
    wide = Grid1D(2 ** 16)
    p = cal.ModelParams(sixth.omega0, sixth.s1, sixth.s2, dx=wide.dx,
                        dt=30.0 * wide.dx ** 2)
    sine = lambda x, t: np.sin(np.pi * x)
    one, two, three = _by_worker_count(monkeypatch, lambda: run(
        p, wide, sine, boundary, 5 * p.dt).tobytes())
    assert one == two == three
    groups = _staged_march_groups()
    for chunk in (3, 8):
        monkeypatch.setattr(scheme, "_CHUNK", chunk)
        one, two, three = _by_worker_count(monkeypatch, lambda: [
            final.tobytes() for final in scheme._march(groups, boundary)])
        assert one == two == three
    # `_CHUNK` is still 8, so a row of 64 intervals is eight passes.
    grid = Grid1D(64)
    p = cal.ModelParams(*_FOURTH[1], dx=grid.dx, dt=1e-4)
    starts = _edge_starts(np.random.default_rng(59), 65)[3]
    marches, workers = [], []
    march, advance = scheme._march, scheme._advance
    monkeypatch.setattr(scheme, "_march", lambda *args: marches.append(
        args[-1]) or march(*args))
    monkeypatch.setattr(scheme, "_advance", lambda runs, n: workers.append(
        len(runs)) or advance(runs, n))
    with np.errstate(all="ignore"):
        one, two, three = _by_worker_count(monkeypatch, lambda: run(
            p, grid, lambda x, t: starts[round(t / 1e-4)], boundary,
            6e-4).tobytes())
    assert one == two == three
    assert not np.isfinite(np.frombuffer(one)).all()
    assert marches == [boundary, False] * 3
    assert workers == [1, 1, 2, 2, 3, 3]


def test_each_worker_pins_its_run_once_per_phase(monkeypatch):
    # `_march` hands `_advance` one list of calls per worker and phase:
    # those of the worker's passes, then one `put` of the end nodes among
    # its nodes.  The staged groups at `_CHUNK` 3 and 8 make stages of one
    # pass and of many, which two and three workers split.
    plans = []
    advance = scheme._advance
    monkeypatch.setattr(scheme, "_advance", lambda runs, n: plans.append(
        runs) or advance(runs, n))
    groups = _staged_march_groups()
    boundary = BoundarySpec.dirichlet(0.25, -1.5)
    for chunk in (3, 8):
        monkeypatch.setattr(scheme, "_CHUNK", chunk)
        _by_worker_count(monkeypatch, lambda: scheme._march(groups,
                                                            boundary))
    assert {len(runs) for runs in plans} == {1, 2, 3}
    for runs in plans:
        for phases in runs:
            assert len(phases) == 4
            for calls in phases:
                puts = [getattr(fn, "__name__", None) == "put"
                        for fn, _ in calls]
                assert puts == [False] * (len(calls) - 1) + [True]


def test_more_workers_than_cpus_keep_the_bits_under_fast_switching(
        monkeypatch):
    # Five workers, each a run of 2-node passes, on fewer cores, with the
    # interpreter switching threads every microsecond: a level read before
    # its neighbours have written it, or a node written by two workers,
    # would change the bits of the staged groups.
    monkeypatch.setattr(scheme, "_CHUNK", 2)
    boundary = BoundarySpec.dirichlet(0.25, -1.5)
    groups = _staged_march_groups()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        one, five = _by_worker_count(monkeypatch, lambda: [
            final.tobytes() for final in scheme._march(groups, boundary)],
            (1, 5))
    finally:
        sys.setswitchinterval(interval)
    assert one == five


def test_a_threaded_march_raises_or_stays_quiet_as_one_thread_does(
        monkeypatch):
    # At 2**16 intervals a level is two passes.  The third start level is
    # near 1.7e308 in the second pass only, so the first pair sum overflows
    # in the second worker's run, which must raise FloatingPointError under
    # over="raise" as one thread does, and must let no warning out under
    # all="ignore" (the suite makes a warning an error).  With +inf and
    # -inf two nodes apart in the first pass as well, the first worker's
    # invalid sum is raised under all="raise", as one thread raises it
    # first.  None may hang or leave a thread running.
    grid = Grid1D(2 ** 16)
    p = cal.ModelParams(*_TRIPLES[0], dx=grid.dx, dt=1e-4)
    huge = lambda x, t: np.where((x > 0.75) & (t > 1.5e-4), 1.7e308, 1.0)
    boundary = BoundarySpec.dirichlet(0.0, 0.0)
    threads = threading.active_count()

    def raising(errors: str, start, message: str):
        def march():
            with pytest.raises(FloatingPointError, match=message), \
                    np.errstate(**{errors: "raise"}):
                run(p, grid, start, boundary, 6e-4)
            return threading.active_count()
        return march

    def both(x, t):
        level = huge(x, t)
        if t > 1.5e-4:
            level[[100, 102]] = np.inf, -np.inf
        return level

    assert _by_worker_count(monkeypatch, raising(
        "over", huge, "overflow")) == [threads] * 3
    assert _by_worker_count(monkeypatch, raising(
        "all", both, "invalid")) == [threads] * 3

    def quiet():
        with np.errstate(all="ignore"):
            return run(p, grid, huge, boundary, 6e-4).tobytes()

    one, two, three = _by_worker_count(monkeypatch, quiet)
    assert one == two == three
    assert threading.active_count() == threads


def test_only_a_march_of_long_rows_starts_threads(monkeypatch, capsys):
    # Every default table, `step`, the equivalence check and every CLI
    # subcommand at its defaults march rows of one pass per level on the
    # caller's thread; a run of 2**16 intervals, two passes, starts one
    # thread less than it has workers.  Every thread has ended on return.
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(self) or start(self))

    def started(call) -> int:
        threads, starts[:] = threading.active_count(), []
        call()
        assert threading.active_count() == threads
        return len(starts)

    for order in cal.ORDERS:
        assert started(lambda: ver.reproduce_table(order)) == 0
    levels = [np.linspace(0.0, 1.0, 41)] * 3
    assert started(lambda: step(PhiHistory.from_levels(*levels),
                                coefficients(*_TRIPLES[0]), 1e-4, 0.0,
                                BoundarySpec.dirichlet(0.0, 0.0))) == 0
    assert started(lambda: lbm.fd_equivalence_deviation(
        2 ** 14, 400, *_TRIPLES[0], seed=1)) == 0
    triple = ["--omega0", "0.83", "--s1", "0.92", "--s2", "1.15"]
    for argv in (["calibrate", "--epsilon", "0.1", "--order", "6"],
                 ["run", "--epsilon", "0.1"], ["convergence", "--order", "6"],
                 ["stability", *triple], ["equivalence", *triple],
                 ["sweep", "--eps-min", "0.05", "--eps-max", "0.2",
                  "--n-points", "4"], ["profile"]):
        assert started(lambda: cli.main(argv)) == 0
    capsys.readouterr()
    grid = Grid1D(2 ** 16)
    p = cal.ModelParams(*_TRIPLES[0], dx=grid.dx, dt=1e-4)
    assert started(lambda: run(p, grid, _sine_bump,
                               BoundarySpec.dirichlet(0.0, 0.0), 5e-4)) == \
        min(scheme._cpus(), 2) - 1
