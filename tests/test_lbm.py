"""Tests for the mesoscopic three-velocity model."""

import itertools
import os
import signal
import threading
import types

import numpy as np
import pytest

from lbmfd import lbm
from lbmfd.calibration import ModelParams
from lbmfd.errors import DomainError
from lbmfd.scheme import coefficients


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
    new = lbm.evolve(f, params)
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
        f = lbm.evolve(f, params)
    total = float(np.sum(lbm.macro_phi(f, params)))
    np.testing.assert_allclose(total, total0, rtol=1e-13)


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
    # So does a check whose windows of three levels alternate with wrap
    # phases.
    with np.errstate(over="ignore", invalid="ignore"):
        dev, max_phi = lbm.fd_equivalence_deviation(9000, 20, 0.5, 1.5, 0.5,
                                                    seed=1, source_R=1e308)
    assert np.isnan(dev)
    assert not dev <= 1e-12 * max_phi
    # And so does a check whose prediction runs in a forked child.
    with pytest.MonkeyPatch.context() as patch:
        forks = _counting_forks(patch)
        patch.setattr(lbm, "_cpus", lambda: 2)
        patch.setattr(lbm, "_FORK_NODE_STEPS", 0)
        with np.errstate(over="ignore", invalid="ignore"):
            dev, max_phi = lbm.fd_equivalence_deviation(
                2 ** 14, 20, 0.5, 1.5, 0.5, seed=1, source_R=1e308)
    assert len(forks) == 1
    assert np.isnan(dev)
    assert not dev <= 1e-12 * max_phi
    # A term source*dt*R that overflows is refused before the march.
    with pytest.raises(DomainError, match="source term"):
        lbm.fd_equivalence_deviation(16, 20, 0.5, 1.9, 1.9, seed=1,
                                     source_R=1.7e308)


def test_an_overflowing_source_term_is_refused():
    # dt*R = 1e318 overflows, and dt*R = 2e308 does while dt*R/2 does not;
    # each entry point refuses both rather than return inf or NaN.
    zeros = np.zeros(4)
    f = lbm.DistributionField(zeros, zeros, zeros)
    for dt, R in ((1e10, 1e308), (2.0, 1e308)):
        params = ModelParams(0.5, 1.5, 0.5, dx=1.0, dt=dt, source_R=R)
        for call in (lambda: lbm.initialize(zeros, params),
                     lambda: lbm.macro_phi(f, params),
                     lambda: lbm.evolve(f, params)):
            with pytest.raises(DomainError, match="source term"):
                call()


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


def _roll_step(cur, prev, old, co, src):
    # The periodic four-level update as one whole-array expression, with
    # np.roll for the wrap; it shares no code with the kernel of `scheme`.
    return (co.side_n * (np.roll(cur, 1) + np.roll(cur, -1))
            + co.center_n * cur
            + co.side_nm1 * (np.roll(prev, 1) + np.roll(prev, -1))
            + co.center_nm1 * prev
            + co.center_nm2 * old
            + src)


def _stored_trajectory_deviation(n_nodes, steps, omega0, s1, s2, seed,
                                 source_R):
    # The equivalence check with every level kept: `_roll_evolve` walks the
    # trajectory and `_roll_step` predicts each level from the three before.
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
        predicted = _roll_step(trace[n], trace[n - 1], trace[n - 2], coeffs,
                               coeffs.source * params.dt * params.source_R)
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
                new = lbm.evolve(f, params)
                assert [p.tobytes() for p in _pops(f)] == before
                want = _roll_evolve(f, params)
                assert ([p.tobytes() for p in _pops(new)]
                        == [p.tobytes() for p in _pops(want)])
                f = new


def test_evolve_keeps_the_sign_of_zero_bit_for_bit():
    # `evolve` returns its populations, so it keeps its zero source adds,
    # which turn a -0.0 sum into +0.0 at R = +0.0 and leave it at -0.0.
    rng = np.random.default_rng(18)
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 0.3])
    for n_nodes, source_R in ((1, 0.0), (2, -0.0), (17, 0.0), (17, -0.0)):
        params = _random_params(rng, source_R=source_R)
        f = lbm.DistributionField(*(rng.choice(values, n_nodes,
                                               p=[0.15, 0.55, 0.1, 0.1, 0.1])
                                    for _ in range(3)))
        for _ in range(10):
            new = lbm.evolve(f, params)
            want = _roll_evolve(f, params)
            assert ([p.tobytes() for p in _pops(new)]
                    == [p.tobytes() for p in _pops(want)])
            f = new


def test_the_check_adds_only_nonzero_source_terms(monkeypatch):
    # The check's maxima cannot see the sign of zero, so its collision gets
    # None for each +-0.0 source term and adds only the others.
    sources = []
    collider = lbm._collider

    def recording_collider(*args):
        collide = collider(*args)
        skipped = tuple(term is None for term in args[3][5:])

        def recording_collide(phi):
            sources.append(skipped)
            collide(phi)

        return recording_collide

    monkeypatch.setattr(lbm, "_collider", recording_collider)
    for source_R, skipped in ((0.0, True), (-0.0, True), (0.5, False)):
        sources.clear()
        lbm.fd_equivalence_deviation(8, 3, 0.6, 1.4, 0.7, 1, source_R)
        assert sources == [(skipped,) * 3] * 4


def test_the_check_writes_each_array_from_a_cache_line(monkeypatch):
    # The first node that the check's collision writes of each of its
    # arrays starts a 64-byte line: node 0 of most, and node 1 of f_plus,
    # whose first store is the streamed f_plus[1:] = tmp[:-1] + pull[:-1].
    outs, arrays = [], []
    collider = lbm._collider

    class Recording:
        def __init__(self, ufunc):
            self._ufunc = ufunc

        def __call__(self, *args):
            outs.append(args[-1])
            return self._ufunc(*args)

    def recording_collider(*args):
        with monkeypatch.context() as patch:
            patch.setattr(lbm, "np", types.SimpleNamespace(**{
                name: Recording(getattr(np, name))
                for name in ("add", "subtract", "multiply")}))
            collide = collider(*args)
        arrays.extend(args[:3] + args[4:])

        def recording_collide(phi):
            arrays.append(phi)
            collide(phi)

        return recording_collide

    monkeypatch.setattr(lbm, "_collider", recording_collider)
    for n_nodes, source_R in itertools.product((8, 13, 2 ** 14 + 3),
                                               (0.0, 0.5)):
        outs.clear()
        arrays.clear()
        lbm.fd_equivalence_deviation(n_nodes, 6, 0.6, 1.4, 0.7, 1, source_R)
        assert len(arrays) == 6 + 7
        for array in arrays:
            first = next(out for out in outs if np.shares_memory(out, array))
            assert first.ctypes.data % 64 == 0


def _check_calls(monkeypatch, n_nodes, steps):
    # The numpy calls of one check in one process, as a recording proxy
    # counts them: those made through the `np` of `lbm` and those of the
    # plans that it builds, but not the item assignments of the ghost
    # copies.  One CPU keeps a long row's prediction out of a forked child,
    # whose calls the proxy would not see.
    count = [0]

    class Counting:
        def __init__(self, target):
            self._target = target

        def __call__(self, *args, **kwargs):
            count[0] += 1
            return self._target(*args, **kwargs)

        def __getattr__(self, name):
            attr = getattr(self._target, name)
            return (Counting(attr) if callable(attr)
                    and not isinstance(attr, type) else attr)

    plan = lbm._plan

    def counting_plan(*args):
        return [[[(Counting(fn), fn_args) for fn, fn_args in calls]
                 for calls in phases] for phases in plan(*args)]

    with monkeypatch.context() as patch:
        patch.setattr(lbm, "np", Counting(np))
        patch.setattr(lbm, "_plan", counting_plan)
        patch.setattr(lbm, "_cpus", lambda: 1)
        lbm.fd_equivalence_deviation(n_nodes, steps, 0.7, 1.2, 0.9, seed=1)
    return count[0]


def test_the_check_predicts_a_window_of_levels_per_pass(monkeypatch):
    # Calls per level, as the difference of two step counts.  With one-level
    # windows (2**14 nodes) each level makes the collision's 16 calls, the
    # prediction's 10 and its put, the gap's subtract and two reductions,
    # and every fourth level two reductions of |phi|: 30.5, as when every
    # level was predicted alone.
    def per_level(n_nodes, fewer, more):
        return (_check_calls(monkeypatch, n_nodes, more)
                - _check_calls(monkeypatch, n_nodes, fewer)) / (more - fewer)

    assert per_level(2 ** 14, 7, 11) == 30.5
    # At 64 nodes the whole trajectory is one window, so a level makes only
    # the collision's calls, and the check, set-up and all, under 16.2.
    assert per_level(64, 100, 200) == 16
    assert _check_calls(monkeypatch, 64, 200) < 16.2 * 201


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
    # Every shape of window: one level (2**14 nodes and up); five, four,
    # three and two levels with wrap phases, the last cut to three levels
    # (6000 x 29) or to one (12000 x 28), or ending on a wrap phase (8000 x
    # 30, 9000 x 31); and one window of the whole trajectory (64 x 200).
    # Zeroed padding keeps every flat pass finite.
    windows = [(16384, 11), (16387, 11), (6000, 29), (8000, 30), (9000, 31),
               (12000, 28), (64, 200)]
    with np.errstate(invalid="raise", over="raise"):
        for (n_nodes, steps), source_R in itertools.product(
                windows, (0.0, 0.3, -1.7)):
            triple = (rng.uniform(0.05, 0.95), rng.uniform(0.1, 1.9),
                      rng.uniform(0.1, 1.9))
            args = (n_nodes, steps, *triple, 4, source_R)
            assert lbm.fd_equivalence_deviation(*args) == \
                _stored_trajectory_deviation(*args)
    # Long rows whose prediction runs in a forked child on two CPUs, and in
    # this process on one CPU or with no `os.fork`, with no floor on the
    # node-steps that fork.  9 and 11 steps take the forked check's ring of
    # eight rows into its second round, so its collision waits for freed
    # rows.
    long_rows = [(16384, 11), (16387, 11), (2 ** 15 + 5, 9)]
    with np.errstate(invalid="raise", over="raise"):
        for (n_nodes, steps), source_R in itertools.product(
                long_rows, (0.0, -0.0, 0.3, -1.7)):
            triple = (rng.uniform(0.05, 0.95), rng.uniform(0.1, 1.9),
                      rng.uniform(0.1, 1.9))
            args = (n_nodes, steps, *triple, 4, source_R)
            want = _stored_trajectory_deviation(*args)
            for cpus, has_fork in ((1, True), (2, True), (2, False)):
                with pytest.MonkeyPatch.context() as patch:
                    forks = _counting_forks(patch)
                    patch.setattr(lbm, "_cpus", lambda: cpus)
                    patch.setattr(lbm, "_FORK_NODE_STEPS", 0)
                    if not has_fork:
                        patch.delattr(os, "fork")
                    assert lbm.fd_equivalence_deviation(*args) == want
                assert len(forks) == (cpus == 2 and has_fork)


def _counting_forks(patch):
    # The pids of the processes that call `os.fork`, which `patch` wraps.
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    patch.setattr(os, "fork", counting_fork)
    return forks


def test_the_check_forks_only_for_long_rows_on_two_cpus(monkeypatch):
    # The CLI's default 64 x 200, `analysis`'s path, and 9000 x 31 batch
    # their levels, and 2**14 x 11 is short of 2**21 node-steps; a long
    # row of 2**21 node-steps forks only on two CPUs with no other thread
    # and SIGCHLD not ignored.
    from lbmfd import cli

    forks = _counting_forks(monkeypatch)
    monkeypatch.setattr(lbm, "_cpus", lambda: 2)
    assert cli.main(["equivalence", "--omega0", "0.5", "--s1", "1.5",
                     "--s2", "0.5", "--output", os.devnull]) == 0
    lbm.fd_equivalence_deviation(9000, 31, 0.7, 1.2, 0.9, seed=1)
    lbm.fd_equivalence_deviation(2 ** 14, 11, 0.7, 1.2, 0.9, seed=1)
    assert forks == []
    lbm.fd_equivalence_deviation(2 ** 14, 128, 0.7, 1.2, 0.9, seed=1)
    assert forks == [os.getpid()]
    forks.clear()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10.0,))
    waiter.start()
    try:
        lbm.fd_equivalence_deviation(2 ** 14, 128, 0.7, 1.2, 0.9, seed=1)
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    # A caller that ignores SIGCHLD could not wait for a child.
    ignored = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        lbm.fd_equivalence_deviation(2 ** 14, 128, 0.7, 1.2, 0.9, seed=1)
    finally:
        signal.signal(signal.SIGCHLD, ignored)
    monkeypatch.setattr(lbm, "_cpus", lambda: 1)
    lbm.fd_equivalence_deviation(2 ** 14, 128, 0.7, 1.2, 0.9, seed=1)
    assert forks == []


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child_left(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _both_paths(monkeypatch, call):
    # call() with the prediction in a forked child and in this process,
    # each as (result or exception, floating-point callbacks, forks), with
    # no floor on the node-steps that fork.
    outcomes = []
    for cpus in (2, 1):
        calls = []
        with monkeypatch.context() as patch:
            forks = _counting_forks(patch)
            patch.setattr(lbm, "_cpus", lambda: cpus)
            patch.setattr(lbm, "_FORK_NODE_STEPS", 0)
            fds = _open_fds()
            with np.errstate(call=lambda kind, flag: calls.append(
                    (kind, os.getpid()))):
                try:
                    result = call()
                except Exception as exc:
                    result = (type(exc), str(exc))
            _assert_no_child_left(fds)
        outcomes.append((result, calls, len(forks)))
    return outcomes


def test_a_floating_point_event_reruns_the_check_in_this_process(
        monkeypatch):
    # The source overflows the populations of a long row.  Under the
    # caller's settings a forked check gives what the one-process check
    # gives: the same exception, the same warning as an error, or the same
    # callbacks, all in this process, and the same NaN.
    def overflowing():
        return lbm.fd_equivalence_deviation(2 ** 14, 11, 0.5, 1.5, 0.5,
                                            seed=1, source_R=1e308)

    def under(**settings):
        def call():
            with np.errstate(**settings):
                return overflowing()
        return call

    for settings, want in (({"over": "raise"}, FloatingPointError),
                           ({}, RuntimeWarning)):
        forked, alone = _both_paths(monkeypatch, under(**settings))
        assert forked[0][0] is want
        assert forked == alone[:2] + (1,)
    forked, alone = _both_paths(monkeypatch, under(all="call"))
    assert np.isnan(forked[0][0])
    assert forked[1] and {pid for _, pid in forked[1]} == {os.getpid()}
    # NaN != NaN, so the outcomes are compared by their reprs.
    assert repr(forked) == repr(alone[:2] + (1,))
    # An event in the child alone: no callback runs there, and the check
    # runs again in this process, so `_deviation` runs here on both paths.
    parent = os.getpid()
    deviation = lbm._deviation
    here = []

    def deviation_with_an_event_in_the_child(*args):
        if os.getpid() == parent:
            here.append(args[2])
        else:
            np.multiply(np.float64(1e308), 10.0)
        return deviation(*args)

    def check():
        with np.errstate(over="call"):
            return lbm.fd_equivalence_deviation(2 ** 14, 11, 0.7, 1.2, 0.9,
                                                seed=1)

    monkeypatch.setattr(lbm, "_deviation",
                        deviation_with_an_event_in_the_child)
    forked, alone = _both_paths(monkeypatch, check)
    assert forked == alone[:2] + (1,)
    assert forked[1] == [] and here == [2 ** 14] * 2


def test_a_failed_child_or_producer_leaves_no_process(monkeypatch):
    args = (2 ** 14, 11, 0.7, 1.2, 0.9, 1, 0.3)
    want = _stored_trajectory_deviation(*args)
    monkeypatch.setattr(lbm, "_cpus", lambda: 2)
    monkeypatch.setattr(lbm, "_FORK_NODE_STEPS", 0)
    forks = _counting_forks(monkeypatch)
    fds = _open_fds()
    assert lbm.fd_equivalence_deviation(*args) == want
    _assert_no_child_left(fds)
    # A child that fails: the check runs again in this process.
    parent = os.getpid()
    plan = lbm._plan

    def plan_in_the_parent(*plan_args):
        if os.getpid() != parent:
            raise RuntimeError("the child fails")
        return plan(*plan_args)

    with monkeypatch.context() as patch:
        patch.setattr(lbm, "_plan", plan_in_the_parent)
        assert lbm.fd_equivalence_deviation(*args) == want
    _assert_no_child_left(fds)
    # A producer that raises at level k: the error, and no child.
    collider = lbm._collider
    for k in (0, 5, 9, 11):
        def failing_collider(*collider_args):
            collide = collider(*collider_args)
            levels = itertools.count()

            def failing_collide(phi):
                if next(levels) == k:
                    raise RuntimeError(f"level {k}")
                collide(phi)

            return failing_collide

        with monkeypatch.context() as patch:
            patch.setattr(lbm, "_collider", failing_collider)
            with pytest.raises(RuntimeError, match=f"level {k}"):
                lbm.fd_equivalence_deviation(*args)
        _assert_no_child_left(fds)
    assert len(forks) == 6


def test_matrix_form_matches_the_substituted_form():
    rng = np.random.default_rng(8)
    for _ in range(5):
        params = _random_params(rng, source_R=rng.uniform(-1.0, 1.0))
        phi0 = rng.random(16)
        fa = lbm.initialize(phi0, params)
        fb = fa
        for _ in range(10):
            fa = lbm.evolve(fa, params)
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
