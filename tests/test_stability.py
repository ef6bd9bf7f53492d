"""Tests for the amplification matrices and the stability criteria."""

import dataclasses
import itertools

import numpy as np
import pytest

from lbmfd import stability as stab
from lbmfd.errors import DomainError
from lbmfd.scheme import coefficients

REFERENCE_TRIPLE = (0.8310204592587027, 0.9159290534201945,
                    1.1450386147380731)


def _rand_triple(rng):
    return (rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.99),
            rng.uniform(0.01, 1.99))


def _multiset_gap(a, b):
    # Smallest max pairing error over all assignments of three roots.
    best = np.inf
    for perm in itertools.permutations(range(3)):
        gap = max(abs(a[i] - b[p]) for i, p in enumerate(perm))
        best = min(best, gap)
    return best


def test_char_poly_degenerates_at_unit_rates():
    p = stab.char_poly(0.8, 1.0, 1.0, 0.0)
    np.testing.assert_allclose((p.p0, p.p1, p.p2), (0.0, 0.0, -1.0),
                               atol=1e-15)
    roots = np.sort_complex(stab.cubic_roots(p))
    np.testing.assert_allclose(roots, [0.0, 0.0, 1.0], atol=1e-12)


def test_char_poly_matches_the_classical_mode_factor():
    # At unit rates the only moving root is the classical two-level factor
    # 1 - 2*epsilon*(1 - cos(theta)) with epsilon = (1 - omega0)/2.
    for omega0 in (0.6, 0.8):
        eps = (1.0 - omega0) / 2.0
        for theta in (np.pi, 2.0, 0.5):
            p = stab.char_poly(omega0, 1.0, 1.0, theta)
            roots = stab.cubic_roots(p)
            classical = 1.0 - 2.0 * eps * (1.0 - np.cos(theta))
            assert min(abs(roots - classical)) < 1e-12


def test_char_poly_validation():
    with pytest.raises(DomainError):
        stab.char_poly(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        stab.char_poly(0.8, 2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        stab.char_poly(0.8, 1.0, 1.0, 4.0)


def test_population_matrix_has_the_characteristic_cubic():
    rng = np.random.default_rng(21)
    for _ in range(100):
        omega0, s1, s2 = _rand_triple(rng)
        theta = rng.uniform(-np.pi, np.pi)
        G = stab.population_amplification(omega0, s1, s2, theta)
        p = stab.char_poly(omega0, s1, s2, theta)
        np.testing.assert_allclose(np.poly(G), [1.0, p.p2, p.p1, p.p0],
                                   atol=1e-12)
        gap = _multiset_gap(np.linalg.eigvals(G), stab.cubic_roots(p))
        assert gap < 1e-12


def test_population_matrix_conserves_at_zero_wavenumber():
    rng = np.random.default_rng(33)
    for _ in range(20):
        omega0, s1, s2 = _rand_triple(rng)
        G = stab.population_amplification(omega0, s1, s2, 0.0)
        np.testing.assert_allclose(G.sum(axis=0), np.ones(3), atol=1e-14)
        np.testing.assert_allclose(np.ones(3) @ G, np.ones(3), atol=1e-14)
        assert min(abs(np.linalg.eigvals(G) - 1.0)) < 1e-12


def test_companion_matrix_structure_and_spectrum():
    co = coefficients(0.8, 1.0, 1.0)
    H = stab.companion_amplification(co, 0.0)
    np.testing.assert_allclose(H[1], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(H[2], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(H[0], [1.0, 0.0, 0.0], atol=1e-15)
    roots = np.sort_complex(np.linalg.eigvals(H))
    np.testing.assert_allclose(roots, [0.0, 0.0, 1.0], atol=1e-12)
    rng = np.random.default_rng(41)
    for _ in range(50):
        omega0, s1, s2 = _rand_triple(rng)
        theta = rng.uniform(-np.pi, np.pi)
        H = stab.companion_amplification(coefficients(omega0, s1, s2), theta)
        p = stab.char_poly(omega0, s1, s2, theta)
        gap = _multiset_gap(np.linalg.eigvals(H), stab.cubic_roots(p))
        assert gap < 1e-12


def test_companion_top_row_is_the_negated_char_poly_bit_for_bit():
    # The companion matrix and char_poly come from one cubic of the stencil
    # weights, so they agree in every bit, not just to rounding.
    rng = np.random.default_rng(43)
    for _ in range(200):
        triple = _rand_triple(rng)
        theta = float(rng.uniform(-np.pi, np.pi))
        H = stab.companion_amplification(coefficients(*triple), theta)
        p = stab.char_poly(*triple, theta)
        assert [float(v).hex() for v in H[0]] == [
            float(-v).hex() for v in (p.p2, p.p1, p.p0)]


def test_cubic_roots_examples_and_round_trip():
    p = stab.CharPoly(p0=0.0, p1=0.0, p2=-0.6)
    roots = np.sort_complex(stab.cubic_roots(p))
    np.testing.assert_allclose(roots, [0.0, 0.0, 0.6], atol=1e-14)
    rng = np.random.default_rng(55)
    for _ in range(50):
        want = rng.uniform(-1.0, 1.0, 3)
        p = stab.CharPoly(p0=float(-want[0] * want[1] * want[2]),
                          p1=float(want[0] * want[1] + want[0] * want[2]
                                   + want[1] * want[2]),
                          p2=float(-want.sum()))
        assert _multiset_gap(stab.cubic_roots(p), want) < 1e-10


def test_routh_hurwitz_values_example():
    p = stab.CharPoly(p0=0.0, p1=0.0, p2=-0.6)
    np.testing.assert_allclose(stab.routh_hurwitz_values(p),
                               (1.6, 1.0, 1.0, 0.4, 1.0), atol=1e-15)


def test_fourth_condition_factorizes():
    # The fourth value equals s2*(1 - cos(theta))*(2 - s1)*(1 - omega0),
    # so it vanishes identically at theta = 0 and is positive elsewhere.
    rng = np.random.default_rng(60)
    for _ in range(100):
        omega0, s1, s2 = _rand_triple(rng)
        theta = rng.uniform(-np.pi, np.pi)
        p = stab.char_poly(omega0, s1, s2, theta)
        value = stab.routh_hurwitz_values(p)[3]
        factored = (s2 * (1.0 - np.cos(theta)) * (2.0 - s1)
                    * (1.0 - omega0))
        np.testing.assert_allclose(value, factored, atol=1e-12)
        at_zero = stab.routh_hurwitz_values(
            stab.char_poly(omega0, s1, s2, 0.0))[3]
        assert abs(at_zero) < 1e-14


def test_spectral_radius_scan_reference_triple():
    report = stab.spectral_radius_scan(*REFERENCE_TRIPLE)
    assert report.stable
    assert report.max_spectral_radius <= 1.0 + 1e-10
    assert report.rh_min_margin > 0.0
    assert report.theta_samples == 721


def test_spectral_radius_scan_peaks_at_the_conserved_mode():
    report = stab.spectral_radius_scan(0.8, 1.0, 1.0)
    np.testing.assert_allclose(report.max_spectral_radius, 1.0, atol=1e-12)
    assert abs(report.worst_theta) < 0.02


def test_root_moduli_vary_continuously_in_theta():
    thetas = -np.pi + 2.0 * np.pi * np.arange(721) / 720.0
    radii = []
    for theta in thetas:
        p = stab.char_poly(*REFERENCE_TRIPLE, theta)
        radii.append(float(np.max(np.abs(stab.cubic_roots(p)))))
    radii = np.array(radii)
    assert float(np.max(np.abs(np.diff(radii)))) < 0.01


def test_scan_validation_and_report_payload():
    # Each bound is refused before anything is allocated.
    for n_theta in (63, stab._MAX_THETA_SAMPLES + 1, 100.5, 100.0, "100"):
        with pytest.raises(DomainError):
            stab.spectral_radius_scan(0.8, 1.0, 1.0, n_theta=n_theta)
    with pytest.raises(DomainError):
        stab.spectral_radius_scan(1.2, 1.0, 1.0)
    payload = stab.spectral_radius_scan(0.8, 1.0, 1.0, 64).to_json_dict()
    assert tuple(payload) == ("max_spectral_radius", "worst_theta",
                              "rh_min_margin", "stable", "theta_samples")
    assert payload["theta_samples"] == 65


def _lapack_roots(p0, p1, p2):
    # p0 may be one scalar for all rows, as `_char_coeff_grid` returns it.
    comp = np.zeros((p1.size, 3, 3))
    comp[:, 0] = np.stack(np.broadcast_arrays(-p2, -p1, -p0), axis=1)
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    return np.linalg.eigvals(comp)


def _lapack_radii(p0, p1, p2):
    return np.abs(_lapack_roots(p0, p1, p2)).max(axis=1)


def _certificate(p0, p1, p2):
    # The seed's certificate in `_candidate_rows`: the largest ladder point
    # at which some scaled Routh-Hurwitz value is below -delta, or None.
    return next((a for a in stab._SCREEN_LADDER
                 if min(stab._scaled_rh_values(p0, p1, p2, a))
                 < -stab._SCREEN_DELTA), None)


def _full_grid_reference(omega0, s1, s2, n_theta):
    # The scan without its screen: LAPACK on every theta row.
    thetas = -np.pi + 2.0 * np.pi * np.arange(n_theta + 1) / n_theta
    cos_t = np.cos(thetas)
    p0, p1, p2 = stab._char_coeff_grid(coefficients(omega0, s1, s2), cos_t)
    radii = _lapack_radii(p0, p1, p2)
    worst = int(np.argmax(radii))
    # The margin: the Routh-Hurwitz values at exactly cos(theta) = -1 and 1,
    # less the fourth at 1, which vanishes there identically.
    ends = np.array(np.broadcast_arrays(*stab._rh_value_grid(
        *stab._char_coeff_grid(coefficients(omega0, s1, s2),
                               np.array([-1.0, 1.0])))))
    ends[3, 1] = np.inf
    return {"max_spectral_radius": float(radii[worst]),
            "worst_theta": float(thetas[worst]),
            "rh_min_margin": float(ends.min()),
            "stable": bool(radii[worst] <= 1.0 + 1e-10),
            "theta_samples": n_theta + 1}


def _hexed(payload):
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in payload.items()}


def _scan_triples():
    # Calibrated, random, box-corner, subnormal-edge and s1 = s2 triples.
    from lbmfd.calibration import calibrate_fourth, calibrate_sixth

    rng = np.random.default_rng(808)
    triples = [REFERENCE_TRIPLE, (0.8, 1.0, 1.0)]
    for eps in (0.001, 0.05, 0.1, 0.2, 0.26):
        for res in (calibrate_sixth(eps), calibrate_fourth(eps)):
            triples.append((res.omega0, res.s1, res.s2))
    triples += [_rand_triple(rng) for _ in range(30)]
    low, high = 1e-9, 2.0 - 1e-9
    triples += [(a, b, c) for a in (low, 1.0 - low)
                for b in (low, high) for c in (low, high)]
    triples += [(1e-300, 1e-300, 2.0 - 2.0 ** -52), (0.5, 1e-300, 1.0)]
    for _ in range(10):
        s = rng.uniform(0.01, 1.99)
        omega0 = rng.uniform(0.01, 0.99)
        triples += [(omega0, s, s), (omega0, s, float(np.nextafter(s, 2.0)))]
    return triples


def test_screened_scan_matches_the_full_grid_reference():
    for triple in _scan_triples():
        for n_theta in (64, 65, 101, 720, 721):
            report = stab.spectral_radius_scan(*triple, n_theta)
            assert _hexed(report.to_json_dict()) == _hexed(
                _full_grid_reference(*triple, n_theta)), (triple, n_theta)


def test_scan_margin_does_not_depend_on_the_theta_grid():
    for triple in _scan_triples():
        margins = {stab.spectral_radius_scan(*triple, n).rh_min_margin.hex()
                   for n in (64, 65, 720, 721, 2 ** 16)}
        assert len(margins) == 1, (triple, margins)


def _random_cubic_rows(rng, n, rho):
    # Monic cubics whose largest root modulus sits just inside or outside
    # rho (relative gaps 1e-8 to 1), as a real root or a complex pair, with
    # the other roots anywhere inside that modulus.  A third of the real
    # cases hold a near-triple root, and a quarter of the pairs have their
    # real root on the same circle.
    gap = 10.0 ** rng.uniform(-8.0, 0.0, n) * rng.choice((-1.0, 1.0), n)
    top = rho * np.maximum(1.0 + gap, 0.05)
    pair = rng.random(n) < 0.5
    phi = rng.uniform(0.0, np.pi, n)
    sign = rng.choice((-1.0, 1.0), n)
    roots = np.empty((n, 3), dtype=complex)
    roots[:, 0] = np.where(pair, top * np.exp(1j * phi), top * sign)
    roots[:, 1] = np.where(pair, np.conj(roots[:, 0]),
                           rng.uniform(-1.0, 1.0, n) * top)
    roots[:, 2] = rng.uniform(-1.0, 1.0, n) * top
    ring = pair & (rng.random(n) < 0.25)
    roots[ring, 2] = top[ring] * sign[ring]
    triple = ~pair & (rng.random(n) < 0.3)
    roots[triple, 1] = roots[triple, 2] = (
        roots[triple, 0] * (1.0 - 1e-6 * rng.random(triple.sum())))
    a, b, c = roots.T
    return (np.real(-a * b * c), np.real(a * b + a * c + b * c),
            np.real(-(a + b + c)))


def test_scan_screen_leaves_out_only_rows_inside_the_scaled_radius():
    # The screen's lemma: a row whose five Routh-Hurwitz values, scaled to
    # rho = r0*(1 - tau), all exceed delta has a LAPACK radius below rho,
    # where r0 is the LAPACK radius of the seed row (here row 0).
    rng = np.random.default_rng(4242)
    tau, delta = stab._SCREEN_TAU, stab._SCREEN_DELTA
    for _ in range(40):
        r0 = rng.uniform(0.3, 1.2)
        p0, p1, p2 = _random_cubic_rows(rng, 300, r0 * (1.0 - tau))
        seed = np.real(np.poly([r0, 0.4 * r0, -0.3 * r0]))
        p0[0], p1[0], p2[0] = seed[3], seed[2], seed[1]
        radii = _lapack_radii(p0, p1, p2)
        rho = radii[0] * (1.0 - tau)
        scaled = stab._rh_value_grid(p0 / rho ** 3, p1 / rho ** 2, p2 / rho)
        inside = np.logical_and.reduce([v > delta for v in scaled])
        assert not inside[0] and inside.any()
        assert np.all(radii[inside] < rho)
    # The seed's certificate, by the same lemma: a ladder point a0 at which
    # some value scaled to a0 is below -delta has a root of modulus at
    # least a0, a real root or a complex pair, so a0 lies below the LAPACK
    # radius plus its worst error of 1.2e-5; a cubic with no root near the
    # ladder certifies none.  The budget: a0*tau exceeds twice that error.
    assert min(stab._SCREEN_LADDER) * tau > 2 * 1.2e-5
    certified = pairs = 0
    for _ in range(10):
        p0, p1, p2 = _random_cubic_rows(rng, 300, 1.0)
        roots = _lapack_roots(p0, p1, p2)
        radii = np.abs(roots).max(axis=1)
        top = roots[np.arange(radii.size), np.abs(roots).argmax(axis=1)]
        for row, radius in enumerate(radii):
            a0 = _certificate(p0[row], p1[row], p2[row])
            if a0 is not None:
                certified += 1
                pairs += abs(top[row].imag) > 1e-3
                assert a0 < radius + 1.2e-5
    assert 0 < certified < 3000 and pairs > 0
    # The scan's screen leaves out only such rows: on every scan triple,
    # each row outside `_candidate_rows` has its five values, scaled to the
    # certified rho = a0*(1 - tau) and taken row by row, above delta and a
    # full-grid LAPACK radius below rho; every scan triple's seed is
    # certified.  The last but one stencil, with no side weights, gives
    # every row the seed's cubic, so its five values are constant and the
    # screen must keep every row; the last, with no weights, has the cubic
    # lambda**3, whose seed no ladder point certifies, so every row is kept.
    stencils = [coefficients(*triple) for triple in _scan_triples()]
    stencils.append(dataclasses.replace(stencils[0], side_n=0.0,
                                        side_nm1=0.0))
    stencils.append(dataclasses.replace(
        stencils[0], side_n=0.0, center_n=0.0, side_nm1=0.0, center_nm1=0.0,
        center_nm2=0.0))
    left_out_total = 0
    for co in stencils:
        ends = [stab._char_coeff_grid(co, c) for c in (-1.0, 1.0)]
        for n_theta in (64, 65, 720, 721):
            thetas = -np.pi + 2.0 * np.pi * np.arange(n_theta + 1) / n_theta
            cos_t = np.cos(thetas)
            rows = stab._candidate_rows(co, cos_t, ends)
            seed = int(np.argmax(cos_t))
            assert seed in rows
            p0, p1, p2 = stab._char_coeff_grid(co, cos_t)
            radii = _lapack_radii(p0, p1, p2)
            a0 = _certificate(p0, p1[seed], p2[seed])
            if a0 is None:
                assert co in stencils[-2:], (co, n_theta)
                assert rows.size == cos_t.size, (co, n_theta)
                continue
            assert a0 < radii[seed] + 1.2e-5
            rho = a0 * (1.0 - tau)
            left_out = np.setdiff1d(np.arange(cos_t.size), rows)
            left_out_total += left_out.size
            scaled = stab._rh_value_grid(
                p0 / rho ** 3, p1[left_out] / rho ** 2, p2[left_out] / rho)
            for value in np.broadcast_arrays(*scaled):
                assert np.all(value > delta), (co, n_theta)
            assert np.all(radii[left_out] < rho), (co, n_theta)
    assert _certificate(0.0, 0.0, 0.0) is None
    assert left_out_total > 0


def test_scan_certifies_a_seed_whose_largest_roots_are_a_complex_pair():
    # The seed row's largest roots here are 0.9898 +- 0.0340i at n_theta 65;
    # a certificate of real roots alone would keep every row.
    triple = (0.4557230712092525, 0.01899082115516649, 1.5654380450127694)
    co = coefficients(*triple)
    ends = [stab._char_coeff_grid(co, c) for c in (-1.0, 1.0)]
    for n_theta in (65, 101):
        thetas = -np.pi + 2.0 * np.pi * np.arange(n_theta + 1) / n_theta
        assert stab._candidate_rows(co, np.cos(thetas), ends).size < n_theta
        assert _hexed(stab.spectral_radius_scan(*triple, n_theta)
                      .to_json_dict()) == _hexed(
            _full_grid_reference(*triple, n_theta)), n_theta
