"""The characteristic cubic and the stencil weights, derived symbolically.

The mesoscopic update is written with sympy from its moment-space
definition alone: the moment transform M (lattice speed c), its inverse as
sympy computes it, the relaxation diagonal S = diag(s0, s1, s2) and the
equilibrium projection E, which gives every population its weight share of
phi = f_minus + f_zero + f_plus.  One Fourier mode u = exp(i*theta) of the
update is

    G(theta) = diag(u, 1, 1/u) * (I - M_inv*S*M*(I - E)),

and det(lambda*I - G) is the characteristic cubic.  Its coefficients are
Laurent polynomials in u, symmetric under u -> 1/u, so they are affine in
cos(theta) = (u + 1/u)/2; the stencil weights are read off those two
coefficients, and the source weight follows from Cayley-Hamilton at
theta = 0.  Nothing from `stability` or `scheme` enters the derivation:
the exact values, evaluated in rationals at float triples, are compared
with `char_poly` and `coefficients`.  No `simplify` is called; the
derivation takes well under a second.  The five Routh-Hurwitz values of
the derived cubic are factored at cos(theta) = -1 and 1 and proved
positive on the open box of the rates, so every admissible triple is
strictly stable at every nonzero wavenumber.
"""

import functools
from fractions import Fraction

import numpy as np
import sympy as sp

from lbmfd import lbm, stability as stab
from lbmfd.calibration import Relaxations
from lbmfd.scheme import coefficients

OMEGA0, S0, S1, S2, C, U, LAM, DT_R = sp.symbols(
    "omega0 s0 s1 s2 c u lam dt_R")
RATES = (OMEGA0, S1, S2)
# Largest gap allowed between a float value and its exact counterpart.
TOL = 2e-15


def _matrices():
    M = sp.Matrix([[1, 1, 1], [-C, 0, C], [C ** 2, -2 * C ** 2, C ** 2]])
    M_inv = M.inv().applyfunc(sp.cancel)
    S = sp.diag(S0, S1, S2)
    omega1 = (1 - OMEGA0) / 2
    w = sp.Matrix([omega1, OMEGA0, omega1])
    E = w * sp.Matrix([[1, 1, 1]])
    collide = (M_inv * S * M).applyfunc(sp.cancel)
    G = sp.diag(U, 1, 1 / U) * (sp.eye(3) - collide * (sp.eye(3) - E))
    return M, M_inv, S, w, collide, G


@functools.cache
def _derivation():
    """The exact cubic and weights as sympy polynomials in (omega0, s1, s2).

    Returns (cubic, weights): cubic maps k to the pair (constant,
    cos(theta) coefficient) of p_k; weights maps each `FdCoefficients`
    field name to its polynomial.
    """
    M, M_inv, S, w, collide, G = _matrices()
    char = sp.Poly(sp.expand((LAM * sp.eye(3) - G).det(method="berkowitz")
                             * U), LAM, U)
    assert char.degree(U) <= 2
    cubic = {}
    for k in range(3):
        down, const, up = (char.coeff_monomial(LAM ** k * U ** j)
                           for j in range(3))
        assert sp.expand(up - down) == 0
        cubic[k] = (sp.Poly(const, *RATES), sp.Poly(2 * up, *RATES))
    assert char.coeff_monomial(LAM ** 3 * U) == 1
    # The update at theta = 0 with a uniform source: x' = G0*x + b, where b
    # holds the source term and the trapezoidal shift of phi in the
    # equilibrium.  Cayley-Hamilton turns sum_k p_k*phi[n+k] (p_3 = 1) into
    # the source term of the four-level recurrence.
    G0 = G.subs(U, 1)
    source_op = M_inv * (sp.eye(3) - S / 2) * M
    b = DT_R * (collide * w / 2 + source_op * w)
    p = [cubic[k][0].as_expr() + cubic[k][1].as_expr() for k in range(3)]
    p.append(sp.Integer(1))
    total = sp.zeros(3, 1)
    for k in range(1, 4):
        power = sp.eye(3)
        for _ in range(k):
            total += p[k] * power * b
            power = G0 * power
    forcing = (sp.Matrix([[1, 1, 1]]) * total)[0] + DT_R / 2 * sum(p)
    source = sp.Poly(sp.cancel(sp.expand(forcing) / DT_R), *RATES)
    (p0_const, _), (p1_const, p1_cos), (p2_const, p2_cos) = (
        cubic[k] for k in range(3))
    half = sp.Rational(-1, 2)
    weights = {"side_n": half * p2_cos, "center_n": -p2_const,
               "side_nm1": half * p1_cos, "center_nm1": -p1_const,
               "center_nm2": -p0_const, "source": source}
    return cubic, weights


def _exact(poly, point):
    # The polynomial evaluated in exact rationals at float arguments.
    return sum(Fraction(int(coeff.p), int(coeff.q))
               * Fraction(point[0]) ** i * Fraction(point[1]) ** j
               * Fraction(point[2]) ** k
               for (i, j, k), coeff in poly.terms())


def _rand_triples(seed, n=200):
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 1.99)),
             float(rng.uniform(0.01, 1.99))) for _ in range(n)]


def test_derived_cubic_depends_only_on_the_rates():
    # s0 and the lattice speed drop out of the cubic and of every weight.
    cubic, weights = _derivation()
    polys = [q for pair in cubic.values() for q in pair] + list(
        weights.values())
    assert all(q.as_expr().free_symbols <= set(RATES) for q in polys)
    # The conserved mode: lambda = 1 is a root at theta = 0.
    at_one = 1 + sum(const + cos for const, cos in cubic.values())
    assert at_one.is_zero


def test_symbolic_matrices_match_the_numeric_oracles():
    # The hand-typed matrices of `lbm` and the population amplification
    # matrix of `stability` are the symbolic ones evaluated.
    M, M_inv, S, _, _, G = _matrices()
    assert (M * M_inv).applyfunc(sp.cancel) == sp.eye(3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = float(rng.uniform(0.1, 10.0))
        relax = Relaxations(float(rng.uniform(0.0, 2.0)),
                            float(rng.uniform(0.01, 1.99)),
                            float(rng.uniform(0.01, 1.99)))
        omega0 = float(rng.uniform(0.01, 0.99))
        theta = float(rng.uniform(-np.pi, np.pi))
        mats = lbm.lattice_matrices(c, relax)
        at = {C: c, S0: relax.s0, S1: relax.s1, S2: relax.s2,
              OMEGA0: omega0, U: sp.exp(sp.I * theta)}
        for sym, num in ((M, mats.M), (M_inv, mats.M_inv), (S, mats.S)):
            want = np.array(sym.subs(at).evalf(), dtype=float)
            np.testing.assert_allclose(num, want, rtol=1e-15, atol=1e-15)
        want = np.array(G.subs(at).evalf(), dtype=complex)
        got = stab.population_amplification(omega0, relax.s1, relax.s2,
                                            theta)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_char_poly_matches_the_derived_cubic():
    cubic, _ = _derivation()
    rng = np.random.default_rng(3)
    worst = 0.0
    for triple in _rand_triples(1):
        theta = float(rng.uniform(-np.pi, np.pi))
        cos_t = Fraction(float(np.cos(theta)))
        p = stab.char_poly(*triple, theta)
        for k, got in enumerate((p.p0, p.p1, p.p2)):
            const, cos = cubic[k]
            want = _exact(const, triple) + _exact(cos, triple) * cos_t
            worst = max(worst, abs(Fraction(got) - want))
    assert worst <= TOL, float(worst)


def test_stencil_weights_match_the_derived_cubic():
    _, weights = _derivation()
    worst = 0.0
    for triple in _rand_triples(2):
        co = coefficients(*triple)
        for name, poly in weights.items():
            gap = abs(Fraction(getattr(co, name)) - _exact(poly, triple))
            worst = max(worst, gap)
    assert worst <= TOL, float(worst)


# The open box of the rates, and the Routh-Hurwitz values of the derived
# cubic at cos(theta) = -1 and 1, in the order of
# `stability.routh_hurwitz_values`, as factored by hand.
_BOX = {OMEGA0: (0, 1), S1: (0, 2), S2: (0, 2)}
_AB = (1 - S1) * (1 - S2)
_G = ((1 - OMEGA0) * S1 * (1 + _AB)
      + OMEGA0 * (2 - S1) * (S1 + S2 - S1 * S2))
_RH_AT_COS = {
    -1: (2 * OMEGA0 * S1 * S2, 1 + _AB, 1 - _AB,
         2 * S2 * (1 - OMEGA0) * (2 - S1), (2 - S2) * _G),
    1: (2 * (2 - S1) * (2 - S2), 1 + _AB, 1 - _AB, sp.Integer(0),
        S1 * S2 * (S1 + S2 - S1 * S2)),
}


def _rh_values(cos_t):
    cubic, _ = _derivation()
    p0, p1, p2 = (cubic[k][0].as_expr() + cos_t * cubic[k][1].as_expr()
                  for k in range(3))
    return [sp.expand(v) for v in (1 - p0 + p1 - p2, 1 - p0, 1 + p0,
                                   1 + p0 + p1 + p2,
                                   1 - p1 + p0 * p2 - p0 ** 2)]


def _positive_on_open_box(f) -> bool:
    """True when the polynomial f in the rates is proved positive on the
    open box.

    Each irreducible factor (or its negative) must be affine in some rate
    r.  On the open interval of r it is then a strict convex combination of
    its values at the two ends of r's interval, so it is positive when each
    of those is identically zero or, recursively, positive on the open box
    of the other rates, and not both vanish.  A factor that is affine in no
    rate is not proved.
    """
    coeff, factors = sp.factor_list(sp.expand(f), *RATES)
    sign = sp.sign(coeff)
    for g, mult in factors:
        for flip in (1, -1):
            if _positive_factor(flip * g):
                sign *= flip ** mult
                break
        else:
            return False
    return sign > 0


def _positive_factor(g) -> bool:
    rate = next((r for r in RATES if sp.degree(g, r) == 1), None)
    if rate is None:
        return g.is_number and g > 0
    ends = [sp.expand(g.subs(rate, end)) for end in _BOX[rate]]
    return any(end != 0 for end in ends) and all(
        end == 0 or _positive_on_open_box(end) for end in ends)


def test_routh_hurwitz_values_are_positive_on_the_open_box():
    # Every Routh-Hurwitz value is affine in cos(theta), so its signs at
    # cos(theta) = -1 and 1 settle every theta.  At -1 all five are
    # positive on the open box; at 1 the fourth is identically zero (the
    # conserved mode) and the other four are positive.  So all five are
    # positive for cos(theta) != 1: the scheme is strictly stable at every
    # nonzero wavenumber for every admissible triple.
    for cos_t, factored in _RH_AT_COS.items():
        values = _rh_values(cos_t)
        for value, want in zip(values, factored):
            assert sp.expand(value - want) == 0
        for k, value in enumerate(values):
            assert (value == 0) if (cos_t, k) == (1, 3) \
                else _positive_on_open_box(value), (cos_t, k)
    # The float values of `stability` are those of the derived cubic.
    worst = 0.0
    for triple in _rand_triples(4, 50):
        point = dict(zip(RATES, map(Fraction, triple)))
        for cos_t, theta in ((-1, np.pi), (1, 0.0)):
            got = stab.routh_hurwitz_values(stab.char_poly(*triple, theta))
            for g, value in zip(got, _rh_values(cos_t)):
                want = Fraction(str(value.subs(point)))
                worst = max(worst, abs(Fraction(float(g)) - want))
    assert worst <= TOL, float(worst)


def test_the_positivity_proof_rejects_what_is_not_positive():
    # A sign change inside the box and a square that vanishes inside it
    # fail; factors that vanish on faces of the closed box only pass; a
    # positive factor that is affine in no rate is beyond the proof.
    assert not _positive_on_open_box(S1 - 1)
    assert not _positive_on_open_box(OMEGA0 * (S2 - 1) ** 2)
    assert _positive_on_open_box((2 - S1) * (S1 + S2 - S1 * S2))
    assert not _positive_on_open_box((S1 - S2) ** 2 + 1)
