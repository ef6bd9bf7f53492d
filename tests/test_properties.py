"""Property test: any floats into the parameter constructors."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lbmfd import calibration as cal
from lbmfd.errors import DomainError
from lbmfd.scheme import coefficients

# Any float, non-finite ones included, mixed with floats inside the box so
# that the accepting path is exercised too.
_ANY = st.one_of(st.floats(), st.floats(0.0, 2.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(omega0=_ANY, s0=_ANY, s1=_ANY, s2=_ANY, dx=_ANY, dt=_ANY, R=_ANY)
def test_constructors_raise_domain_error_or_give_finite_values(
        omega0, s0, s1, s2, dx, dt, R):
    def attempt(build):
        # (rejected, result): rejected is True when build raised DomainError.
        try:
            return False, build()
        except DomainError:
            return True, None

    in_box = 0.0 < omega0 < 1.0 and 0.0 < s1 < 2.0 and 0.0 < s2 < 2.0
    assert attempt(lambda: cal.check_box(omega0, s1, s2))[0] is not in_box
    rejected, weights = attempt(lambda: cal.Weights(omega0))
    if not rejected:
        assert math.isfinite(weights.omega1)
    attempt(lambda: cal.Relaxations(s0, s1, s2))
    rejected, params = attempt(lambda: cal.ModelParams.from_rates(
        omega0, s1, s2, dx=dx, dt=dt, source_R=R, s0=s0))
    if not rejected:
        assert math.isfinite(params.kappa) and params.kappa > 0.0
        assert math.isfinite(params.epsilon)
    rejected, coeffs = attempt(lambda: coefficients(omega0, s1, s2))
    assert rejected is not in_box
    if not rejected:
        total = math.fsum((2.0 * coeffs.side_n, coeffs.center_n,
                           2.0 * coeffs.side_nm1, coeffs.center_nm1,
                           coeffs.center_nm2))
        assert abs(total - 1.0) <= 2.0 ** -53
