import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyder, polyval

from nlac.potential import (PotentialError, PotentialSpec, c_theta, f_eval,
                            optimal_profile, quartic_potential)


@pytest.fixture(scope="module")
def quartic():
    return quartic_potential()


@pytest.fixture(scope="module")
def sextic():
    # (1-c^2)^2 (2+c^2)/8: equal-depth wells at +-1, steeper walls
    return PotentialSpec(kind="custom",
                         coefficients=(0.25, 0.0, -0.375, 0.0, 0.0, 0.0, 0.125))


def test_quartic_derivatives(quartic):
    assert f_eval(quartic, 1.0, 1) == pytest.approx(0.0, abs=1e-14)
    assert f_eval(quartic, 1.0, 2) == pytest.approx(2.0)
    assert f_eval(quartic, 0.0, 2) == pytest.approx(-1.0)
    assert f_eval(quartic, 0.0, 0) == pytest.approx(0.25)
    assert f_eval(quartic, 0.5, 3) == pytest.approx(3.0)
    assert f_eval(quartic, -2.0, 4) == pytest.approx(6.0)


def test_quartic_constants(quartic):
    assert quartic.r0 == 1.0
    assert quartic.fpp_max == pytest.approx(2.0)


def test_f_eval_array(quartic):
    c = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(f_eval(quartic, c, 1), [0.0, 0.0, 0.0], atol=1e-14)


_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3), st.floats())


@settings(max_examples=200, deadline=None)
@given(order=st.integers(0, 4),
       values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=16),
                         elements=_FLOATS),
       scalar=_FLOATS)
def test_f_eval_matches_polyval(quartic, sextic, order, values, scalar):
    # the in-place Horner pass gives polyval's bits, signed zeros, inf and NaN included
    with np.errstate(all="ignore"):
        for spec in (quartic, sextic):
            oracle = polyder(spec.coefficients, order)
            got, want = f_eval(spec, values, order), polyval(values, oracle)
            assert got.shape == values.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            # into a caller's buffer, whatever it held: the same bits
            out = np.full(values.shape, np.nan)
            assert f_eval(spec, values, order, out=out) is out
            assert np.array_equal(out, got, equal_nan=True)
            assert np.array_equal(np.signbit(out), np.signbit(got))
            one, want_one = f_eval(spec, scalar, order), float(polyval(scalar, oracle))
            assert type(one) is float
            assert np.array_equal(one, want_one, equal_nan=True)
            assert math.copysign(1.0, one) == math.copysign(1.0, want_one)


def test_f_eval_order_range(quartic):
    with pytest.raises(PotentialError):
        f_eval(quartic, 0.0, 5)


def test_cubic_growth(quartic):
    c = np.linspace(-5, 5, 1001)
    assert np.all(np.abs(f_eval(quartic, c, 1)) <= 2.0 * (1 + np.abs(c) ** 3))


def test_rejects_bad_wells():
    with pytest.raises(PotentialError):
        PotentialSpec(kind="custom", coefficients=(0.0, 0.0, 1.0))  # single well
    with pytest.raises(PotentialError):
        # wells of unequal depth: f(1) != 0
        PotentialSpec(kind="custom", coefficients=(0.3, 0.0, -0.5, 0.0, 0.25))
    with pytest.raises(PotentialError):
        PotentialSpec(kind="nope")
    with pytest.raises(PotentialError, match="even"):
        # (1-c^2)^2 (1+c/2)/4: a well, but odd, so c < 0 is no mirror of c > 0
        PotentialSpec(kind="custom", coefficients=(0.25, 0.125, -0.5, -0.25, 0.25, 0.125))
    with pytest.raises(PotentialError, match="invariant region"):
        # (1-c^2)^2 (1-c^2/4)/4: even, but f' < 0 for large c
        PotentialSpec(kind="custom",
                      coefficients=(0.25, 0.0, -0.5625, 0.0, 0.375, 0.0, -0.0625))


def test_profile_quartic_closed_form(quartic):
    rho = np.linspace(-10, 10, 2001)
    assert np.max(np.abs(optimal_profile(quartic, rho) - np.tanh(rho / math.sqrt(2)))) <= 1e-8


def test_profile_midpoint_and_value(quartic):
    assert optimal_profile(quartic, 0.0) == 0.0
    rho = math.sqrt(2) * math.atanh(0.5)
    assert optimal_profile(quartic, rho) == pytest.approx(0.5, rel=1e-12)


def test_profile_limits(quartic, sextic):
    for spec in (quartic, sextic):
        assert abs(optimal_profile(spec, 40.0) - 1.0) <= 1e-10
        assert abs(optimal_profile(spec, -40.0) + 1.0) <= 1e-10
        assert optimal_profile(spec, 100.0) == 1.0


def test_profile_ode_residual(sextic):
    pts = np.linspace(-8.0, 8.0, 1000)
    h = 1e-4
    second = (optimal_profile(sextic, pts + h) - 2 * optimal_profile(sextic, pts)
              + optimal_profile(sextic, pts - h)) / h ** 2
    residual = -second + f_eval(sextic, optimal_profile(sextic, pts), 1)
    assert np.max(np.abs(residual)) <= 1e-6


def test_profile_odd_and_monotone(sextic, quartic):
    pts = np.linspace(-6.0, 6.0, 501)
    for spec in (quartic, sextic):
        theta = optimal_profile(spec, pts)
        np.testing.assert_allclose(theta, -optimal_profile(spec, -pts), atol=1e-12)
        assert np.all(np.diff(theta) > 0)


def test_c_theta_quartic(quartic):
    # int_0^inf s (1 - tanh(s/sqrt 2)) ds = 2 int_0^inf u (1 - tanh u) du = pi^2/12
    assert abs(c_theta(quartic) - math.pi ** 2 / 12.0) <= 1e-12


def test_c_theta_custom_well_matches_adaptive_quadrature(sextic):
    from scipy.integrate import quad
    ref, _ = quad(lambda s: s * (1.0 - optimal_profile(sextic, s)), 0.0, 40.0, limit=200)
    assert abs(c_theta(sextic) - ref) <= 1e-9
