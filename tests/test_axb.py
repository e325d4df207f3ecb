"""Affine group arithmetic, Jacobians, and the invariance integrals.

The quadrature gets a genuinely independent oracle: for a product bump
the density integral separates, and each factor reduces to an exact
rational-plus-logarithm antiderivative computed here with Fractions.
"""

import math
from fractions import Fraction

import pytest

from quasilab.axb import (
    IDENTITY,
    AffineElement,
    StencilOutOfDomain,
    SupportOutOfDomain,
    TestFunction,
    ToleranceNotReached,
    affine_inv,
    affine_mul,
    haar_density,
    integrate,
    modular_function,
    numeric_jacobian,
    run_verification_suite,
)
from quasilab.reports import validate_report


def test_group_arithmetic():
    g = AffineElement(2.0, 3.0)
    h = AffineElement(4.0, 5.0)
    gh = affine_mul(g, h)
    assert (gh.a, gh.b) == (8.0, 13.0)  # (aa', b + a b')
    inv = affine_inv(g)
    assert (inv.a, inv.b) == (0.5, -1.5)
    assert affine_mul(g, inv) == IDENTITY
    assert affine_mul(inv, g) == IDENTITY
    assert affine_mul(IDENTITY, g) == g


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        AffineElement(0.0, 1.0)
    with pytest.raises(ValueError):
        AffineElement(-2.0, 0.0)


def test_density_and_modular_function():
    assert haar_density(AffineElement(2.0, 7.0)) == 0.25  # 1/a^2
    assert modular_function(AffineElement(2.0, 3.0)) == 0.5  # 1/a
    g = AffineElement(3.0, -1.0)
    assert modular_function(affine_inv(g)) == pytest.approx(
        1.0 / modular_function(g), rel=1e-14
    )


def test_bump_support_and_values():
    f = TestFunction(2.0, 0.0, 0.5, 0.5)
    assert f.support == (1.5, 2.5, -0.5, 0.5)
    assert f(2.0, 0.0) == 1.0
    assert f(1.5, 0.0) == 0.0
    assert f(3.0, 0.0) == 0.0  # clamped outside the box
    assert f(2.0, 10.0) == 0.0
    assert 0.0 < f(2.2, 0.1) < 1.0


def test_bump_validation():
    with pytest.raises(SupportOutOfDomain):
        TestFunction(0.5, 0.0, 0.5, 1.0)  # support touches a = 0
    with pytest.raises(ValueError):
        TestFunction(2.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        TestFunction(2.0, 0.0, 0.5, 0.5, smoothness=0)


def test_jacobians_match_the_exact_determinants():
    # both translation maps are affine in p, so central differences are
    # exact up to rounding; demand far better than the contract 1e-6
    g = AffineElement(1.7, -2.3)
    p = AffineElement(3.1, 0.4)
    assert numeric_jacobian("left", g, p) == pytest.approx(g.a**2, rel=1e-10)
    assert numeric_jacobian("right", g, p) == pytest.approx(g.a, rel=1e-10)


def test_jacobian_guards():
    g = AffineElement(2.0, 0.0)
    with pytest.raises(StencilOutOfDomain):
        numeric_jacobian("left", g, AffineElement(1e-5, 0.0), h=1e-4)
    with pytest.raises(ValueError):
        numeric_jacobian("up", g, AffineElement(1.0, 0.0))
    with pytest.raises(ValueError):
        numeric_jacobian("left", g, AffineElement(1.0, 0.0), h=0.0)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _closed_form_baseline():
    """Exact value of the density integral of the standard test bump.

    f = TestFunction(2, 0, 1/2, 1/2, smoothness=3); the integral of
    f(a,b)/a^2 factors into a b-part (pure polynomial) and an a-part
    that substitutes to 2 * integral over u in [3,5] of (1-(u-4)^2)^3/u^2,
    a rational number plus a rational multiple of ln(5/3).
    """
    # b-part: (1/2) * integral of (1-s^2)^3 over [-1,1] = 16/35
    b_part = Fraction(16, 35)
    # a-part: coefficients of (1 - (u-4)^2)^3 = (-u^2 + 8u - 15)^3
    p1 = [Fraction(-15), Fraction(8), Fraction(-1)]
    q = _poly_mul(_poly_mul(p1, p1), p1)
    rational = q[0] * Fraction(2, 15)  # integral of u^-2 over [3,5]
    for k in range(2, len(q)):
        rational += q[k] * Fraction(5**(k - 1) - 3**(k - 1), k - 1)
    log_coeff = q[1]  # multiplies ln(5/3)
    a_part = 2 * (float(rational) + float(log_coeff) * math.log(Fraction(5, 3)))
    return float(b_part) * a_part


def test_integral_matches_the_closed_form():
    f = TestFunction(2.0, 0.0, 0.5, 0.5, smoothness=3)
    expected = _closed_form_baseline()
    got = integrate(f, tol=1e-9)
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_integrate_is_deterministic():
    f = TestFunction(2.5, 1.0, 0.4, 0.8)
    assert integrate(f) == integrate(f)


def test_left_invariance_of_the_integral():
    f = TestFunction(2.0, 0.5, 0.4, 0.7)
    baseline = integrate(f)
    for g in (AffineElement(0.7, 1.2), AffineElement(1.9, -2.0)):
        moved = integrate(f, ("left", g))
        assert abs(moved - baseline) <= 1e-7 * abs(baseline)


def test_right_translation_scales_by_alpha():
    f = TestFunction(2.0, 0.0, 0.4, 0.6)
    baseline = integrate(f)
    for g in (AffineElement(2.0, 1.5), AffineElement(0.6, -0.3)):
        moved = integrate(f, ("right", g))
        factor = moved / baseline
        assert factor == pytest.approx(g.a, rel=1e-7)
        # the scaling factor is exactly the modular function at g^-1
        assert factor == pytest.approx(modular_function(affine_inv(g)), rel=1e-7)


def test_pulled_back_support_stays_positive_under_translation():
    # a valid bump has support strictly inside {a > 0}; both translation
    # types scale the a-range by 1/alpha > 0, so the pulled-back box is
    # always admissible, even under extreme scalings
    f = TestFunction(1.0, 0.0, 0.5, 0.5)
    for g in (AffineElement(1e3, 0.0), AffineElement(2e-2, 0.0)):
        assert integrate(f, ("left", g)) > 0.0
        assert integrate(f, ("right", g)) > 0.0
    # a sheared right translation turns the box into a parallelogram
    assert integrate(f, ("right", AffineElement(1.0, 2.0))) > 0.0


def test_unreachable_tolerance_raises():
    f = TestFunction(2.0, 0.0, 0.5, 0.5)
    with pytest.raises(ToleranceNotReached) as info:
        integrate(f, tol=1e-16, max_depth=0)
    assert info.value.depth == 0
    assert math.isfinite(info.value.estimate)


def test_verification_suite_passes_and_validates():
    report = run_verification_suite(
        trials=5, seed=0, arithmetic_pairs=100, jacobian_points=3
    )
    assert report["passed"]
    assert report["failures"] == []
    assert validate_report(report) == "axb-verify"
    assert report["max_errors"]["left_invariance"] <= 1e-6
    assert report["max_errors"]["associativity"] <= 1e-12
    # a suite of no trials checks no integral; a negative count is nonsense
    for bad in (0, -1):
        with pytest.raises(ValueError):
            run_verification_suite(trials=bad)
    # a nan bound fails no check and reports no failure; inf passes anything
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            run_verification_suite(trials=1, tol=bad)


def test_verification_suite_is_seed_deterministic():
    a = run_verification_suite(trials=3, seed=7, arithmetic_pairs=50, jacobian_points=2)
    b = run_verification_suite(trials=3, seed=7, arithmetic_pairs=50, jacobian_points=2)
    assert a["max_errors"] == b["max_errors"]
