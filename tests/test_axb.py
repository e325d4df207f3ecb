"""Affine group arithmetic, Jacobians, and the invariance integrals.

The quadrature gets a genuinely independent oracle: for a product bump
the density integral separates, and each factor reduces to an exact
rational-plus-logarithm antiderivative computed here with Fractions,
the logarithm and the final sum in 60-digit Decimal.
"""

import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from axb_oracle import scalar_max_errors

from quasilab import axb
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


@pytest.mark.parametrize("box", [
    (2.0, 0.0, math.nan, 1.0),
    (2.0, math.inf, 0.3, 1.0),
    (math.nan, 0.0, 0.5, 0.5),
    (math.inf, 0.0, 0.5, 0.5),
    (2.0, 0.0, 0.5, math.inf),
])
def test_bump_refuses_a_non_finite_box(box):
    # each was accepted, and integrating it refined to the cell cap
    # (262,144 cells) before ToleranceNotReached with a nan estimate
    with pytest.raises(ValueError, match="finite"):
        TestFunction(*box)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("element", [(1.0, math.nan), (1.0, -math.inf), (math.inf, 0.0)])
def test_integrate_refuses_a_non_finite_translation(side, element):
    # AffineElement refuses a nan scale itself, but not these
    with pytest.raises(ValueError, match="finite"):
        integrate(TestFunction(2.0, 0.0, 0.5, 0.5), (side, AffineElement(*element)))


@pytest.mark.parametrize("block", [False, True])
@pytest.mark.parametrize("role", ["g", "p"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("element", [(1.0, math.nan), (1.0, -math.inf), (math.inf, 0.0)])
def test_jacobian_refuses_a_non_finite_element(side, role, element, block):
    # its determinant would be nan, which passes every err > bound test
    a, b = element
    if block:  # the bad element second in a block of two
        a, b = np.array([1.5, a]), np.array([0.0, b])
    args = {"g": AffineElement(2.0, 0.0), "p": AffineElement(1.0, 0.0)}
    args[role] = AffineElement(a, b)
    with pytest.raises(ValueError, match="finite"):
        numeric_jacobian(side, args["g"], args["p"])


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
    # nan used to pass every guard, and inf to fail as a stencil at a = -inf
    for bad in (math.nan, math.inf, -1e-4):
        with pytest.raises(ValueError, match=r"^h must be finite and above 0"):
            numeric_jacobian("left", g, AffineElement(1.0, 0.0), h=bad)


def test_formulas_take_a_block_as_they_take_one_element():
    rng = np.random.default_rng(4)
    ga, pa = rng.uniform(0.1, 10.0, (2, 50))
    gb, pb = rng.uniform(-10.0, 10.0, (2, 50))
    g, p = AffineElement(ga, gb), AffineElement(pa, pb)
    one = [(AffineElement(*x), AffineElement(*y)) for x, y in zip(zip(ga, gb), zip(pa, pb))]
    blocks = {
        "mul": affine_mul(g, p).b,
        "inv": affine_inv(g).b,
        "delta": modular_function(g),
        "left": numeric_jacobian("left", g, p),
        "right": numeric_jacobian("right", g, p),
        "rel": axb._rel_err(ga, pa),
    }
    singles = {
        "mul": [affine_mul(x, y).b for x, y in one],
        "inv": [affine_inv(x).b for x, _ in one],
        "delta": [modular_function(x) for x, _ in one],
        "left": [numeric_jacobian("left", x, y) for x, y in one],
        "right": [numeric_jacobian("right", x, y) for x, y in one],
        "rel": [axb._rel_err(x.a, y.a) for x, y in one],
    }
    for name, block in blocks.items():
        assert [float(v).hex() for v in block] == [float(v).hex() for v in singles[name]], name
    # a block names its first bad scale or stencil, as an element at a time would
    with pytest.raises(ValueError, match=r"got -2\.0$"):
        AffineElement(np.array([1.0, -2.0, 0.0]), np.zeros(3))
    p = AffineElement(np.array([2.0, 0.25, 0.1]), np.zeros(3))
    with pytest.raises(StencilOutOfDomain, match=r"a = -0\.25 <= 0$"):
        numeric_jacobian("left", IDENTITY, p, 0.5)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_pow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def _dec(x: Fraction) -> Decimal:
    """x to the precision of the current Decimal context."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def _closed_form_baseline(f):
    """Exact value of the density integral of the bump f, as a Decimal.

    The floats of f are read as the Fractions they are.  The integral of
    f(a,b)/a^2 factors into a b-part, r_b times the integral of (1-t^2)^k
    over [-1,1], and an a-part, the integral of P(a)/a^2 over [lo, hi]
    for the polynomial P(a) = (1 - ((a-c_a)/r_a)^2)^k.  Term by term that
    is a rational number plus P's linear coefficient times ln(hi/lo).
    The two nearly cancel when c_a/r_a is large (a float log loses 6e-8
    at c_a/r_a near 15), so they are summed in 60-digit Decimal.
    """
    ca, ra, rb = map(Fraction, (f.center_a, f.radius_a, f.radius_b))
    k = f.smoothness
    b_poly = _poly_pow([Fraction(1), Fraction(0), Fraction(-1)], k)
    b_part = rb * sum(c * Fraction(2, i + 1) for i, c in enumerate(b_poly) if i % 2 == 0)
    t = [-ca / ra, 1 / ra]  # (a - c_a) / r_a
    q = _poly_pow([1 - t[0] ** 2, -2 * t[0] * t[1], -t[1] ** 2], k)
    lo, hi = ca - ra, ca + ra
    rational = q[0] * (1 / lo - 1 / hi)
    for i in range(2, len(q)):
        rational += q[i] * (hi ** (i - 1) - lo ** (i - 1)) / (i - 1)
    with localcontext() as ctx:
        ctx.prec = 60
        return (_dec(rational) + _dec(q[1]) * (_dec(hi) / _dec(lo)).ln()) * _dec(b_part)


def test_integral_matches_the_closed_form():
    f = TestFunction(2.0, 0.0, 0.5, 0.5, smoothness=3)
    expected = float(_closed_form_baseline(f))
    got = integrate(f, tol=1e-9)
    assert abs(got - expected) <= 1e-8 * abs(expected)


# Trial 104 of run_verification_suite(trials=400, seed=5).  Integrated
# over a bounding box of its pullback, the right integral crossed the
# support's slanted edges inside cells, and the error estimate accepted
# a value 1.6e-7 off at both tol=1e-8 and tol=1e-10.
TRIAL_104_BUMP = TestFunction(
    3.905918575987138, -0.9589854771533997, 0.26817462520057367, 0.9280221651231517
)
TRIAL_104_ELEMENT = AffineElement(0.9503020886177507, 0.039798947780161686)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_right_integral_meets_its_tolerance_against_the_exact_oracle(tol):
    f, g = TRIAL_104_BUMP, TRIAL_104_ELEMENT
    exact = _closed_form_baseline(f)
    expected = float(exact * Decimal(g.a))  # (R_g)_* mu = alpha mu
    got = integrate(f, ("right", g), tol=tol)
    assert abs(got - expected) <= tol * expected
    assert abs(integrate(f, tol=tol) - float(exact)) <= tol * float(exact)


class CountingBump(TestFunction):
    """A TestFunction that tallies the integrand points it is evaluated at."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "points", 0)

    def values(self, a, b):
        out = super().values(a, b)
        object.__setattr__(self, "points", self.points + out.size)
        return out


def _points(f, translate):
    before = f.points
    integrate(f, translate)
    return f.points - before


@pytest.mark.parametrize("bump", [
    (2.0, 0.0, 0.4, 0.6),
    (3.9, -1.0, 0.27, 0.93),
    (1.2, 2.5, 0.5, 1.5),
])
def test_sheared_right_integral_does_no_more_work_than_the_baseline(bump):
    # a bounding box of the parallelogram took about 200 times the
    # baseline's points; the exact sheared box takes about as many
    f = CountingBump(*bump)
    baseline = _points(f, None)
    for g in (AffineElement(0.95, 0.04), AffineElement(1.7, -1.9), AffineElement(0.6, 2.0)):
        assert _points(f, ("right", g)) <= 2 * baseline


def test_integrate_is_deterministic():
    f = TestFunction(2.5, 1.0, 0.4, 0.8)
    assert integrate(f) == integrate(f)
    g = AffineElement(1.3, -1.7)
    first = integrate(f, ("right", g))
    assert integrate(f, ("right", g)).hex() == first.hex()


def test_integrate_rejects_bad_tolerance_and_depth():
    # tol=0 would refine to the cell cap; nan and negative tolerances
    # accept nothing
    f = TestFunction(2.0, 0.0, 0.5, 0.5)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate(f, tol=bad)
    with pytest.raises(ValueError):
        integrate(f, max_depth=-1)
    assert integrate(f, max_depth=0, tol=1e-2) > 0.0


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


def test_integrate_refuses_what_has_no_integral():
    f = TestFunction(2.0, 0.0, 0.5, 0.5)
    g = AffineElement(2.0, 1.0)
    with pytest.raises(ValueError, match="'up'"):
        integrate(f, ("up", g))
    # a / 1e30 underflows to a = 0 on both sides
    tiny = TestFunction(1e-300, 0.0, 5e-301, 0.5)
    for side in ("left", "right"):
        with pytest.raises(SupportOutOfDomain, match="a = 0.0 <= 0"):
            integrate(tiny, (side, AffineElement(1e30, 0.0)))
    # a box of side ~1e-308 in a and b has an area that underflows to 0
    with pytest.raises(ValueError, match="empty integration box"):
        integrate(f, ("left", AffineElement(1e308, 0.0)))


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
        with pytest.raises(ValueError):
            run_verification_suite(trials=1, quad_tol=bad)
    # negative counts used to run silently as 0
    with pytest.raises(ValueError):
        run_verification_suite(trials=1, arithmetic_pairs=-1)
    with pytest.raises(ValueError):
        run_verification_suite(trials=1, jacobian_points=-1)
    empty = run_verification_suite(trials=1, arithmetic_pairs=0, jacobian_points=0)
    assert empty["passed"]


def test_verification_suite_is_seed_deterministic():
    a = run_verification_suite(trials=3, seed=7, arithmetic_pairs=50, jacobian_points=2)
    b = run_verification_suite(trials=3, seed=7, arithmetic_pairs=50, jacobian_points=2)
    assert a["max_errors"] == b["max_errors"]


def test_modular_consistency_fails_apart_from_right_scaling(monkeypatch):
    # Delta(g^-1) now comes from the Jacobian of conjugation, not from g.a,
    # so a Jacobian 1 % off fails it while the integral checks still pass
    exact = run_verification_suite(trials=5, seed=3, arithmetic_pairs=10, jacobian_points=0)
    errors = exact["max_errors"]
    assert 0 < errors["modular_consistency"] <= 1e-10
    assert errors["modular_consistency"] != errors["right_scaling"]

    def skewed(*args, **kwargs):
        return 1.01 * numeric_jacobian(*args, **kwargs)

    monkeypatch.setattr(axb, "numeric_jacobian", skewed)
    report = run_verification_suite(trials=5, seed=3, arithmetic_pairs=10, jacobian_points=0)
    assert "modular_consistency" in report["failures"]
    assert "right_scaling" not in report["failures"]
    assert "left_invariance" not in report["failures"]
    assert report["max_errors"]["right_scaling"] == errors["right_scaling"]


# ---------------------------------------------------------------------------
# The batched quadrature: run_verification_suite integrates a chunk of
# trials per batch, and each value must be the one integrate gives alone.

CHUNK = axb._CHUNK_TRIALS


def _sequential_suite(trials, seed, arithmetic_pairs, jacobian_points, quad_tol=1e-8, step=1e-4):
    """The integral checks of run_verification_suite, one integrate call at a time."""
    rng = random.Random(seed)
    # each arithmetic pair draws three elements, each Jacobian point two
    for _ in range(6 * arithmetic_pairs + 4 * jacobian_points):
        rng.random()

    def rel(x, y):
        return abs(x - y) / max(abs(x), abs(y), 1e-300)

    left_inv = right_scale = consistency = 0.0
    for _ in range(trials):
        f = TestFunction(
            rng.uniform(1.0, 5.0), rng.uniform(-3.0, 3.0),
            rng.uniform(0.2, 0.5), rng.uniform(0.5, 1.5), smoothness=3,
        )
        g = AffineElement(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
        baseline = integrate(f, None, tol=quad_tol)
        left = integrate(f, ("left", g), tol=quad_tol)
        right = integrate(f, ("right", g), tol=quad_tol)
        left_inv = max(left_inv, rel(left, baseline))
        factor = right / baseline
        right_scale = max(right_scale, rel(factor, g.a))
        g_inv = affine_inv(g)
        det_ad = numeric_jacobian("left", g, g_inv, step) * numeric_jacobian(
            "right", g_inv, IDENTITY, step
        )
        consistency = max(consistency, rel(factor, abs(det_ad)))
    return {
        "left_invariance": left_inv.hex(),
        "right_scaling": right_scale.hex(),
        "modular_consistency": consistency.hex(),
    }


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("trials", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunked_suite_matches_one_integrate_call_per_trial(seed, trials):
    report = run_verification_suite(
        trials=trials, seed=seed, arithmetic_pairs=3, jacobian_points=2
    )
    got = {name: report["max_errors"][name].hex() for name in
           ("left_invariance", "right_scaling", "modular_consistency")}
    assert got == _sequential_suite(trials, seed, arithmetic_pairs=3, jacobian_points=2)


def test_suite_errors_are_the_unbatched_suites_to_the_bit():
    # max_errors of run_verification_suite(trials=400, seed=5) as the
    # suite gave them when it integrated one trial at a time
    unbatched = {
        "associativity": "0x1.ace5237928475p-52",
        "inverse_law": "0x1.1fbf2a437c9a6p-50",
        "modular_multiplicativity": "0x1.ce65eae4136e9p-52",
        "jacobian_left": "0x1.606fc7b517908p-37",
        "jacobian_right": "0x1.537cb8f2489dfp-37",
        "left_invariance": "0x1.1c49a8da9fc48p-47",
        "right_scaling": "0x1.3c1c211de141bp-47",
        "modular_consistency": "0x1.acefb3afbb7ccp-38",
    }
    report = run_verification_suite(trials=400, seed=5)
    assert {k: v.hex() for k, v in report["max_errors"].items()} == unbatched
    assert report["failures"] == []


G = AffineElement(1.7, -1.9)
# converge at tol 1e-8 by depth 1
EASY = [
    (TestFunction(2.0, 0.0, 0.4, 0.6), None),
    (TestFunction(1.2, 2.5, 0.5, 1.5), ("right", G)),
    (TestFunction(3.9, -1.0, 0.27, 0.93), ("left", G)),
]
# supports reaching down to a = 1e-4 and 1e-2, where 1/a^2 needs depth 7+ and 6
HARD = (TestFunction(0.5, 0.0, 0.4999, 0.5), None)
HARDISH = (TestFunction(0.5, 0.0, 0.49, 0.5), ("left", AffineElement(1.0, 0.5)))


def _alone_raises(item, tol, max_depth):
    with pytest.raises(ToleranceNotReached) as info:
        integrate(*item, tol=tol, max_depth=max_depth)
    error = info.value
    return error.depth, error.active_cells, error.estimate.hex()


def _batch_raises(items, tol, max_depth):
    with pytest.raises(ToleranceNotReached) as info:
        axb._integrate_batch(items, tol, max_depth)
    error = info.value
    return error.depth, error.active_cells, error.estimate.hex()


# converge at tol 1e-8 by depth 6
DEEP = [
    (TestFunction(0.5, 0.0, 0.45, 0.5), None),
    (TestFunction(0.5, 0.0, 0.49, 0.5), ("right", G)),
    HARDISH,
]


@pytest.mark.parametrize("items, max_depth", [(EASY, 1), (EASY + DEEP, 30)])
def test_batch_values_are_the_integrate_values(items, max_depth):
    got = axb._integrate_batch(items, 1e-8, max_depth)
    assert [v.hex() for v in got] == [integrate(*item, max_depth=max_depth).hex() for item in items]


def test_batch_raises_what_its_failing_owner_raises_alone():
    expected = _alone_raises(HARD, 1e-8, 1)
    assert _batch_raises(EASY[:1] + [HARD] + EASY[1:], 1e-8, 1) == expected


def test_batch_raises_for_its_first_failing_owner():
    # both fail at depth 2; the one earlier in the batch is named
    first, second = _alone_raises(HARDISH, 1e-8, 2), _alone_raises(HARD, 1e-8, 2)
    assert first != second
    assert _batch_raises([EASY[0], HARDISH, EASY[1], HARD], 1e-8, 2) == first
    assert _batch_raises([HARD, EASY[2], HARDISH], 1e-8, 2) == second


def test_cell_cap_counts_the_whole_batch(monkeypatch):
    # alone, HARD passes 20 active cells at depth 3 (32 cells); beside
    # HARDISH the batch passes 20 at depth 2 (16 + 16), and the error
    # names HARD, the first active owner, with its own 16 cells and its
    # estimate at depth 2
    _, _, at_depth_2 = _alone_raises(HARD, 1e-8, 2)
    monkeypatch.setattr(axb, "_MAX_ACTIVE_CELLS", 20)
    depth, cells, _ = _alone_raises(HARD, 1e-8, 30)
    assert (depth, cells) == (3, 32)
    depth, cells, estimate = _batch_raises([HARD, HARDISH], 1e-8, 30)
    assert (depth, cells) == (2, 16)
    assert float.fromhex(estimate) == pytest.approx(float.fromhex(at_depth_2), rel=1e-12)


@pytest.mark.parametrize("bump, translate, points, value", [
    ((2.0, 0.0, 0.4, 0.6), None, 320, "0x1.a0735f5a594e0p-5"),
    ((1.2, 2.5, 0.5, 1.5), ("left", AffineElement(0.6, 2.0)), 1344, "0x1.d9df2aa62d760p-2"),
    ((0.5, 0.0, 0.45, 0.5), None, 11584, "0x1.1943dbe125552p+0"),
    ((0.5, 0.0, 0.49, 0.5), ("right", AffineElement(1.7, -1.9)), 50496, "0x1.28e65c920a371p+1"),
    ((0.8, 0.0, 0.76, 1.5), None, 23872, "0x1.2bc6fd3842f79p+1"),
])
def test_integrate_gives_the_unbatched_points_and_values(bump, translate, points, value):
    # what the one-integral quadrature gave; the benchmark's per-integral
    # point probe compares against these counts.  The last three bank many
    # cells in one wave, where summing them by np.add.reduceat (all three)
    # or np.bincount (the last) parts from .sum() in the last bit
    f = CountingBump(*bump)
    assert integrate(f, translate).hex() == value
    assert f.points == points


def test_suite_memory_does_not_grow_with_its_trials():
    # the suite integrates chunk by chunk, so ten chunks peak where one does
    def peak(trials):
        tracemalloc.start()
        try:
            run_verification_suite(trials=trials, seed=1, arithmetic_pairs=0, jacobian_points=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10 * CHUNK) <= 1.2 * peak(CHUNK)


# ---------------------------------------------------------------------------
# The scalar checks in numpy blocks: every max_errors entry, and every
# exception, is the one-element-at-a-time suite's (tests/axb_oracle.py).

BLOCK = axb._BLOCK


def _block_suite(**kwargs):
    try:
        report = run_verification_suite(**kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return {name: err.hex() for name, err in report["max_errors"].items()}


def _scalar_suite(trials, seed, arithmetic_pairs, jacobian_points, jacobian_step=1e-4):
    try:
        errors = scalar_max_errors(trials, seed, arithmetic_pairs, jacobian_points,
                                   jacobian_step=jacobian_step)
    except Exception as exc:
        return type(exc), str(exc)
    return {name: err.hex() for name, err in errors.items()}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("pairs", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 1000])
@pytest.mark.parametrize("points", [0, 1, 10])
def test_blocks_give_the_scalar_suites_errors_to_the_bit(seed, pairs, points):
    counts = dict(trials=1, seed=seed, arithmetic_pairs=pairs, jacobian_points=points)
    assert _block_suite(**counts) == _scalar_suite(**counts)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("trials", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunk_jacobians_give_the_scalar_suites_errors_to_the_bit(seed, trials):
    counts = dict(trials=trials, seed=seed, arithmetic_pairs=BLOCK + 1, jacobian_points=10)
    assert _block_suite(**counts) == _scalar_suite(**counts)


def test_a_stencil_outside_the_domain_raises_what_the_scalar_suite_raises():
    # a step that carries some stencil to a <= 0 raises for the point or
    # trial the scalar loop reached first; in a chunk, trial i's left
    # stencil (at g^-1) comes before its right one (at the identity, which
    # fails for every trial once the step reaches 1)
    messages = set()
    for step in (0.3, 0.6, 0.99, 1.0, 1.5, 3.0):
        for points in (0, 10):
            for seed in range(6):
                counts = dict(trials=CHUNK + 2, seed=seed, arithmetic_pairs=2,
                              jacobian_points=points)
                got = _block_suite(jacobian_step=step, **counts)
                assert got == _scalar_suite(jacobian_step=step, **counts), (step, points, seed)
                if isinstance(got, tuple):
                    assert got[0] is StencilOutOfDomain
                    messages.add(got[1])
    # the right stencil of trial 0 came first, though later trials' left ones fail too
    assert "stencil reaches a = 0.0 <= 0" in messages
    assert "stencil reaches a = -0.5 <= 0" in messages
    assert len(messages) > 20


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1e-4])
def test_suite_refuses_a_bad_jacobian_step_before_any_work(step, monkeypatch):
    # nan ran every arithmetic pair and then failed inside AffineElement;
    # inf failed as a stencil reaching a = -inf
    def no_work(*args):
        raise AssertionError("the suite drew before refusing its step")

    monkeypatch.setattr(axb, "_uniform_block", no_work)
    with pytest.raises(ValueError, match=r"^jacobian_step must be finite and above 0"):
        run_verification_suite(trials=1, jacobian_step=step)


def test_suite_memory_does_not_grow_with_its_pairs_and_points():
    # the arithmetic pairs and Jacobian points run block by block, so ten
    # blocks of each peak where one does
    def peak(blocks):
        tracemalloc.start()
        try:
            run_verification_suite(trials=1, seed=1, arithmetic_pairs=blocks * BLOCK,
                                   jacobian_points=blocks * BLOCK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10) <= 1.2 * peak(1)
