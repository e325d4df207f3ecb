"""The ax+b suite's checks one element at a time: the reference for its blocks.

run_verification_suite draws its arithmetic pairs, Jacobian points and
trials in seeded order and checks them in numpy blocks.  scalar_max_errors
is the suite as it ran before the blocks: one Python float at a time, each
pair, point and trial's Jacobians in turn, the integrals still one batch
per chunk.  Its max_errors, and the exception it raises, are the suite's.
"""

import random

from quasilab import axb
from quasilab.axb import (
    IDENTITY,
    AffineElement,
    TestFunction,
    affine_inv,
    affine_mul,
    modular_function,
)


def _rel_err(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def scalar_max_errors(
    trials: int,
    seed: int,
    arithmetic_pairs: int,
    jacobian_points: int,
    quad_tol: float = 1e-8,
    jacobian_step: float = 1e-4,
) -> dict:
    rng = random.Random(seed)

    def random_element(lo=0.1, hi=10.0):
        return AffineElement(rng.uniform(lo, hi), rng.uniform(-10.0, 10.0))

    max_assoc = max_inverse = max_modular = 0.0
    for _ in range(arithmetic_pairs):
        g = random_element()
        h = random_element()
        k = random_element()
        lhs = affine_mul(affine_mul(g, h), k)
        rhs = affine_mul(g, affine_mul(h, k))
        b_scale = max(
            abs(lhs.b),
            abs(rhs.b),
            abs(g.b) + abs(g.a * h.b) + abs(g.a * h.a * k.b),
        )
        max_assoc = max(
            max_assoc,
            _rel_err(lhs.a, rhs.a),
            abs(lhs.b - rhs.b) / max(b_scale, 1e-300),
        )
        r = affine_mul(g, affine_inv(g))
        l = affine_mul(affine_inv(g), g)
        scale = max(1.0, abs(g.b))
        max_inverse = max(
            max_inverse,
            abs(r.a - 1.0),
            abs(r.b) / scale,
            abs(l.a - 1.0),
            abs(l.b) / scale,
        )
        max_modular = max(
            max_modular,
            _rel_err(modular_function(affine_mul(g, h)),
                     modular_function(g) * modular_function(h)),
        )

    max_jac_left = max_jac_right = 0.0
    for _ in range(jacobian_points):
        g = AffineElement(rng.uniform(0.5, 3.0), rng.uniform(-5.0, 5.0))
        p = AffineElement(rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0))
        jl = axb.numeric_jacobian("left", g, p, jacobian_step)
        jr = axb.numeric_jacobian("right", g, p, jacobian_step)
        max_jac_left = max(max_jac_left, _rel_err(jl, g.a * g.a))
        max_jac_right = max(max_jac_right, _rel_err(jr, g.a))

    max_left_inv = max_right_scale = max_delta_consistency = 0.0
    for first in range(0, trials, axb._CHUNK_TRIALS):
        chunk = []
        for _ in range(min(axb._CHUNK_TRIALS, trials - first)):
            f = TestFunction(
                center_a=rng.uniform(1.0, 5.0),
                center_b=rng.uniform(-3.0, 3.0),
                radius_a=rng.uniform(0.2, 0.5),
                radius_b=rng.uniform(0.5, 1.5),
                smoothness=3,
            )
            g = AffineElement(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
            chunk.append((f, g))
        items = [(f, t) for f, g in chunk for t in (None, ("left", g), ("right", g))]
        values = axb._integrate_batch(items, quad_tol, max_depth=30)
        for i, (f, g) in enumerate(chunk):
            baseline, left, right = values[3 * i : 3 * i + 3]
            max_left_inv = max(max_left_inv, _rel_err(left, baseline))
            factor = right / baseline
            max_right_scale = max(max_right_scale, _rel_err(factor, g.a))
            g_inv = affine_inv(g)
            det_ad = axb.numeric_jacobian("left", g, g_inv, jacobian_step) * axb.numeric_jacobian(
                "right", g_inv, IDENTITY, jacobian_step
            )
            max_delta_consistency = max(max_delta_consistency, _rel_err(factor, abs(det_ad)))

    return {
        "associativity": max_assoc,
        "inverse_law": max_inverse,
        "modular_multiplicativity": max_modular,
        "jacobian_left": max_jac_left,
        "jacobian_right": max_jac_right,
        "left_invariance": max_left_inv,
        "right_scaling": max_right_scale,
        "modular_consistency": max_delta_consistency,
    }
