"""Numeric verification of Haar measure facts on the ax+b group.

The group is G = {(a, b) : a > 0} with (a,b)(a',b') = (aa', b + ab'),
left Haar density da db / a^2, modular function Delta(a,b) = 1/a.  This
module checks, in double precision: the group axioms, the two Jacobian
determinants (alpha^2 for left translation, alpha for right), left
invariance of the Haar integral, the right-translation scaling
(R_(alpha,beta))_* mu = alpha mu, its agreement with
Delta(g^-1) = |det Ad(g)| from the Jacobian of conjugation, and
multiplicativity of Delta.

Unlike the finite modules this one is inherently approximate; tolerances
are part of every contract.  Test functions are compactly supported
polynomial bumps so that supports, and their pullbacks under the
translations being tested, stay inside {a > 0} where the density is
finite.  Each integral runs over the exact pullback of the support box:
a box for the identity and left translations, a sheared box (a
parallelogram) for right translations, so no quadrature cell straddles
a support edge.

The quadrature runs a batch of integrals, its owners, in shared waves of
numpy calls, each owner to its own tolerance and summed in its own
order, so every value is bit-identical to integrating that owner alone.
integrate is a batch of one; run_verification_suite integrates its
trials _CHUNK_TRIALS at a time.  A batch that fails raises
ToleranceNotReached for its first still-active owner; its active cells
together are capped at _MAX_ACTIVE_CELLS.

The suite's scalar checks run in numpy blocks too: its arithmetic pairs
and Jacobian points _BLOCK at a time, and each chunk's Delta(g^-1)
Jacobians with the chunk.  There is one set of formulas: affine_mul,
affine_inv, modular_function, numeric_jacobian and _rel_err take floats
or arrays alike (an AffineElement may hold a block as two arrays), and
elementwise float64 arithmetic rounds as Python's does, so a block gives
every value of the scalar loop bit for bit and raises for the first
element the scalar loop would have raised for.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


class SupportOutOfDomain(ValueError):
    """A support box (or its pullback) touches the boundary a <= 0."""


class StencilOutOfDomain(ValueError):
    """A finite-difference stencil would leave {a > 0}."""


class ToleranceNotReached(RuntimeError):
    def __init__(self, depth: int, active_cells: int, estimate: float):
        self.depth = depth
        self.active_cells = active_cells
        self.estimate = estimate
        super().__init__(
            f"quadrature not converged after depth {depth} "
            f"({active_cells} cells still active, estimate {estimate!r})"
        )


def _first_not_above_zero(x):
    """The first entry of x (a float or an array) that is not above 0, or None."""
    if not isinstance(x, np.ndarray):
        return None if x > 0 else x
    bad = np.flatnonzero(~(x > 0))
    return x.flat[bad[0]].item() if bad.size else None


@dataclass(frozen=True)
class AffineElement:
    """(a, b) with a > 0; a and b are floats, or arrays holding a block of elements."""

    a: float
    b: float

    def __post_init__(self):
        bad = _first_not_above_zero(self.a)
        if bad is not None:
            raise ValueError(f"scale must be positive, got {bad}")


IDENTITY = AffineElement(1.0, 0.0)


def affine_mul(g: AffineElement, h: AffineElement) -> AffineElement:
    """(a,b)(a',b') = (aa', b + ab')."""
    return AffineElement(g.a * h.a, g.b + g.a * h.b)


def affine_inv(g: AffineElement) -> AffineElement:
    """(a,b)^-1 = (1/a, -b/a)."""
    return AffineElement(1.0 / g.a, -g.b / g.a)


def haar_density(p: AffineElement) -> float:
    """Left Haar density 1/a^2 at p."""
    return 1.0 / (p.a * p.a)


def modular_function(g: AffineElement) -> float:
    """Delta(a, b) = 1/a."""
    return 1.0 / g.a


def _bump(a, b, ca, cb, ra, rb, k):
    """(1 - ta^2)^k (1 - tb^2)^k clamped at 0, ta = (a - ca)/ra, tb = (b - cb)/rb.

    The centres and radii may be scalars or arrays broadcast against a
    and b; the arithmetic per point is the same either way.
    """
    ta = (a - ca) / ra
    tb = (b - cb) / rb
    pa = np.maximum(0.0, 1.0 - ta * ta) ** k
    pb = np.maximum(0.0, 1.0 - tb * tb) ** k
    return pa * pb


@dataclass(frozen=True)
class TestFunction:
    """Polynomial bump supported on [a0-ra, a0+ra] x [b0-rb, b0+rb].

    value = (1 - ta^2)^k (1 - tb^2)^k inside the box, 0 outside, where
    ta, tb are the box-normalized coordinates.  C^(k-1) smooth; values
    in [0, 1].  The support box must sit strictly inside {a > 0}.
    """

    center_a: float
    center_b: float
    radius_a: float
    radius_b: float
    smoothness: int = 3

    def __post_init__(self):
        box = (self.center_a, self.center_b, self.radius_a, self.radius_b)
        if not all(math.isfinite(x) for x in box):
            # a nan or infinite box refines to the cell cap before it fails
            raise ValueError(f"centre and radii must be finite, got {box}")
        if self.radius_a <= 0 or self.radius_b <= 0:
            raise ValueError("radii must be positive")
        if self.smoothness < 1:
            raise ValueError("smoothness must be >= 1")
        if self.center_a - self.radius_a <= 0:
            raise SupportOutOfDomain(
                f"support reaches a = {self.center_a - self.radius_a} <= 0"
            )

    @property
    def support(self) -> tuple[float, float, float, float]:
        return (
            self.center_a - self.radius_a,
            self.center_a + self.radius_a,
            self.center_b - self.radius_b,
            self.center_b + self.radius_b,
        )

    def values(self, a, b):
        """Vectorized evaluation; accepts scalars or numpy arrays."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return _bump(
            a, b, self.center_a, self.center_b, self.radius_a, self.radius_b, self.smoothness
        )

    def __call__(self, a, b):
        return self.values(a, b)


def _check_stencil(a, h: float) -> None:
    """Raise StencilOutOfDomain for the first stencil centred at a whose a - h <= 0.

    a is a float or an array, read in row-major order.
    """
    low = _first_not_above_zero(a - h)
    if low is not None:
        raise StencilOutOfDomain(f"stencil reaches a = {low} <= 0")


def numeric_jacobian(side: str, g: AffineElement, p: AffineElement, h: float = 1e-4) -> float:
    """Central-difference Jacobian determinant of L_g or R_g at p.

    side "left": p -> g p; side "right": p -> p g.  g and p must be
    finite, h finite and above 0, and the four-point stencil must stay
    inside {a > 0}.  g and p may hold blocks; the result is then an
    array, and a stencil outside the domain raises for its first point.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _require_finite_positive("h", h)
    _require_finite("g", g)
    _require_finite("p", p)
    _check_stencil(p.a, h)

    def phi(a: float, b: float) -> AffineElement:
        q = AffineElement(a, b)
        return affine_mul(g, q) if side == "left" else affine_mul(q, g)

    up = phi(p.a + h, p.b)
    um = phi(p.a - h, p.b)
    vp = phi(p.a, p.b + h)
    vm = phi(p.a, p.b - h)
    du_da = (up.a - um.a) / (2 * h)
    dv_da = (up.b - um.b) / (2 * h)
    du_db = (vp.a - vm.a) / (2 * h)
    dv_db = (vp.b - vm.b) / (2 * h)
    return du_da * dv_db - du_db * dv_da


_GL_NODES, _GL_WEIGHTS = leggauss(8)
_GL_W2 = np.outer(_GL_WEIGHTS, _GL_WEIGHTS)

# active cells of a whole batch, summed over its owners
_MAX_ACTIVE_CELLS = 200000


def _gl_cells(func, cells: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Tensor Gauss-Legendre (8x8) on each cell; cells is (m, 4), owner (m,)."""
    x0, x1, y0, y1 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    hx = (x1 - x0) / 2.0
    hy = (y1 - y0) / 2.0
    xs = (x0 + x1)[:, None] / 2.0 + hx[:, None] * _GL_NODES[None, :]
    ys = (y0 + y1)[:, None] / 2.0 + hy[:, None] * _GL_NODES[None, :]
    vals = func(xs[:, :, None], ys[:, None, :], owner)
    return hx * hy * np.einsum("mij,ij->m", vals, _GL_W2)


def _subdivide(cells: np.ndarray) -> np.ndarray:
    """Split each cell into 4 quadrants, contiguous per parent."""
    x0, x1, y0, y1 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    xm = (x0 + x1) / 2.0
    ym = (y0 + y1) / 2.0
    m = len(cells)
    children = np.empty((m, 4, 4))
    children[:, 0] = np.stack([x0, xm, y0, ym], axis=1)
    children[:, 1] = np.stack([x0, xm, ym, y1], axis=1)
    children[:, 2] = np.stack([xm, x1, y0, ym], axis=1)
    children[:, 3] = np.stack([xm, x1, ym, y1], axis=1)
    return children.reshape(4 * m, 4)


def _adaptive_quadrature(func, boxes, tol: float, max_depth: int) -> list[float]:
    """Adaptive tensor-GL integrals over a batch of boxes, each to relative tol.

    Box i is owner i.  func(a, b, owner) evaluates the integrand of each
    cell's owner at that cell's nodes.  Wave-based: every active cell is
    compared against the sum of its four children; cells meeting their
    owner's area-proportional share of its absolute tolerance (tol times
    the owner's first fine estimate) are banked, the rest stay active one
    level deeper.  One wave serves every active owner at once, and an
    owner drops out once it has no active cell.  The cells of an owner
    stay a contiguous run in owner order, and its banked cells are summed
    as one slice per wave, so each result is bit-identical to a batch of
    that owner alone and deterministic.

    Raises ToleranceNotReached instead of returning a silently
    unconverged value: after max_depth, or once the whole batch holds
    more than _MAX_ACTIVE_CELLS active cells, for the first still-active
    owner in batch order, with that owner's depth, cells and estimate.
    A batch of one raises exactly as the owner alone; in a larger batch
    only the cell cap can fire at an earlier depth than the owner alone
    would, because the other owners' cells count towards it.
    """
    cells = np.array(boxes, dtype=float).reshape(-1, 4)
    n = len(cells)
    total_area = (cells[:, 1] - cells[:, 0]) * (cells[:, 3] - cells[:, 2])
    if (total_area <= 0).any():
        raise ValueError("empty integration box")
    owner = np.arange(n)
    coarse = _gl_cells(func, cells, owner)
    accepted = [0.0] * n
    tol_abs = None
    for depth in range(max_depth + 1):
        children = _subdivide(cells)
        child_owner = np.repeat(owner, 4)
        child_vals = _gl_cells(func, children, child_owner)
        fine = child_vals.reshape(-1, 4).sum(axis=1)
        if tol_abs is None:
            # every owner starts with one cell, so fine is its first estimate
            tol_abs = tol * np.maximum(np.abs(fine), 1e-300)
        areas = (cells[:, 1] - cells[:, 0]) * (cells[:, 3] - cells[:, 2])
        err = np.abs(fine - coarse)
        accept = err <= tol_abs[owner] * (areas / total_area[owner])
        banked = fine[accept]
        counts = np.bincount(owner[accept], minlength=n).tolist()
        end = 0
        for o, count in enumerate(counts):
            if count:
                accepted[o] += float(banked[end:end + count].sum())
                end += count
        keep = ~accept
        if not keep.any():
            return accepted
        child_keep = np.repeat(keep, 4)
        cells = children[child_keep]
        coarse = child_vals[child_keep]
        owner = child_owner[child_keep]
        if len(cells) > _MAX_ACTIVE_CELLS:
            break
    # the first still-active owner's cells lead the active cells
    first = int(owner[0])
    own = int((owner == first).sum())
    if len(cells) > _MAX_ACTIVE_CELLS:
        # and its kept parents lead fine[keep]
        estimate = accepted[first] + float(fine[keep][: own // 4].sum())
        raise ToleranceNotReached(depth, own, estimate)
    raise ToleranceNotReached(max_depth, own, accepted[first] + float(coarse[:own].sum()))


def _require_finite_positive(name: str, value: float) -> None:
    # nan compares false and inf accepts anything, so both are refused
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and above 0, got {value}")


def _require_finite(name: str, g: AffineElement) -> None:
    # here, not in AffineElement: the suite's arithmetic makes thousands of them
    if isinstance(g.a, float) and isinstance(g.b, float):
        finite = math.isfinite(g.a) and math.isfinite(g.b)
    else:  # a block of elements
        finite = np.isfinite(g.a).all() and np.isfinite(g.b).all()
    if not finite:
        raise ValueError(f"{name} must be finite, got {g}")


def _pulled_back_box(f: TestFunction, translate) -> tuple[float, float, float, float]:
    """Exact integration box of {p : T(p) in supp f} for T absent, L_g, or R_g.

    For T absent or L_g the pullback is a box, returned in the (a, b)
    coordinates of p.  For R_g it is a parallelogram, returned as the box
    of the unit-Jacobian shear (a, s) -> p = (a, s - beta a) that maps
    onto it.  g must be finite, and the box must lie in {a > 0}.
    """
    a_lo, a_hi, b_lo, b_hi = f.support
    box = (a_lo, a_hi, b_lo, b_hi)
    if translate is not None:
        side, g = translate
        _require_finite("translation element", g)
        alpha, beta = g.a, g.b
        if side == "left":
            # L_g(p) = (alpha p.a, beta + alpha p.b): box maps to box
            box = (a_lo / alpha, a_hi / alpha, (b_lo - beta) / alpha, (b_hi - beta) / alpha)
        elif side == "right":
            # R_g(p) = (alpha p.a, p.b + beta p.a) sends the sheared box onto
            # supp f: s = p.b + beta p.a runs over [b_lo, b_hi]
            box = (a_lo / alpha, a_hi / alpha, b_lo, b_hi)
        else:
            raise ValueError(f"translate side must be 'left' or 'right', got {side!r}")
    if box[0] <= 0:
        raise SupportOutOfDomain(f"pulled-back support reaches a = {box[0]} <= 0")
    return box


def _image(side, alpha, beta, a, b):
    """T(p) at the integration point (a, b) of T's pulled-back box.

    For R_g the point is (a, s) in the sheared coordinates, p = (a, s - beta a),
    and R_g p = (alpha a, p.b + beta a).
    """
    if side is None:
        return a, b
    if side == "left":
        return alpha * a, beta + alpha * b
    return alpha * a, (b - beta * a) + beta * a


def integrate(
    f: TestFunction,
    translate: tuple[str, AffineElement] | None = None,
    tol: float = 1e-8,
    max_depth: int = 30,
) -> float:
    """Integral of f(T(p)) / a^2 da db over the exact pullback of supp f.

    translate is None (T = identity), ("left", g) for T = L_g, or
    ("right", g) for T = R_g.  The pullback is a box for the identity and
    L_g, and a parallelogram for R_g, integrated in the sheared
    coordinates (a, s) with p = (a, s - beta a); the shear has Jacobian 1,
    so the integrand is still f(R_g p) / a^2.  The pullback must lie in
    {a > 0}, and g must be finite.  tol is relative and must be finite
    and above 0.  This is a quadrature batch of one; f is evaluated
    through f.values.
    """
    _require_finite_positive("tol", tol)
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    box = _pulled_back_box(f, translate)
    side, g = translate or (None, IDENTITY)

    def func(a, b, owner):
        return f.values(*_image(side, g.a, g.b, a, b)) / (a * a)

    return _adaptive_quadrature(func, [box], tol, max_depth)[0]


# trials integrated per quadrature batch: large enough to amortise numpy's
# per-call cost, small enough that the suite's memory does not grow with
# its trial count
_CHUNK_TRIALS = 64
_SIDES = (None, "left", "right")


def _integrate_batch(items, tol: float, max_depth: int) -> list[float]:
    """integrate(f, translate, tol, max_depth) of each (f, translate) in one batch.

    The integrand calls _bump with per-cell parameters instead of f.values,
    so every value is bit-identical to the integrate call.  The bumps must
    share one smoothness.
    """
    (k,) = {f.smoothness for f, _ in items}  # a scalar power, as in f.values
    boxes = [_pulled_back_box(f, translate) for f, translate in items]
    owners = [(f, *(translate or (None, IDENTITY))) for f, translate in items]
    sides = np.array([_SIDES.index(side) for _, side, _ in owners])
    params = np.array([
        (f.center_a, f.center_b, f.radius_a, f.radius_b, g.a, g.b) for f, _, g in owners
    ])

    def func(a, b, owner):
        out = np.empty((len(owner), a.shape[1], b.shape[2]))
        side = sides[owner]
        for code, name in enumerate(_SIDES):
            sel = side == code
            ca, cb, ra, rb, alpha, beta = params[owner[sel]].T[:, :, None, None]
            x, y = a[sel], b[sel]
            out[sel] = _bump(*_image(name, alpha, beta, x, y), ca, cb, ra, rb, k) / (x * x)
        return out

    return _adaptive_quadrature(func, boxes, tol, max_depth)


def _rel_err(x, y):
    return abs(x - y) / np.maximum(np.maximum(abs(x), abs(y)), 1e-300)


# arithmetic pairs or Jacobian points per numpy block: large enough to
# amortise numpy's per-call cost, small enough that the suite's memory does
# not grow with its counts
_BLOCK = 512


def _uniform_block(rng: random.Random, bounds, count: int) -> np.ndarray:
    """count rows of rng.uniform(lo, hi), one per (lo, hi) in bounds; returned by column.

    The draws are taken row by row, as a scalar loop takes them, and
    uniform(lo, hi) is lo + (hi - lo) * random(), so each value is the
    scalar draw bit for bit.
    """
    u = np.array([rng.random() for _ in range(count * len(bounds))]).reshape(count, -1)
    lo, hi = np.array(bounds).T
    return (lo + (hi - lo) * u).T


def _largest(*errors) -> float:
    """The largest entry of errors, floats or arrays."""
    return max(float(np.max(e)) for e in errors)


def _blocks(count: int, size: int) -> list[int]:
    """The sizes of the blocks of at most size that cover count items in turn."""
    return [min(size, count - first) for first in range(0, count, size)]


def _arithmetic_block(rng: random.Random, count: int) -> tuple[float, float, float]:
    """The largest associativity, inverse-law and Delta-multiplicativity errors of count pairs.

    An arithmetic pair draws three elements g, h, k.
    """
    element = ((0.1, 10.0), (-10.0, 10.0))
    ga, gb, ha, hb, ka, kb = _uniform_block(rng, element * 3, count)
    g, h, k = AffineElement(ga, gb), AffineElement(ha, hb), AffineElement(ka, kb)
    lhs = affine_mul(affine_mul(g, h), k)
    rhs = affine_mul(g, affine_mul(h, k))
    # the b-components are sums whose terms can nearly cancel, so
    # measure their difference against the term magnitudes, not the
    # (possibly tiny) result
    b_scale = np.maximum(
        np.maximum(abs(lhs.b), abs(rhs.b)),
        abs(g.b) + abs(g.a * h.b) + abs(g.a * h.a * k.b),
    )
    r = affine_mul(g, affine_inv(g))
    l = affine_mul(affine_inv(g), g)
    scale = np.maximum(1.0, abs(g.b))
    return (
        _largest(_rel_err(lhs.a, rhs.a), abs(lhs.b - rhs.b) / np.maximum(b_scale, 1e-300)),
        _largest(abs(r.a - 1.0), abs(r.b) / scale, abs(l.a - 1.0), abs(l.b) / scale),
        _largest(_rel_err(modular_function(affine_mul(g, h)),
                          modular_function(g) * modular_function(h))),
    )


def _jacobian_block(rng: random.Random, count: int, step: float) -> tuple[float, float]:
    """The largest errors of the left and right Jacobians at count points."""
    bounds = ((0.5, 3.0), (-5.0, 5.0), (0.5, 5.0), (-5.0, 5.0))
    ga, gb, pa, pb = _uniform_block(rng, bounds, count)
    g, p = AffineElement(ga, gb), AffineElement(pa, pb)
    # both stencils of a point sit at p, so the left call raises for the
    # first point whose stencil leaves the domain
    jl = numeric_jacobian("left", g, p, step)
    jr = numeric_jacobian("right", g, p, step)
    return _largest(_rel_err(jl, g.a * g.a)), _largest(_rel_err(jr, g.a))


def _trial_block(
    rng: random.Random, count: int, quad_tol: float, step: float
) -> tuple[float, float, float]:
    """The largest left-invariance, right-scaling and Delta(g^-1) errors of count trials.

    The trials' integrals are one quadrature batch.
    """
    chunk = []
    for _ in range(count):
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
    baseline, left, right = np.reshape(_integrate_batch(items, quad_tol, max_depth=30), (-1, 3)).T
    g = AffineElement(*np.array([(g.a, g.b) for _, g in chunk]).T)
    factor = right / baseline
    # Delta(g^-1) = |det Ad(g)|, Ad(g) the Jacobian of p -> g p g^-1 at the
    # identity: by the chain rule, R_(g^-1) at e and then L_g at g^-1.  Trial
    # by trial, the left stencil came before the right one, so the first of
    # them to leave the domain is named
    g_inv = affine_inv(g)
    _check_stencil(np.column_stack(np.broadcast_arrays(g_inv.a, IDENTITY.a)), step)
    det_ad = numeric_jacobian("left", g, g_inv, step) * numeric_jacobian(
        "right", g_inv, IDENTITY, step
    )
    return (
        _largest(_rel_err(left, baseline)),
        _largest(_rel_err(factor, g.a)),
        _largest(_rel_err(factor, abs(det_ad))),
    )


def run_verification_suite(
    trials: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    quad_tol: float = 1e-8,
    jacobian_step: float = 1e-4,
    arithmetic_pairs: int = 1000,
    jacobian_points: int = 10,
) -> dict:
    """Seeded end-to-end numeric audit; returns a JSON-ready report.

    Categories and tolerances: group axioms and Delta multiplicativity
    at 1e-12 relative (pure arithmetic); Jacobians, left invariance,
    right scaling, and the Delta(g^-1) consistency at tol (default
    1e-6) relative.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _require_finite_positive("tol", tol)
    _require_finite_positive("quad_tol", quad_tol)
    counts = (("arithmetic_pairs", arithmetic_pairs), ("jacobian_points", jacobian_points))
    for name, count in counts:
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    _require_finite_positive("jacobian_step", jacobian_step)
    start = time.perf_counter()
    rng = random.Random(seed)
    # block by block, in the order the draws are taken; a list of no blocks
    # leaves its maxima at 0
    arithmetic = [_arithmetic_block(rng, count) for count in _blocks(arithmetic_pairs, _BLOCK)]
    jacobians = [
        _jacobian_block(rng, count, jacobian_step) for count in _blocks(jacobian_points, _BLOCK)
    ]
    integrals = [
        _trial_block(rng, count, quad_tol, jacobian_step)
        for count in _blocks(trials, _CHUNK_TRIALS)
    ]
    max_assoc, max_inverse, max_modular = np.max([(0.0,) * 3, *arithmetic], axis=0).tolist()
    max_jac_left, max_jac_right = np.max([(0.0,) * 2, *jacobians], axis=0).tolist()
    max_left_inv, max_right_scale, max_delta_consistency = np.max(integrals, axis=0).tolist()

    elapsed = time.perf_counter() - start
    arithmetic_tol = 1e-12
    checks = {
        "associativity": (max_assoc, arithmetic_tol),
        "inverse_law": (max_inverse, arithmetic_tol),
        "modular_multiplicativity": (max_modular, arithmetic_tol),
        "jacobian_left": (max_jac_left, tol),
        "jacobian_right": (max_jac_right, tol),
        "left_invariance": (max_left_inv, tol),
        "right_scaling": (max_right_scale, tol),
        "modular_consistency": (max_delta_consistency, tol),
    }
    return {
        "kind": "axb-verify",
        "seed": seed,
        "trials": trials,
        "arithmetic_pairs": arithmetic_pairs,
        "jacobian_points": jacobian_points,
        "jacobian_step": jacobian_step,
        "quadrature_tolerance": quad_tol,
        "tolerance": tol,
        "arithmetic_tolerance": arithmetic_tol,
        "max_errors": {name: err for name, (err, _) in checks.items()},
        "failures": [name for name, (err, bound) in checks.items() if err > bound],
        "passed": all(err <= bound for err, bound in checks.values()),
        "elapsed": elapsed,
    }
