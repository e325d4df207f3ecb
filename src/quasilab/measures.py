"""Pushforward calculus and quasi-invariant measures on finite quasigroups.

Everything here is exact rational arithmetic: the statements being
verified are identities, and a float comparison could neither confirm
nor refute them at the boundary.

The central finite phenomenon: a permutation pushforward preserves total
mass, so (L_a)_* mu = j(a) mu forces j(a) = 1 whenever mu is a nonzero
finite measure.  Quasi-invariant therefore means invariant here: the
solutions are the functions constant on the orbits of the 2n
translations, a connected-components question rather than a linear
system.  Transitivity of the left translations leaves one orbit, so the
solutions are the ray of the counting measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cayley import FiniteQuasigroup
from .perm import DegreeMismatch, Perm, orbits


class NoPositiveSolution(RuntimeError):
    """The solved measure failed the ratio test or mass conservation.

    Unreachable for a valid Cayley table: counting measure is always
    invariant.  Raised rather than asserted so a corrupted input fails
    loudly.
    """


class Measure:
    """Nonnegative rational weights with positive total mass."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = tuple(Fraction(x) for x in weights)
        if any(x < 0 for x in w):
            raise ValueError("negative weight")
        if not any(x > 0 for x in w):
            raise ValueError("zero measure")
        self.weights = w

    @classmethod
    def counting(cls, n: int) -> "Measure":
        return cls([Fraction(1)] * n)

    @property
    def degree(self) -> int:
        return len(self.weights)

    @property
    def mass(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    def scaled(self, c) -> "Measure":
        c = Fraction(c)
        return Measure([c * x for x in self.weights])

    def normalized(self, target_mass) -> "Measure":
        return self.scaled(Fraction(target_mass) / self.mass)

    def __eq__(self, other):
        return isinstance(other, Measure) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"Measure({[str(x) for x in self.weights]})"


class Cocycle:
    """A map Q -> positive rationals, indexed by element."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = tuple(Fraction(x) for x in values)
        if any(x <= 0 for x in v):
            raise ValueError("cocycle values must be positive")
        self.values = v

    @classmethod
    def constant(cls, n: int, value=1) -> "Cocycle":
        return cls([Fraction(value)] * n)

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]

    def __len__(self):
        return len(self.values)

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __eq__(self, other):
        return isinstance(other, Cocycle) and self.values == other.values

    def __repr__(self):
        return f"Cocycle({[str(x) for x in self.values]})"


def pushforward(t: Perm, mu: Measure) -> Measure:
    """(T_* mu)[i] = mu[T^-1(i)]; total mass is preserved."""
    if t.degree != mu.degree:
        raise DegreeMismatch(
            f"permutation degree {t.degree} != measure degree {mu.degree}"
        )
    out = [Fraction(0)] * mu.degree
    for j, w in zip(t.images, mu.weights):
        out[j] = w
    return Measure(out)


def pushforward_functoriality_check(s: Perm, t: Perm, mu: Measure) -> bool:
    """(S o T)_* mu == S_*(T_* mu), exactly."""
    return pushforward(s @ t, mu) == pushforward(s, pushforward(t, mu))


@dataclass(frozen=True)
class PairCheck:
    holds: bool
    counterexample: tuple[int, int] | None = None


@dataclass(frozen=True)
class QuasiInvariantSolution:
    dimension: int
    basis: tuple[tuple[Fraction, ...], ...]
    measure: Measure
    left_cocycle: Cocycle
    right_cocycle: Cocycle
    degenerate: bool
    description: str
    explanation: dict


def _ratio(pushed: Measure, mu: Measure):
    """The constant c with pushed = c * mu, or None if there is none.

    Coordinates where mu vanishes must vanish in pushed too; the ratio is
    read off the positive coordinates and must be shared by all of them.
    """
    c = None
    for p, m in zip(pushed.weights, mu.weights):
        if m == 0:
            if p != 0:
                return None
            continue
        r = p / m
        if c is None:
            c = r
        elif r != c:
            return None
    return c


def solve_quasi_invariant(q: FiniteQuasigroup) -> QuasiInvariantSolution:
    """Solve (L_a)_* mu = j(a) mu and (R_a)_* mu = rho(a) mu over Q.

    Mass conservation forces j = rho = 1, so the solutions are the common
    fixed points of all 2n translation permutations T, mu[T(i)] = mu[i]:
    exactly the functions constant on each orbit of the translations.
    The basis is the orbit indicators and the measure is their sum, the
    counting measure.  The cocycles are then read back off the measure by
    the ratio test as an independent confirmation of the forced value 1.
    """
    n = q.order
    translations = [q.left_translation(a) for a in range(n)]
    translations += [q.right_translation(a) for a in range(n)]
    parts = orbits([t.images for t in translations], n)
    basis = tuple(
        tuple(Fraction(1) if i in part else Fraction(0) for i in range(n))
        for part in parts
    )
    dimension = len(basis)
    # the sum of the indicators; the ratio test below re-checks its invariance
    mu = Measure(map(sum, zip(*basis))).normalized(n)

    ratios = [_ratio(pushforward(t, mu), mu) for t in translations]
    for a in range(n):
        if ratios[a] is None or ratios[n + a] is None:
            raise NoPositiveSolution(
                f"solved measure fails the ratio test at element {a}"
            )
    left = Cocycle(ratios[:n])
    right = Cocycle(ratios[n:])

    # Independent route to the same conclusion: pushforwards preserve
    # mass, so j(a) * mass = mass pins j(a) = 1 before any solving.
    mass = mu.mass
    if not (left.is_trivial() and right.is_trivial()):
        raise NoPositiveSolution("ratio test contradicts mass conservation")

    counting_like = dimension == 1
    description = (
        "positive multiples of the counting measure"
        if counting_like
        else f"solution space of dimension {dimension}"
    )
    explanation = {
        "reason": "mass-conservation",
        "statement": (
            "a permutation pushforward preserves total mass, so "
            "(L_a)_*mu = j(a)*mu implies j(a)*mass(mu) = mass(mu); "
            "with 0 < mass(mu) < infinity this forces j(a) = 1 for "
            "every a, and likewise rho(a) = 1"
        ),
        "mass": str(mass),
        "forced_value": "1",
    }
    return QuasiInvariantSolution(
        dimension=dimension,
        basis=basis,
        measure=mu,
        left_cocycle=left,
        right_cocycle=right,
        degenerate=True,
        description=description,
        explanation=explanation,
    )


def verify_cocycle_relation(q: FiniteQuasigroup, j: Cocycle, rho: Cocycle) -> PairCheck:
    """Check j(x*y) rho(y) = j(x) j(y) rho(y) for all pairs, exactly."""
    n = q.order
    for x in range(n):
        for y in range(n):
            if j[q.table[x][y]] * rho[y] != j[x] * j[y] * rho[y]:
                return PairCheck(False, (x, y))
    return PairCheck(True)


def check_multiplicative(j: Cocycle, q: FiniteQuasigroup) -> PairCheck:
    """Check j(x*y) = j(x) j(y) for all pairs, exactly."""
    n = q.order
    for x in range(n):
        for y in range(n):
            if j[q.table[x][y]] != j[x] * j[y]:
                return PairCheck(False, (x, y))
    return PairCheck(True)
