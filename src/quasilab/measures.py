"""Pushforward calculus and quasi-invariant measures on finite quasigroups.

Everything here is exact rational arithmetic: the statements being
verified are identities, and a float comparison could neither confirm
nor refute them at the boundary.

The central finite phenomenon: a permutation pushforward preserves total
mass, so (L_a)_* mu = j(a) mu forces j(a) = 1 whenever mu is a nonzero
finite measure.  Quasi-invariant therefore means invariant here: the
solutions are the functions constant on the orbits of the 2n
translations.  Every column of a Latin square holds every element, so
the left translations alone are transitive, and the solutions are always
the ray of the counting measure.  solve_quasi_invariant states that
answer by theorem; the tests compute it by orbits and ratio tests as the
independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cayley import FiniteQuasigroup
from .perm import DegreeMismatch, Perm


class Measure:
    """Nonnegative rational weights with positive total mass."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = tuple(x if type(x) is Fraction else Fraction(x) for x in weights)
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
        v = tuple(x if type(x) is Fraction else Fraction(x) for x in values)
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


def solve_quasi_invariant(q: FiniteQuasigroup) -> QuasiInvariantSolution:
    """Solve (L_a)_* mu = j(a) mu and (R_a)_* mu = rho(a) mu over Q.

    Precondition: q's table is Latin, as validate_cayley and the CLI's
    table loader enforce.  Then the answer is settled by theorem.  Mass
    conservation forces j = rho = 1, so the solutions are the functions
    constant on each orbit of the 2n translations.  Column y holds every
    element, so L_a(y) = a*y runs over all of Q as a varies: the left
    translations alone are transitive, the basis is the one indicator of
    Q, and the measure is the counting measure.
    """
    n = q.order
    explanation = {
        "reason": "mass-conservation",
        "statement": (
            "a permutation pushforward preserves total mass, so "
            "(L_a)_*mu = j(a)*mu implies j(a)*mass(mu) = mass(mu); "
            "with 0 < mass(mu) < infinity this forces j(a) = 1 for "
            "every a, and likewise rho(a) = 1"
        ),
        "mass": str(n),
        "forced_value": "1",
    }
    return QuasiInvariantSolution(
        dimension=1,
        basis=((Fraction(1),) * n,),
        measure=Measure.counting(n),
        left_cocycle=Cocycle.constant(n),
        right_cocycle=Cocycle.constant(n),
        degenerate=True,
        description="positive multiples of the counting measure",
        explanation=explanation,
    )


def verify_cocycle_relation(q: FiniteQuasigroup, j: Cocycle, rho: Cocycle) -> PairCheck:
    """Check j(x*y) rho(y) = j(x) j(y) rho(y) for all pairs, exactly.

    j and rho each need one value per element: DegreeMismatch otherwise.
    """
    n = q.order
    if len(j) != n or len(rho) != n:
        raise DegreeMismatch(f"cocycle lengths {len(j)}, {len(rho)} != order {n}")
    for x in range(n):
        for y in range(n):
            if j[q.table[x][y]] * rho[y] != j[x] * j[y] * rho[y]:
                return PairCheck(False, (x, y))
    return PairCheck(True)


def check_multiplicative(j: Cocycle, q: FiniteQuasigroup) -> PairCheck:
    """Check j(x*y) = j(x) j(y) for all pairs, exactly: the relation at rho = 1."""
    return verify_cocycle_relation(q, j, Cocycle.constant(q.order))
