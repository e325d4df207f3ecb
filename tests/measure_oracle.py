"""Quasi-invariant measures by orbits and ratio tests: the tests' oracle.

The package settles the invariant measures of a Latin square by theorem:
the left translations are transitive, so the answer is always the ray of
the counting measure with trivial cocycles.  This module works the same
answer out without that theorem.  The invariant measures are the
functions constant on the orbits of all 2n translations, so the basis is
one indicator per orbit and the measure is their sum.  Each cocycle value
is then read off by the exact ratio test (T_* mu = c mu), so a wrong
basis shows as a missing or non-unit ratio.  The functoriality check of
pushforward lives here too, as only the tests call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from quasilab.measures import Measure, pushforward
from quasilab.perm import orbits


@dataclass(frozen=True)
class OrbitSolution:
    dimension: int
    basis: tuple[tuple[Fraction, ...], ...]
    measure: Measure
    left_ratios: tuple[Fraction | None, ...]  # None where no ratio exists
    right_ratios: tuple[Fraction | None, ...]


def pushforward_functoriality_check(s, t, mu: Measure) -> bool:
    """(S o T)_* mu == S_*(T_* mu), exactly."""
    return pushforward(s @ t, mu) == pushforward(s, pushforward(t, mu))


def ratio(pushed: Measure, mu: Measure):
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


def solve_by_orbits(q) -> OrbitSolution:
    """The invariant measures of q from its translation orbits, mass n."""
    n = q.order
    translations = [q.left_translation(a) for a in range(n)]
    translations += [q.right_translation(a) for a in range(n)]
    parts = orbits([t.images for t in translations], n)
    basis = tuple(
        tuple(Fraction(1) if i in part else Fraction(0) for i in range(n))
        for part in parts
    )
    mu = Measure(map(sum, zip(*basis))).normalized(n)
    ratios = tuple(ratio(pushforward(t, mu), mu) for t in translations)
    return OrbitSolution(len(basis), basis, mu, ratios[:n], ratios[n:])
