"""Positive multiplicative characters on finite quasigroups.

A character chi: Q -> (0, inf) with chi(x*y) = chi(x)chi(y) is handled
in log-coordinates c = log chi, where multiplicativity becomes the
linear system c[table[x][y]] = c[x] + c[y], an integer system with n
unknowns.  Its solution space is {0} on every finite magma, and two
routes say so.  solve_characters settles it by theorem (the squaring
argument in its docstring), reading nothing of the table.
positive_sum_certificate re-derives it from the raw table by pure integer
bookkeeping: on a Latin square, summing the defining equation over x for
fixed a gives chi(a) * S = S with S = sum chi(x) > 0, so chi(a) = 1.
The two routes must agree.

The same degeneracy settles the LMlt audit: L_a -> log chi(a) is well
defined on LMlt exactly when chi is trivial (representation_well_defined
gives the proof), so a trivial chi needs only |LMlt| from Schreier-Sims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .cayley import FiniteQuasigroup
from .permgroup import lmlt


class NotALoop(ValueError):
    def __init__(self):
        super().__init__("quasigroup has no two-sided identity")


class CapExceeded(RuntimeError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"left multiplication group exceeds {cap} elements")


class Character:
    """Stored as exact log-values: log_values[x] = log chi(x)."""

    __slots__ = ("log_values",)

    def __init__(self, log_values):
        self.log_values = tuple(Fraction(x) for x in log_values)

    @property
    def degree(self) -> int:
        return len(self.log_values)

    def log(self, x: int) -> Fraction:
        return self.log_values[x]

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.log_values)

    def is_multiplicative(self, q: FiniteQuasigroup) -> bool:
        _require_degree(q, self)
        c = self.log_values
        return all(
            c[q.table[x][y]] == c[x] + c[y]
            for x in range(q.order)
            for y in range(q.order)
        )

    def __eq__(self, other):
        return isinstance(other, Character) and self.log_values == other.log_values

    def __repr__(self):
        return f"Character(log={[str(x) for x in self.log_values]})"


def _require_degree(q: FiniteQuasigroup, chi: Character):
    if chi.degree != q.order:
        raise ValueError(f"character of degree {chi.degree} on a quasigroup of order {q.order}")


def solve_characters(q: FiniteQuasigroup) -> list[tuple[Fraction, ...]]:
    """Exact basis of {c : c[x*y] = c[x] + c[y] for all x, y}: always [].

    The space is {0} on every finite magma, so the table is not read.
    Put y = x: c[x*x] = 2 c[x].  The squaring sequence x_0 = x,
    x_{k+1} = x_k * x_k therefore has c[x_k] = 2^k c[x].  It lies in a
    finite set, so it is eventually periodic: x_{j+p} = x_j for some
    j >= 0 and p >= 1.  Then 2^j (2^p - 1) c[x] = 0, and since
    2^j (2^p - 1) is a nonzero integer, c[x] = 0.
    """
    return []


def positive_sum_certificate(q: FiniteQuasigroup) -> bool:
    """Certify dimension 0 from the raw table, apart from the theorem.

    For fixed a, summing the equation vectors e[a*x] - e[a] - e[x] over
    all x must give exactly -n * e[a]: row a of a Latin square is a
    permutation, so the e[a*x] terms cancel the e[x] terms.  When that
    holds for every a, each coordinate c[a] is forced to zero by
    equations already in the system's row span, so the solution space is
    {0}.  A table with a row that is not a permutation fails the check.
    """
    n = q.order
    for a in range(n):
        total = [0] * n
        for x in range(n):
            total[q.table[a][x]] += 1
            total[a] -= 1
            total[x] -= 1
        expected = [0] * n
        expected[a] = -n
        if total != expected:
            return False
    return True


def trivial_character(n: int) -> Character:
    return Character([0] * n)


def check_normalization(q: FiniteQuasigroup, chi: Character) -> bool:
    """chi(e) = 1, i.e. log-value 0 at the identity.  NotALoop if no e."""
    _require_degree(q, chi)
    e = q.find_identity()
    if e is None:
        raise NotALoop()
    return chi.log(e) == 0


@dataclass(frozen=True)
class RepresentationAudit:
    well_defined: bool
    conflict: tuple[tuple[int, ...], tuple[int, ...]] | None
    group_order: int
    homomorphism: bool
    pairs_checked: int


def representation_well_defined(
    q: FiniteQuasigroup,
    chi: Character,
    element_cap: int = 10**6,
    pair_budget: int = 10000,
) -> RepresentationAudit:
    """Audit pi(L_a) = chi(a) as a map on LMlt(Q).

    The map is well defined exactly when chi is trivial.  A breadth-first
    closure over words in the generators L_0, ..., L_{n-1} gives each
    permutation the log-sum of chi along its first word; with no conflict
    it has compared value(p o L_a) with value(p) + log chi(a) on every
    element p and every generator a, found them equal, and given the
    identity value 0.  Induction on the length of a word for h then gives
    value(g o h) = value(g) + value(h) for all g and h: for h = h' o L_a,
    value(g o h' o L_a) = value(g o h') + log chi(a)
                        = value(g) + value(h') + log chi(a)
                        = value(g) + value(h).
    So a conflict-free closure is a homomorphism from the finite group
    LMlt into (Q, +).  Its image is a finite subgroup of a torsion-free
    group, hence {0}, and log chi(a) = value(L_a) = 0 for every a.
    Conversely a trivial chi gives every word the value 0.

    A trivial chi is therefore audited without words: group_order is
    |LMlt| from the Schreier-Sims chain lmlt(q), and pairs_checked
    reports the homomorphism pairs certified, min(pair_budget, |LMlt|^2),
    and 0 for a negative budget.  CapExceeded is raised exactly when the
    closure would have raised it: when |LMlt| > max(element_cap, 1).

    For a non-trivial chi the closure runs only to locate the first
    conflict (shorter words first, lexicographic within a length),
    reported as the pair of words with the element count reached so far;
    it raises CapExceeded on inserting element element_cap + 1 first.
    The log-values are scaled once to integers over their common
    denominator, so the closure adds and compares plain ints.  Scaling by
    a positive integer preserves every sum and every equality, so the
    conflict is the one the rational log-values give.
    """
    _require_degree(q, chi)
    n = q.order
    if chi.is_trivial():
        group_order = lmlt(q).order
        if group_order > max(element_cap, 1):
            raise CapExceeded(element_cap)
        return RepresentationAudit(
            well_defined=True,
            conflict=None,
            group_order=group_order,
            homomorphism=True,
            pairs_checked=max(0, min(pair_budget, group_order**2)),
        )

    identity = tuple(range(n))
    # right-composition with L_a is a fixed index gather, done by itemgetter
    if n == 1:
        actions = [lambda p: (p[0],)]
    else:
        actions = [itemgetter(*row) for row in q.table]
    common = lcm(*(c.denominator for c in chi.log_values))
    steps = [c.numerator * (common // c.denominator) for c in chi.log_values]
    absent = object()

    # word (a1, ..., ak) denotes L_{a1} o ... o L_{ak}; values are the
    # log-sums along first words, times common
    values: dict[tuple, int] = {identity: 0}
    words: dict[tuple, tuple[int, ...]] = {identity: ()}
    frontier: list[tuple] = [identity]
    while frontier:
        next_frontier = []
        for perm in frontier:
            base_word = words[perm]
            base_value = values[perm]
            for a in range(n):
                new_perm = actions[a](perm)
                new_value = base_value + steps[a]
                existing = values.get(new_perm, absent)
                if existing is not absent:
                    if existing != new_value:
                        return RepresentationAudit(
                            well_defined=False,
                            conflict=(words[new_perm], base_word + (a,)),
                            group_order=len(values),
                            homomorphism=False,
                            pairs_checked=0,
                        )
                    continue
                if len(values) >= element_cap:
                    raise CapExceeded(element_cap)
                values[new_perm] = new_value
                words[new_perm] = base_word + (a,)
                next_frontier.append(new_perm)
        frontier = next_frontier

    raise RuntimeError(
        f"internal error: a non-trivial character met no conflict on LMlt of order {len(values)}"
    )
