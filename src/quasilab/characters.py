"""Positive multiplicative characters on finite quasigroups.

A character chi: Q -> (0, inf) with chi(x*y) = chi(x)chi(y) is handled
in log-coordinates c = log chi, where multiplicativity becomes the
linear system c[table[x][y]] = c[x] + c[y], an integer system with n
unknowns.  Its rank modulo the prime 2^61 - 1 is a lower bound for its
rank over the rationals, so full rank mod p certifies the solution space
{0} exactly with machine-sized integers.  Only a rank deficient mod p
falls back to exact rational elimination (linalg.nullspace), which then
decides the space outright.

On any finite quasigroup that space is {0}: summing the defining
equation over x for fixed a gives chi(a) * S = S with S = sum chi(x) > 0,
so chi(a) = 1.  positive_sum_certificate re-derives the same conclusion
from the raw table by pure integer bookkeeping, with no shared code with
the elimination; the two routes must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, lcm
from operator import itemgetter

from .cayley import FiniteQuasigroup
from .linalg import nullspace
from .perm import compose_images


# a Mersenne prime: residues stay below 2^61, products below 2^122
PRIME = 2**61 - 1


class NotALoop(ValueError):
    def __init__(self):
        super().__init__("quasigroup has no two-sided identity")


class CapExceeded(RuntimeError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"left multiplication group exceeds {cap} elements")


class Character:
    """Stored as exact log-values; chi(x) = exp(log_values[x])."""

    __slots__ = ("log_values",)

    def __init__(self, log_values):
        self.log_values = tuple(Fraction(x) for x in log_values)

    @classmethod
    def trivial(cls, n: int) -> "Character":
        return cls([Fraction(0)] * n)

    @property
    def degree(self) -> int:
        return len(self.log_values)

    def log(self, x: int) -> Fraction:
        return self.log_values[x]

    def value(self, x: int) -> float:
        return exp(self.log_values[x])

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.log_values)

    def is_multiplicative(self, q: FiniteQuasigroup) -> bool:
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


def rank_mod_p(rows, ncols: int) -> int:
    """Rank of the integer rows over the field of PRIME elements.

    Incremental elimination: each row is reduced against the pivot rows
    kept so far (each normalised to 1 at its pivot and zero at the
    earlier pivots) and kept if anything survives.  Stops reading rows
    once the rank reaches ncols, so rows may be a lazy iterable.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        v = [x % PRIME for x in row]
        for c, pivot_row in pivots:
            f = v[c]
            if f:
                v = [(x - f * y) % PRIME for x, y in zip(v, pivot_row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, PRIME)
        pivots.append((lead, [x * inv % PRIME for x in v]))
        if len(pivots) == ncols:
            break
    return len(pivots)


def _equation_rows(q: FiniteQuasigroup):
    """Rows e[x*y] - e[x] - e[y] in (x, y) order, lazily."""
    n = q.order
    for x in range(n):
        for y in range(n):
            row = [0] * n
            row[q.table[x][y]] += 1
            row[x] -= 1
            row[y] -= 1
            yield row


def solve_characters(q: FiniteQuasigroup) -> list[tuple[Fraction, ...]]:
    """Exact basis of {c : c[x*y] = c[x] + c[y] for all x, y}.

    Returns the (empty, for every finite quasigroup) list of basis
    vectors of the log-character space.  Full rank mod PRIME means full
    rank over Q, so the empty basis is certified without fractions; a
    deficient rank mod PRIME (every n x n minor a multiple of PRIME) is
    settled by the rational nullspace of the same rows.
    """
    n = q.order
    if rank_mod_p(_equation_rows(q), n) == n:
        return []
    basis = nullspace(list(_equation_rows(q)), ncols=n)
    return [tuple(v) for v in basis]


def positive_sum_certificate(q: FiniteQuasigroup) -> bool:
    """Certify dimension 0 without elimination.

    For fixed a, summing the equation vectors e[a*x] - e[a] - e[x] over
    all x must give exactly -n * e[a]: row a of a Latin square is a
    permutation, so the e[a*x] terms cancel the e[x] terms.  When that
    holds for every a, each coordinate c[a] is forced to zero by
    equations already in the system's row span, so the solution space is
    {0} regardless of what the elimination says.
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
    return Character.trivial(n)


def check_normalization(q: FiniteQuasigroup, chi: Character) -> bool:
    """chi(e) = 1, i.e. log-value 0 at the identity.  NotALoop if no e."""
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

    Enumerates LMlt by breadth-first closure over words in the
    generators L_0, ..., L_{n-1} (shorter words first, lexicographic
    within a length).  Each permutation gets the chi-product (log-sum)
    along its first word; a later word reaching the same permutation
    with a different value is a conflict, reported as the pair of words.
    The homomorphism law pi(g o h) = pi(g) pi(h) is then checked on
    pairs of enumerated elements in discovery order, up to pair_budget.

    The log-values are scaled once to integers over their common
    denominator, so both checks add and compare plain ints.  Scaling by
    a positive integer preserves every sum and every equality, so the
    audit is the one the rational log-values give.
    """
    n = q.order
    gens = [q.table[a] for a in range(n)]
    identity = tuple(range(n))
    # right-composition with L_a is a fixed index gather; itemgetter makes
    # the BFS fast enough to enumerate every corpus multiplication group
    if n == 1:
        actions = [lambda p: (p[0],)]
    else:
        actions = [itemgetter(*row) for row in gens]
    common = lcm(*(c.denominator for c in chi.log_values))
    steps = [c.numerator * (common // c.denominator) for c in chi.log_values]
    absent = object()

    # word (a1, ..., ak) denotes L_{a1} o ... o L_{ak}; values are the
    # log-sums along first words, times common
    values: dict[tuple, int] = {identity: 0}
    words: dict[tuple, tuple[int, ...]] = {identity: ()}
    order_found: list[tuple] = [identity]
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
                order_found.append(new_perm)
                next_frontier.append(new_perm)
        frontier = next_frontier

    group_order = len(values)
    pairs_checked = 0
    homomorphism = True
    for g in order_found:
        for h in order_found:
            if pairs_checked >= pair_budget:
                break
            product = compose_images(g, h)
            if values[product] != values[g] + values[h]:
                homomorphism = False
                break
            pairs_checked += 1
        if not homomorphism or pairs_checked >= pair_budget:
            break
    return RepresentationAudit(
        well_defined=homomorphism,
        conflict=None,
        group_order=group_order,
        homomorphism=homomorphism,
        pairs_checked=pairs_checked,
    )
