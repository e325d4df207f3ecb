"""Generated permutation groups with exact order and membership.

Construction is a deterministic Schreier-Sims: base points are chosen
greedily as the smallest point moved by the generator (or residue) that
forces a new level, transversals are breadth-first in generator order
and rebuilt as soon as their level gains a strong generator, and levels
are verified deepest-first with a jump back down whenever a new strong
generator appears.  Orders come out as exact Python ints via the product
of fundamental orbit sizes.  Each transversal element is stored with its
inverse, composed from the generators' inverses as the element is built,
so sifting and Schreier generators never invert a permutation; the
inverses are computed once per strong generator, as it joins the chain
(and for a chain being extended, again as the extension starts).
Compositions are operator.itemgetter calls on image tuples.  A group
keeps its generators and strong generators as image tuples and wraps
them in validated Perms only when they are asked for.

Verification stops as soon as that product reaches the order bound the
generators prove, degree! or degree!/2 when all of them are even (the
known-order variant of Schreier-Sims).  The product is a lower bound on
the order only while each level's group fixes the base points above it,
so every residue is checked to fix them before it joins the chain, and a
residue that does not is an internal error.

A complete chain can be extended by more generators: those that sift
through it are dropped, the rest are placed as in a fresh build, and only
the levels that gain one are rebuilt before the same verification.

The translation groups LMlt(Q), RMlt(Q) and Mlt(Q) of a finite
quasigroup are the intended inputs; lmlt/rmlt/mlt build them from the
rows and columns of the Cayley table.  LMlt and RMlt are built afresh;
Mlt extends LMlt's chain by the right translations.  A base records how
a chain was built and is no answer about Q; order, membership,
transitivity and generators are.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .cayley import FiniteQuasigroup
from .perm import DegreeMismatch, Perm, compose_images, invert_images, orbits


class ElementCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"group has more than {cap} elements")


def _strip(g: tuple, base, transversals):
    """Sift g down the stabilizer chain.

    Transversals map each orbit point to (u, u^-1).  Returns the residue
    and the level where sifting stopped; g is a member exactly when the
    residue is the identity at level len(base).
    """
    for i, b in enumerate(base):
        t = transversals[i].get(g[b])
        if t is None:
            return g, i
        g = itemgetter(*g)(t[1])  # u^-1 g; a non-empty base means degree >= 2
    return g, len(base)


def _build_bsgs(gens, degree: int, chain=None):
    """The chain (base, level generators, transversals, order) of <gens>.

    gens are image tuples.  Given a complete chain, returns the chain of
    the group that it and gens generate: the chain itself when every
    generator sifts through it.
    """
    identity = tuple(range(degree))
    gens = [g for g in dict.fromkeys(gens) if g != identity]
    if chain is None:
        # order: the product of the transversal sizes
        base, level_gens, transversals, order = [], [], [], 1
        inverse = {}
    else:
        base, level_gens, transversals, order = chain
        gens = [g for g in gens if _strip(g, base, transversals)[0] != identity]
        if not gens:
            return chain
        base, transversals = list(base), list(transversals)
        level_gens = [list(level) for level in level_gens]
        # the chain keeps no inverses: its strong generators' are made again
        inverse = {g: invert_images(g) for level in level_gens for g in level}

    # A generator that fixes base[:k] and moves base[k] belongs to levels
    # 0..k; one that fixes the whole base so far appends its smallest moved
    # point, so k is settled when the generator is read.  Levels 0..top
    # gain a generator; deeper ones keep their complete transversals.
    top = -1
    for g in gens:
        k = 0
        while k < len(base) and g[base[k]] == base[k]:
            k += 1
        if k == len(base):
            base.append(min(p for p in range(degree) if g[p] != p))
            level_gens.append([])
            transversals.append({base[k]: (identity, identity)})
        for level in level_gens[:k + 1]:
            level.append(g)
        if k > top:
            top = k
    # each strong generator is inverted once, when it joins the chain
    inverse.update({g: invert_images(g) for g in gens})

    # A non-empty base means degree >= 2, so itemgetter below always takes
    # at least two indices and returns a tuple.
    def recompute_transversal(i: int) -> None:
        nonlocal order
        b = base[i]
        trans = {b: (identity, identity)}
        queue = [b]
        gens_i = [(s, inverse[s]) for s in level_gens[i]]
        for pt in queue:  # grows while it is walked: breadth-first
            u, uinv = trans[pt]
            for s, sinv in gens_i:
                img = s[pt]
                if img not in trans:
                    # s u, and (s u)^-1 = u^-1 s^-1
                    trans[img] = (itemgetter(*u)(s), itemgetter(*sinv)(uinv))
                    queue.append(img)
        order = order // len(transversals[i]) * len(trans)
        transversals[i] = trans

    for level in range(top + 1):
        recompute_transversal(level)

    # Each added strong generator strictly enlarges a group of the chain,
    # which is at most degree levels deep, so that group's order at least
    # doubles, below degree!; more additions than this mean sifting is broken.
    additions, max_additions = 0, degree * math.factorial(degree).bit_length()
    # |G| is at most degree!, and half that when every generator is even.
    # Level i's group fixes base[:i] (the residue check below keeps it so),
    # so the product of the transversal sizes is at most |G|; once it meets
    # the bound the chain is complete and every Schreier generator still
    # unsifted would sift to the identity.
    # Level 0 holds every generator that was not dropped as a member.
    even = all((degree - len(orbits([g], degree))) % 2 == 0
               for level in level_gens[:1] for g in level)
    bound = math.factorial(degree) // (2 if even else 1)
    i = top  # the levels deeper than top were verified when the chain was built
    while i >= 0 and order != bound:
        trans = transversals[i]
        # a Schreier generator of level i fixes base[:i + 1]: sift it below
        deeper_base, deeper = base[i + 1:], transversals[i + 1:]
        restart = False
        for pt in trans:
            u = trans[pt][0]
            for s in level_gens[i]:
                # the Schreier generator v^-1 s u, v the transversal element at s(pt)
                vinv = trans[s[pt]][1]
                sg = itemgetter(*itemgetter(*u)(s))(vinv)
                if sg == identity:
                    continue
                residue, j = _strip(sg, deeper_base, deeper)
                j += i + 1
                if residue == identity:
                    continue
                additions += 1
                if additions > max_additions:
                    raise RuntimeError(
                        "internal error: Schreier-Sims added more strong generators "
                        f"than a chain in Sym({degree}) admits"
                    )
                if any(residue[b] != b for b in base[:j]):
                    raise RuntimeError(
                        f"internal error: a residue sifted to level {j} moves "
                        "a base point above it"
                    )
                if j == len(base):
                    new_point = min(p for p in range(degree) if residue[p] != p)
                    base.append(new_point)
                    level_gens.append([])
                    transversals.append({new_point: (identity, identity)})
                inverse[residue] = invert_images(residue)
                for l in range(i + 1, j + 1):
                    level_gens[l].append(residue)
                    recompute_transversal(l)
                i = j
                restart = True
                break
            if restart:
                break
        if not restart:
            i -= 1

    return base, level_gens, transversals, order


class PermGroup:
    """Immutable once built; generators are kept as image tuples, wrapped when read."""

    __slots__ = ("degree", "_generators", "base", "order", "_level_gens", "_transversals")

    def __init__(self, degree, generators, base, level_gens, transversals, order):
        self.degree = degree
        self._generators = tuple(generators)
        self.base = tuple(base)
        self._level_gens = level_gens
        self.order = order
        self._transversals = tuple(transversals)

    @property
    def generators(self) -> tuple[Perm, ...]:
        return tuple(map(Perm, self._generators))

    @property
    def strong_generators(self) -> tuple[Perm, ...]:
        """The level generators, each once, from level 0 down."""
        strong = dict.fromkeys(g for level in self._level_gens for g in level)
        return tuple(map(Perm, strong))

    def membership(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"permutation degree {p.degree} != group degree {self.degree}"
            )
        residue, _ = _strip(p.images, self.base, self._transversals)
        return residue == tuple(range(self.degree))

    def __contains__(self, p: Perm) -> bool:
        return self.membership(p)

    def orbit(self, point: int) -> frozenset[int]:
        """The points the generators reach from point."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside 0..{self.degree - 1}")
        return frozenset(next(o for o in orbits(self._generators, self.degree) if point in o))

    def is_transitive(self) -> bool:
        return len(orbits(self._generators, self.degree)) == 1

    def elements(self, cap: int = 10**6) -> frozenset[tuple]:
        """Every element as an image tuple, by breadth-first products.

        Independent of the stabilizer chain, so tests can cross-check
        order and membership against it.  Raises ElementCapExceeded past
        the cap rather than filling memory.
        """
        identity = tuple(range(self.degree))
        gens = self._generators
        seen = {identity}
        frontier = [identity]
        while frontier:
            new_frontier = []
            for u in frontier:
                for g in gens:
                    w = compose_images(g, u)
                    if w not in seen:
                        if len(seen) >= cap:
                            raise ElementCapExceeded(cap)
                        seen.add(w)
                        new_frontier.append(w)
            frontier = new_frontier
        return frozenset(seen)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _group(gens, degree: int) -> PermGroup:
    """The group generated by image tuples of one degree."""
    return PermGroup(degree, gens, *_build_bsgs(gens, degree))


def generate(gens, degree: int | None = None) -> PermGroup:
    """Group generated by a list of Perm (empty list: trivial group).

    degree is mandatory when gens is empty and must match the generators
    otherwise.
    """
    gens = list(gens)
    if not gens and degree is None:
        raise ValueError("degree required for an empty generator list")
    d = gens[0].degree if gens else degree
    for g in gens:
        if g.degree != d:
            raise DegreeMismatch(f"generator degrees differ: {g.degree} != {d}")
    if degree is not None and degree != d:
        raise DegreeMismatch(f"requested degree {degree}, generators have {d}")
    return _group([g.images for g in gens], d)


def lmlt(q: FiniteQuasigroup) -> PermGroup:
    """Group generated by all left translations, the rows of q's table.

    Precondition: q's table is Latin, as validate_cayley enforces.  Built
    once per quasigroup instance and kept on it, so the LMlt audit and a
    caller that asked for the group first share one chain.
    """
    if q._lmlt is None:
        q._lmlt = _group(q.table, q.order)
    return q._lmlt


def rmlt(q: FiniteQuasigroup) -> PermGroup:
    """Group generated by all right translations, the columns of q's table.

    Precondition: q's table is Latin, as validate_cayley enforces.
    """
    return _group(q.columns, q.order)


def mlt(q: FiniteQuasigroup) -> PermGroup:
    """Group generated by all left and right translations together.

    LMlt's chain extended by the columns, so its base starts with LMlt's.
    Precondition: q's table is Latin, as validate_cayley enforces.
    """
    left, right = lmlt(q), q.columns
    chain = _build_bsgs(right, q.order,
                        (left.base, left._level_gens, left._transversals, left.order))
    return PermGroup(q.order, left._generators + right, *chain)
