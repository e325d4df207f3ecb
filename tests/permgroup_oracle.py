"""Schreier-Sims as it was built before its itemgetter kernels: the reference chain.

permgroup._build_bsgs composes with operator.itemgetter, inverts each
strong generator once, chooses base and levels in one pass, and takes
the table's rows and columns as image tuples.  None of that may change a
step: build_bsgs below is the earlier construction, verbatim but for its
name and a local composition by generator expression, and its base,
level generators, transversals (elements, inverses and insertion order)
and order are the chain that _build_bsgs must return on a fresh build.
permgroup.mlt extends the chain of LMlt instead of building afresh, so
its chain differs from build_bsgs(left + right); its order and
membership are checked against that chain instead.
"""

import math

from quasilab.perm import invert_images, orbits


def compose_images(s, t):
    return tuple(s[i] for i in t)


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
        g = compose_images(t[1], g)
    return g, len(base)


def _chain_order(transversals) -> int:
    """The product of the transversal sizes, an exact int."""
    order = 1
    for trans in transversals:
        order *= len(trans)
    return order


def build_bsgs(gens: list[tuple], degree: int):
    identity = tuple(range(degree))
    seen = set()
    uniq = []
    for g in gens:
        if g != identity and g not in seen:
            seen.add(g)
            uniq.append(g)
    gens = uniq

    base: list[int] = []
    for g in gens:
        if all(g[b] == b for b in base):
            base.append(min(p for p in range(degree) if g[p] != p))
    level_gens = [
        [g for g in gens if all(g[b] == b for b in base[:i])]
        for i in range(len(base))
    ]
    transversals: list[dict[int, tuple[tuple, tuple]]] = [
        {base[i]: (identity, identity)} for i in range(len(base))
    ]

    def recompute_transversal(i: int) -> None:
        b = base[i]
        trans = {b: (identity, identity)}
        queue = [b]
        qi = 0
        gens_i = [(s, invert_images(s)) for s in level_gens[i]]
        while qi < len(queue):
            pt = queue[qi]
            qi += 1
            u, uinv = trans[pt]
            for s, sinv in gens_i:
                img = s[pt]
                if img not in trans:
                    # (s u)^-1 = u^-1 s^-1
                    trans[img] = (compose_images(s, u), compose_images(uinv, sinv))
                    queue.append(img)
        transversals[i] = trans

    for level in range(len(base)):
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
    even = all((degree - len(orbits([g], degree))) % 2 == 0 for g in gens)
    bound = math.factorial(degree) // (2 if even else 1)
    i = len(base) - 1
    while i >= 0 and _chain_order(transversals) != bound:
        trans = transversals[i]
        # a Schreier generator of level i fixes base[:i + 1]: sift it below
        deeper_base, deeper = base[i + 1:], transversals[i + 1:]
        restart = False
        for pt in trans:
            u = trans[pt][0]
            for s in level_gens[i]:
                # the Schreier generator v^-1 s u, v the transversal element at s(pt)
                vinv = trans[s[pt]][1]
                sg = tuple(vinv[s[x]] for x in u)
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

    return base, level_gens, transversals, _chain_order(transversals)
