"""Stabilizer-chain groups: order, membership, orbits, multiplication groups."""

import itertools
import random
from math import factorial, prod

import pytest

from permgroup_oracle import _strip as oracle_strip
from permgroup_oracle import build_bsgs
from quasilab import permgroup
from quasilab.cayley import FiniteQuasigroup, cyclic_group, subtraction_mod
from quasilab.latin import sample_latin_squares
from quasilab.perm import DegreeMismatch, Perm, compose_images, orbits
from quasilab.permgroup import ElementCapExceeded, generate, lmlt, mlt, rmlt


def test_trivial_group():
    g = generate([], degree=4)
    assert g.order == 1
    assert Perm.identity(4) in g
    assert Perm((1, 0, 2, 3)) not in g


def test_empty_generators_require_degree():
    with pytest.raises(ValueError):
        generate([])


def test_generator_degrees_must_agree():
    with pytest.raises(DegreeMismatch):
        generate([Perm((1, 0)), Perm((1, 2, 0))])
    with pytest.raises(DegreeMismatch):
        generate([Perm((1, 0))], degree=3)


def test_symmetric_group_from_standard_generators():
    g = generate([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
    assert g.order == 24
    assert g.is_transitive()
    assert len(g.elements()) == 24


def test_alternating_group_membership():
    # two 3-cycles generate A_4; a transposition is outside
    g = generate([Perm((1, 2, 0, 3)), Perm((0, 2, 3, 1))])
    assert g.order == 12
    assert Perm((1, 0, 2, 3)) not in g
    assert Perm((1, 2, 0, 3)) in g
    assert Perm((2, 0, 1, 3)) in g  # inverse of a generator
    # a permutation of another degree is refused, not answered
    for other in (Perm((1, 2, 0)), Perm.identity(5)):
        with pytest.raises(DegreeMismatch, match="group degree 4"):
            g.membership(other)


def test_cyclic_group_order_and_orbit():
    g = generate([Perm((1, 2, 3, 4, 0))])
    assert g.order == 5
    assert g.orbit(2) == frozenset(range(5))


def test_non_transitive_orbit():
    g = generate([Perm((1, 0, 2))])
    assert g.order == 2
    assert g.orbit(0) == frozenset({0, 1})
    assert g.orbit(2) == frozenset({2})
    assert not g.is_transitive()
    for outside in (-1, 3):
        with pytest.raises(ValueError):
            g.orbit(outside)


def test_lmlt_of_cyclic_group_is_regular():
    g = lmlt(cyclic_group(5))
    assert g.order == 5
    assert g.is_transitive()


def test_lmlt_of_subtraction_mod_3():
    # rows of (x - y) mod 3 generate the full symmetric group on 3 points
    g = lmlt(subtraction_mod(3))
    assert g.order == 6
    assert Perm((1, 0, 2)) in g


def test_mlt_variants_on_subtraction_mod_3():
    q = subtraction_mod(3)
    assert rmlt(q).order == 3  # columns are the cyclic shifts
    assert mlt(q).order == 6


def test_generators_are_members():
    for square in sample_latin_squares(5, 6, seed=4):
        g = mlt(FiniteQuasigroup(square))
        for gen in g.generators:
            assert gen in g
            assert gen.inverse() in g


def test_order_matches_breadth_first_enumeration():
    cases = [
        lmlt(cyclic_group(4)),
        lmlt(subtraction_mod(4)),
        mlt(subtraction_mod(3)),
        generate([Perm((1, 2, 0, 3)), Perm((0, 2, 3, 1))]),
    ]
    for square in sample_latin_squares(5, 4, seed=5):
        cases.append(mlt(FiniteQuasigroup(square)))
    for g in cases:
        assert g.order == len(g.elements())


def test_membership_agrees_with_enumeration():
    g = mlt(subtraction_mod(4))
    members = g.elements()
    for images in itertools.permutations(range(4)):
        assert (Perm(images) in g) == (images in members)


def test_order_divides_degree_factorial():
    for n in (4, 5, 6):
        for square in sample_latin_squares(n, 3, seed=n):
            g = mlt(FiniteQuasigroup(square))
            assert factorial(n) % g.order == 0
            assert g.is_transitive()  # translations reach every point


def test_construction_is_deterministic():
    # two instances: lmlt keeps its group on the instance it was built from
    a = lmlt(subtraction_mod(5))
    b = lmlt(subtraction_mod(5))
    assert a is not b
    assert a.base == b.base
    assert a.order == b.order
    assert [g.images for g in a.strong_generators] == [
        g.images for g in b.strong_generators
    ]


def test_chain_is_pinned_on_seeded_squares():
    # base, transversal point sets and strong generators (as image strings)
    # of LMlt, RMlt and Mlt.  The chain records how a group was built; it is
    # not an answer about Q, whose answers are order, membership,
    # transitivity and generators.  LMlt and RMlt are built afresh, Mlt
    # extends LMlt's chain: on these squares LMlt is already Sym(6), so Mlt's
    # chain is LMlt's
    expected = [
        [
            ("20314", "012345 01345 1345 145 45",
             "013452 534120 201534 145203 352041 420315 532041 042351 012543 012354"),
            ("10234", "012345 02345 2345 345 45",
             "052134 130452 341520 415203 523041 204315 514320 013542 012534 012354"),
            ("20314", "012345 01345 1345 145 45",
             "013452 534120 201534 145203 352041 420315 532041 042351 012543 012354"),
        ],
        [
            ("01234", "012345 12345 2345 345 45",
             "132504 510342 425013 201435 043251 354120 014235 013245 015243 012435 "
             "012543 012354"),
            ("01423", "012345 12345 2345 235 35",
             "154203 312045 205134 530421 041352 423510 012354 013542 015324 015342 "
             "012543"),
            ("01234", "012345 12345 2345 345 45",
             "132504 510342 425013 201435 043251 354120 014235 013245 015243 012435 "
             "012543 012354"),
        ],
        [
            ("10324", "012345 02345 2345 245 45",
             "023415 340251 251043 532104 104532 415320 012543 013245 012435 015342 "
             "012354"),
            ("10234", "012345 02345 2345 345 45",
             "032514 245301 301245 420153 154032 513420 315240 014235 012453 012354"),
            ("10324", "012345 02345 2345 245 45",
             "023415 340251 251043 532104 104532 415320 012543 013245 012435 015342 "
             "012354"),
        ],
        [
            ("10243", "012345 02345 2345 345 35",
             "035421 410352 143205 302514 251043 524130 314205 012354 013254 015423 "
             "012543"),
            ("10234", "012345 02345 2345 345 45",
             "041325 314052 503214 432501 250143 125430 513402 015324 012435 012543 "
             "012354"),
            ("10243", "012345 02345 2345 345 35",
             "035421 410352 143205 302514 251043 524130 314205 012354 013254 015423 "
             "012543"),
        ],
    ]

    def digits(points):
        return "".join(map(str, points))

    for square, chains in zip(sample_latin_squares(6, 4, seed=801), expected):
        q = FiniteQuasigroup(square)
        assert [
            (
                digits(g.base),
                " ".join(digits(sorted(t)) for t in g._transversals),
                " ".join(digits(s.images) for s in g.strong_generators),
            )
            for g in (lmlt(q), rmlt(q), mlt(q))
        ] == chains


def _cycle(points, degree):
    images = list(range(degree))
    points = list(points)
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return Perm(tuple(images))


def test_symmetric_and_alternating_groups_from_standard_generators():
    # the chain stops once its transversals multiply to n! (n!/2 when
    # every generator is even); a complete chain still decides membership
    rng = random.Random(12)
    for n in range(1, 9):
        sym = generate([_cycle(range(min(n, 2)), n), _cycle(range(n), n)])
        alt_gens = [_cycle(range(3), n), _cycle(range(1 - n % 2, n), n)] if n >= 3 else []
        alt = generate(alt_gens, degree=n)
        assert sym.order == factorial(n)
        assert alt.order == max(1, factorial(n) // 2)
        for _ in range(30):
            images = tuple(rng.sample(range(n), n))
            even = (n - len(orbits([images], n))) % 2 == 0
            assert Perm(images) in sym
            assert (Perm(images) in alt) == even


def test_degrees_one_and_two_and_identity_generators():
    # all-even generators on one point bound the order by 1! // 2 = 0,
    # which no product of transversal sizes meets
    assert generate([Perm((0,))]).order == 1
    assert generate([Perm((1, 0))]).order == 2
    assert generate([Perm.identity(2)]).order == 1
    assert generate([Perm.identity(5), Perm.identity(5)]).order == 1


def test_even_generators_of_a_proper_subgroup_of_alt():
    # PSL(2, 5) on the projective line over F5, point 5 standing for
    # infinity: x -> x + 1 and x -> -1/x are even and generate a group of
    # order 60 < |Alt(6)|, so the stop never fires and the full
    # verification completes the chain
    g = generate([Perm((1, 2, 3, 4, 0, 5)), Perm((5, 4, 2, 3, 1, 0))])
    members = g.elements()
    assert g.order == len(members) == 60
    for images in itertools.permutations(range(6)):
        assert (Perm(images) in g) == (images in members)


def _faulty_strip(g, base, transversals):
    # sifts with the transversal element in place of its inverse
    for i, b in enumerate(base):
        t = transversals[i].get(g[b])
        if t is None:
            return g, i
        g = compose_images(t[0], g)
    return g, len(base)


def test_a_sifting_defect_fails_instead_of_hanging(monkeypatch):
    # the faulty sift never reaches the identity, so without a bound on the
    # strong generators construction runs forever on this square
    monkeypatch.setattr(permgroup, "_strip", _faulty_strip)
    q = FiniteQuasigroup((
        (2, 0, 3, 4, 1, 5), (1, 2, 0, 5, 3, 4), (3, 4, 1, 2, 5, 0),
        (0, 3, 5, 1, 4, 2), (4, 5, 2, 3, 0, 1), (5, 1, 4, 0, 2, 3),
    ))
    with pytest.raises(RuntimeError, match="internal error"):
        lmlt(q)
    # LMlt of this square is Sym(4): its transversals reach 4! before any
    # sift composes a transversal element, so the defect never shows
    q = FiniteQuasigroup(((3, 0, 1, 2), (1, 2, 0, 3), (0, 3, 2, 1), (2, 1, 3, 0)))
    assert lmlt(q).order == 24


def test_a_sifting_defect_never_gives_a_wrong_order(monkeypatch):
    # a faulty sift can leave a residue that moves a base point above its
    # level; as a strong generator it would inflate the transversals (an
    # order-5 square then reported |LMlt| = 1440) or trip the stop at a
    # false n!, so construction refuses it
    builders = (lmlt, rmlt, mlt)
    squares = [sq for n in (4, 5, 6) for sq in sample_latin_squares(n, 15, seed=7)]
    true_orders = [[b(FiniteQuasigroup(sq)).order for b in builders] for sq in squares]
    monkeypatch.setattr(permgroup, "_strip", _faulty_strip)
    for square, orders in zip(squares, true_orders):
        for build, order in zip(builders, orders):
            try:
                assert build(FiniteQuasigroup(square)).order == order
            except RuntimeError as error:
                assert "internal error" in str(error)


@pytest.fixture
def sifts(monkeypatch):
    """A one-item list that counts the calls of permgroup._strip."""
    count = [0]
    strip = permgroup._strip

    def counting_strip(*args):
        count[0] += 1
        return strip(*args)

    monkeypatch.setattr(permgroup, "_strip", counting_strip)
    return count


def test_the_stop_saves_sifts_on_sym6(sifts):
    # without the stop a Sym(6) chain sifted 76.4 Schreier generators on
    # average (the perfbench corpus-n6 squares of seed 1), every one to the
    # identity; with it, about 12
    counts = []
    for square in sample_latin_squares(6, 20, seed=1):
        for build in (lmlt, mlt):
            sifts[0] = 0
            if build(FiniteQuasigroup(square)).order == 720:
                counts.append(sifts[0])
    assert len(counts) >= 20
    assert sum(counts) / len(counts) < 76.4 / 2


def test_mlt_keeps_a_sym_n_chain_of_lmlt(sifts):
    # |LMlt| = n!, so every right translation sifts through LMlt's chain:
    # one sift each, and the chain is LMlt's, transversals and all
    kept = 0
    for square in sample_latin_squares(6, 10, seed=1):
        q = FiniteQuasigroup(square)
        left = lmlt(q)
        if left.order != 720 or any(q.right_translation(a).is_identity() for a in range(6)):
            continue
        sifts[0] = 0
        both = mlt(q)
        assert sifts[0] == 6
        assert (both.base, both.order) == (left.base, 720)
        assert len(both._transversals) == len(left._transversals)
        assert all(a is b for a, b in zip(both._transversals, left._transversals))
        # on a fresh instance mlt builds LMlt first and leaves it cached
        fresh = FiniteQuasigroup(square)
        both = mlt(fresh)
        sifts[0] = 0
        left = lmlt(fresh)
        assert sifts[0] == 0
        assert all(a is b for a, b in zip(both._transversals, left._transversals))
        kept += 1
    assert kept >= 5


def test_mlt_of_s3_appends_base_points():
    # LMlt(S3) is the left regular representation, order 6 with base (0,);
    # the right translations are not in it, so the extension places them
    # and appends two base points below LMlt's
    q = FiniteQuasigroup(_table(list(itertools.permutations(range(3))), compose_images))
    assert (lmlt(q).base, lmlt(q).order) == ((0,), 6)
    both = mlt(q)
    assert (both.base, both.order) == ((0, 2, 1), 36)
    assert both.order == len(both.elements())


def test_lmlt_is_built_once_per_quasigroup():
    q = subtraction_mod(4)
    assert lmlt(q) is lmlt(q)
    assert lmlt(FiniteQuasigroup(q.table)) is not lmlt(q)


def test_translation_groups_make_no_perm(monkeypatch):
    # the rows and columns of a Latin table are permutations already:
    # LMlt, RMlt and Mlt take them as image tuples from the table to the chain
    made = [0]
    check = Perm.__post_init__

    def counting_check(self):
        made[0] += 1
        check(self)

    monkeypatch.setattr(Perm, "__post_init__", counting_check)
    for square in sample_latin_squares(6, 10, seed=29):
        for build in (lmlt, rmlt, mlt):
            build(FiniteQuasigroup(square))
    assert made[0] == 0
    # the generators are wrapped, and validated, when they are read
    assert len(mlt(FiniteQuasigroup(square)).generators) == 12
    assert made[0] == 12


def test_chains_agree_with_enumeration():
    # every sift runs on the inverses stored beside the transversal
    # elements, so a wrong one shows as a wrong order or membership answer;
    # samples mostly give Sym(n), so Z_n supplies the non-members
    rng = random.Random(48)
    for n, count in ((4, 3), (5, 3), (6, 2), (7, 1), (8, 1)):
        for square in sample_latin_squares(n, count, seed=40 + n) + [cyclic_group(n).table]:
            q = FiniteQuasigroup(square)
            for group in (lmlt(q), rmlt(q), mlt(q)):
                members = group.elements()
                assert group.order == len(members)
                assert all(Perm(g) in group for g in members)
                for _ in range(50):
                    images = tuple(rng.sample(range(n), n))
                    assert (Perm(images) in group) == (images in members)


def test_elements_cap():
    g = generate([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
    with pytest.raises(ElementCapExceeded) as info:
        g.elements(cap=10)
    assert info.value.cap == 10


def _assert_chain_is_the_oracles(gens, degree):
    base, level_gens, transversals, order = permgroup._build_bsgs(list(gens), degree)
    want_base, want_levels, want_transversals, want_order = build_bsgs(list(gens), degree)
    assert base == want_base
    assert level_gens == want_levels
    # every element and its inverse, in breadth-first insertion order
    assert [list(t.items()) for t in transversals] == [
        list(t.items()) for t in want_transversals
    ]
    assert order == want_order


def _assert_chain_is_valid(group):
    identity, base = tuple(range(group.degree)), group.base
    assert len(group._level_gens) == len(group._transversals) == len(base)
    for i, trans in enumerate(group._transversals):
        for point, (u, uinv) in trans.items():
            assert u[base[i]] == point
            assert all(u[b] == b for b in base[:i])
            assert compose_images(u, uinv) == identity
        assert all(s[b] == b for s in group._level_gens[i] for b in base[:i])
    assert group.order == prod(len(t) for t in group._transversals)


def _assert_mlt_is_the_oracles_group(q, left, right):
    # mlt extends the chain of lmlt, so its chain is not the oracle's fresh
    # one; its order and membership are
    n = q.order
    both = mlt(q)
    assert [g.images for g in both.generators] == left + right
    assert both.base[:len(lmlt(q).base)] == lmlt(q).base
    base, _, transversals, order = build_bsgs(left + right, n)
    assert both.order == order
    if n <= 6:
        members = [tuple(range(n))]
        for trans in transversals:
            members = [compose_images(m, u) for m in members for u, _ in trans.values()]
        assert len(members) == order
        assert all(Perm(m) in both for m in members)
    rng = random.Random(str(q.table))
    identity = tuple(range(n))
    for _ in range(50):
        images = tuple(rng.sample(range(n), n))
        expected = oracle_strip(images, base, transversals)[0] == identity
        assert (Perm(images) in both) == expected


def _assert_translation_chains_are_the_oracles(table):
    # LMlt, RMlt and Mlt
    q, n = FiniteQuasigroup(table), len(table)
    left = [q.left_translation(a).images for a in range(n)]
    right = [q.right_translation(a).images for a in range(n)]
    for gens in (left, right, left + right):
        _assert_chain_is_the_oracles(gens, n)
    _assert_mlt_is_the_oracles_group(q, left, right)
    for group in (lmlt(q), rmlt(q), mlt(q)):
        _assert_chain_is_valid(group)


def _table(elements, mul):
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[mul(x, y)] for y in elements) for x in elements)


def _abelian(*orders):
    def mul(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, orders))

    return _table(list(itertools.product(*(range(m) for m in orders))), mul)


def test_chains_equal_the_oracles_on_seeded_squares():
    for n in range(1, 9):
        for square in sample_latin_squares(n, 6, seed=2500 + n):
            _assert_translation_chains_are_the_oracles(square)


def test_chains_equal_the_oracles_on_group_tables():
    # the loops benchmark's groups, as built and relabelled
    rng = random.Random(2501)
    tables = [cyclic_group(n).table for n in range(4, 9)]
    tables += [_abelian(2, 2), _abelian(2, 4), _abelian(2, 2, 2)]
    tables.append(_table(list(itertools.permutations(range(3))), compose_images))
    dihedral = [tuple((k + i) % 4 for i in range(4)) for k in range(4)]
    dihedral += [tuple((k - i) % 4 for i in range(4)) for k in range(4)]
    tables.append(_table(dihedral, compose_images))
    assert sorted(len(t) for t in tables) == [4, 4, 5, 6, 6, 7, 8, 8, 8, 8]
    for table in tables:
        n = len(table)
        for _ in range(3):
            _assert_translation_chains_are_the_oracles(table)
            perm = rng.sample(range(n), n)
            relabelled = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    relabelled[perm[i]][perm[j]] = perm[table[i][j]]
            table = tuple(map(tuple, relabelled))


def test_chains_equal_the_oracles_on_symmetric_and_alternating_generators():
    for n in range(1, 9):
        _assert_chain_is_the_oracles(
            [_cycle(range(min(n, 2)), n).images, _cycle(range(n), n).images], n
        )
        if n >= 3:
            _assert_chain_is_the_oracles(
                [_cycle(range(3), n).images, _cycle(range(1 - n % 2, n), n).images], n
            )


def test_chains_equal_the_oracles_on_random_generators():
    rng = random.Random(2502)
    for degree in range(1, 10):
        for _ in range(25):
            gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:  # a sparse generator: a transposition
                a, b = rng.sample(range(degree), 2) if degree > 1 else (0, 0)
                images = list(range(degree))
                images[a], images[b] = images[b], images[a]
                gens.append(tuple(images))
            if rng.random() < 0.5:
                gens.insert(rng.randint(0, len(gens)), tuple(range(degree)))
            if rng.random() < 0.5:
                gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
            _assert_chain_is_the_oracles(gens, degree)
            group = generate([Perm(g) for g in gens])
            # wrapped without the check, yet every one is a permutation
            assert all(Perm(s.images) == s for s in group.strong_generators)
