"""Stabilizer-chain groups: order, membership, orbits, multiplication groups."""

import random
from math import factorial

import pytest

from quasilab import permgroup
from quasilab.cayley import FiniteQuasigroup, cyclic_group, subtraction_mod
from quasilab.latin import sample_latin_squares
from quasilab.perm import DegreeMismatch, Perm, compose_images
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
    import itertools

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
    # mlt --json reports the base, so the chain is part of the output:
    # base and strong-generator count of LMlt, RMlt and Mlt
    expected = [
        [((2, 0, 3, 1, 4), 10), ((1, 0, 2, 3, 4), 10), ((2, 0, 1, 3, 4), 14)],
        [((0, 1, 2, 3, 4), 12), ((0, 1, 4, 2, 3), 11), ((0, 1, 2, 3, 4), 15)],
        [((1, 0, 3, 2, 4), 11), ((1, 0, 2, 3, 4), 10), ((1, 0, 3, 2, 4), 16)],
        [((1, 0, 2, 4, 3), 11), ((1, 0, 2, 3, 4), 11), ((1, 0, 2, 4, 3), 17)],
    ]
    for square, chains in zip(sample_latin_squares(6, 4, seed=801), expected):
        q = FiniteQuasigroup(square)
        groups = (lmlt(q), rmlt(q), mlt(q))
        assert [(g.base, len(g.strong_generators)) for g in groups] == chains


def test_a_sifting_defect_fails_instead_of_hanging(monkeypatch):
    # sifting with the transversal element in place of its inverse never
    # reaches the identity, so without a bound on the strong generators
    # construction runs forever on this square
    def faulty_strip(g, base, transversals):
        for i, b in enumerate(base):
            t = transversals[i].get(g[b])
            if t is None:
                return g, i
            g = compose_images(t[0], g)
        return g, len(base)

    monkeypatch.setattr(permgroup, "_strip", faulty_strip)
    q = FiniteQuasigroup(((3, 0, 1, 2), (1, 2, 0, 3), (0, 3, 2, 1), (2, 1, 3, 0)))
    with pytest.raises(RuntimeError, match="internal error"):
        lmlt(q)


def test_lmlt_is_built_once_per_quasigroup():
    q = subtraction_mod(4)
    assert lmlt(q) is lmlt(q)
    assert lmlt(FiniteQuasigroup(q.table)) is not lmlt(q)


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
