"""Pushforward calculus and the quasi-invariance solver.

The solver states its answer by theorem; the orbit and ratio-test route
of measure_oracle and the exact nullspace of linalg_oracle are the
independent routes it is held against.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab.cayley import FiniteQuasigroup, cyclic_group, subtraction_mod
from quasilab.latin import enumerate_latin_squares, sample_latin_squares
from quasilab.measures import (
    Cocycle,
    Measure,
    check_multiplicative,
    pushforward,
    solve_quasi_invariant,
    verify_cocycle_relation,
)
from quasilab.perm import DegreeMismatch, Perm, orbits
from quasilab.permgroup import generate

from linalg_oracle import nullspace
from measure_oracle import pushforward_functoriality_check, solve_by_orbits


def _difference_nullspace(gens, n):
    """Oracle: solve mu[i] = mu[g(i)] for every g by exact elimination."""
    pairs = {
        tuple(sorted((i, img))) for g in gens for i, img in enumerate(g) if img != i
    }
    rows = []
    for i, j in sorted(pairs):
        row = [0] * n
        row[i], row[j] = 1, -1
        rows.append(row)
    return tuple(tuple(v) for v in nullspace(rows, ncols=n))


def _indicators(parts, n):
    return tuple(tuple(Fraction(int(i in part)) for i in range(n)) for part in parts)


@st.composite
def generator_lists(draw):
    """0-4 permutations of degree 1-8 that all preserve one random block.

    The block (of any size, on scrambled labels) makes multi-orbit sets
    common; a block of 0 or n points leaves the generators unrestricted.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.permutations(range(n)))
    cut = draw(st.integers(min_value=0, max_value=n))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        inner = draw(st.permutations(range(cut)))
        outer = draw(st.permutations(range(cut, n)))
        images = [0] * n
        for i, j in enumerate(list(inner) + list(outer)):
            images[labels[i]] = labels[j]
        gens.append(tuple(images))
    return n, gens


def test_measure_basics():
    mu = Measure([1, 2, 3])
    assert mu.mass == 6
    assert mu[2] == Fraction(3)
    assert mu.degree == 3
    assert Measure.counting(4).weights == (1, 1, 1, 1)
    assert mu.scaled(Fraction(1, 2)).weights == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
    )
    assert mu.normalized(1).mass == 1


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        Measure([1, -1, 3])
    with pytest.raises(ValueError):
        Measure([0, 0, 0])  # zero mass
    with pytest.raises(ValueError):
        Measure([])


def test_measure_accepts_rational_strings():
    mu = Measure(["1/2", "3/2", 1])
    assert mu.mass == 3


def test_cocycle_basics():
    j = Cocycle([1, 1, 1])
    assert j.is_trivial()
    assert Cocycle.constant(3).is_trivial()
    assert not Cocycle([1, 2, 1]).is_trivial()
    with pytest.raises(ValueError):
        Cocycle([1, 0, 1])  # cocycle values must be positive
    with pytest.raises(ValueError):
        Cocycle([1, -2, 1])


def test_pushforward_reindexes_weights():
    # T(0)=1, T(1)=2, T(2)=0; (T_*mu)[T(i)] = mu[i]
    t = Perm((1, 2, 0))
    mu = Measure([1, 2, 3])
    assert pushforward(t, mu).weights == (3, 1, 2)
    assert pushforward(Perm.identity(3), mu) == mu


def test_pushforward_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        pushforward(Perm((1, 0)), Measure([1, 2, 3]))


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.permutations(range(n)),
            st.lists(
                st.fractions(min_value=0, max_value=10),
                min_size=n,
                max_size=n,
            ).filter(lambda w: any(w)),
        )
    )
)
def test_pushforward_mass_and_functoriality(args):
    s_images, t_images, weights = args
    s, t = Perm(tuple(s_images)), Perm(tuple(t_images))
    mu = Measure(weights)
    assert pushforward(t, mu).mass == mu.mass
    assert pushforward_functoriality_check(s, t, mu)


def test_pushforward_inverse_round_trip():
    t = Perm((2, 0, 3, 1))
    mu = Measure([5, 1, 2, 7])
    assert pushforward(t.inverse(), pushforward(t, mu)) == mu


def test_solver_on_cyclic_group():
    sol = solve_quasi_invariant(cyclic_group(3))
    assert sol.dimension == 1
    assert sol.measure.weights == (1, 1, 1)  # normalized to mass n
    assert sol.left_cocycle.is_trivial()
    assert sol.right_cocycle.is_trivial()
    assert sol.degenerate
    assert sol.description == "positive multiples of the counting measure"
    assert sol.explanation["reason"] == "mass-conservation"
    assert sol.explanation["forced_value"] == "1"


def test_solver_exhaustive_small_orders():
    for n in (1, 2, 3):
        squares = []
        enumerate_latin_squares(n, squares.append)
        for square in squares:
            q = FiniteQuasigroup(tuple(square))
            sol = solve_quasi_invariant(q)
            assert sol.dimension == 1
            translations = [q.left_translation(a).images for a in range(n)]
            translations += [q.right_translation(a).images for a in range(n)]
            assert sol.basis == _difference_nullspace(translations, n)
            assert sol.basis[0] == tuple([sol.basis[0][0]] * n)
            assert sol.left_cocycle.is_trivial()
            assert sol.right_cocycle.is_trivial()


@given(generator_lists())
def test_orbit_route_matches_nullspace_and_group_elements(case):
    # two routes to one partition: the orbit indicators must be the exact
    # kernel of the difference system, in order, and every group orbit
    # must be what the group's elements do to the point
    n, gens = case
    parts = orbits(gens, n)
    assert _indicators(parts, n) == _difference_nullspace(gens, n)
    g = generate([Perm(x) for x in gens], degree=n)
    elements = g.elements()
    for p in range(n):
        assert g.orbit(p) == frozenset(e[p] for e in elements)
    assert g.is_transitive() == (len(g.orbit(0)) == n)


def test_solver_on_samples():
    for n in (4, 5, 6):
        for square in sample_latin_squares(n, 5, seed=n + 10):
            sol = solve_quasi_invariant(FiniteQuasigroup(square))
            assert sol.dimension == 1
            assert sol.measure.mass == n
            assert sol.degenerate


def _assert_matches_the_orbit_oracle(square):
    q = FiniteQuasigroup(tuple(map(tuple, square)))
    sol, oracle = solve_quasi_invariant(q), solve_by_orbits(q)
    assert sol.dimension == oracle.dimension
    assert sol.basis == oracle.basis
    assert sol.measure == oracle.measure
    assert sol.left_cocycle.values == oracle.left_ratios
    assert sol.right_cocycle.values == oracle.right_ratios
    assert sol.explanation["mass"] == str(oracle.measure.mass)


def test_theorem_route_matches_the_orbit_oracle():
    squares = []
    for n in range(1, 5):
        enumerate_latin_squares(n, squares.append)
    assert len(squares) == 591
    for n in (5, 6, 7):
        squares += sample_latin_squares(n, 20, seed=100 + n)
    for square in squares:
        _assert_matches_the_orbit_oracle(square)


@st.composite
def latin_squares(draw):
    """A square of order <= 7: half sampled, half Z_n relabelled by any tau."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return sample_latin_squares(n, 1, draw(st.integers(0, 2**32)))[0]
    tau = draw(st.permutations(range(n)))
    inverse = {t: x for x, t in enumerate(tau)}
    return tuple(
        tuple(tau[(inverse[x] + inverse[y]) % n] for y in range(n)) for x in range(n)
    )


@given(latin_squares())
def test_theorem_route_matches_the_orbit_oracle_on_drawn_squares(square):
    _assert_matches_the_orbit_oracle(square)


def test_counting_measure_is_invariant():
    for square in sample_latin_squares(5, 10, seed=21):
        q = FiniteQuasigroup(square)
        counting = Measure.counting(5)
        for a in range(5):
            assert pushforward(q.left_translation(a), counting) == counting
            assert pushforward(q.right_translation(a), counting) == counting


def test_cocycle_relation_trivial_pair():
    q = subtraction_mod(3)
    check = verify_cocycle_relation(q, Cocycle.constant(3), Cocycle.constant(3))
    assert check.holds
    assert check.counterexample is None


def test_cocycle_relation_detects_violation():
    q = cyclic_group(3)
    j = Cocycle([2, 1, 1])  # j(0*0) = j(0) = 2 but j(0)j(0) = 4
    check = verify_cocycle_relation(q, j, Cocycle.constant(3))
    assert not check.holds
    assert check.counterexample == (0, 0)


def test_check_multiplicative():
    q = cyclic_group(3)
    assert check_multiplicative(Cocycle.constant(3), q).holds
    bad = check_multiplicative(Cocycle([1, 2, 1]), q)
    assert not bad.holds
    # first failing pair in row-major order: 1*1 = 2 with j(2) = 1 != j(1)^2
    assert bad.counterexample == (1, 1)


def test_relation_reduces_to_multiplicativity_when_rho_positive():
    # with rho > 0 the relation holds iff j is multiplicative; spot-check
    # both routes agree on a non-multiplicative j
    q = subtraction_mod(4)
    j = Cocycle([1, 2, 1, 2])
    rho = Cocycle([3, 1, 2, 5])
    relation = verify_cocycle_relation(q, j, rho)
    multiplicative = check_multiplicative(j, q)
    assert relation.holds == multiplicative.holds
    assert relation.counterexample == multiplicative.counterexample


def test_fractions_are_kept_and_other_inputs_converted():
    # a Fraction is kept as it is, anything else goes through Fraction(x),
    # and the sign checks still see every value
    third = Fraction(1, 3)
    for weights in ([1, 2, 0], ["1", "2", "0"], [Fraction(1), Fraction(2), Fraction(0)]):
        mu = Measure(weights)
        assert mu.weights == (1, 2, 0)
        assert all(type(x) is Fraction for x in mu.weights)
    for values in ([1, 3], ["1", "3"], ["1/3", 3], [third, Fraction(3)]):
        c = Cocycle(values)
        assert c.values in ((1, 3), (third, 3))
        assert all(type(x) is Fraction for x in c.values)
    assert Measure([third]).weights[0] is third
    assert Cocycle([third]).values[0] is third
    for bad in ([Fraction(-1), 2], ["-1", 2], [1, -third]):
        with pytest.raises(ValueError, match="negative"):
            Measure(bad)
    for zero in ([], [0, 0], [Fraction(0)], ["0", "0/5"]):
        with pytest.raises(ValueError, match="zero measure"):
            Measure(zero)
    for bad in ([1, 0], [Fraction(0)], [third, -third], ["-2"], ["0"]):
        with pytest.raises(ValueError, match="positive"):
            Cocycle(bad)
