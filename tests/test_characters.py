"""Multiplicative characters: triviality, normalization, representation audit.

The package settles characters by theorem.  It audits LMlt by theorem for
the trivial character, reading |LMlt| off the Schreier-Sims chain, and
runs an integer-scaled closure only to locate the conflict of a
non-trivial one.  The rational routes they replaced live here as oracles:
the Fraction nullspace of the character equation rows, and the Fraction
breadth-first audit below, which still checks the law pair by pair.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab.cayley import FiniteQuasigroup, cyclic_group, subtraction_mod
from quasilab.characters import (
    CapExceeded,
    Character,
    NotALoop,
    RepresentationAudit,
    check_normalization,
    positive_sum_certificate,
    representation_well_defined,
    solve_characters,
    trivial_character,
)
from quasilab.latin import enumerate_latin_squares, sample_latin_squares
from quasilab.perm import compose_images
from quasilab.permgroup import lmlt

from linalg_oracle import character_equation_rows, nullspace


def _fraction_audit(q, chi, element_cap=10**6, pair_budget=10000):
    """The audit in rational arithmetic: Fraction log-sums, no scaling."""
    n = q.order
    identity = tuple(range(n))
    log_values = chi.log_values
    values = {identity: Fraction(0)}
    words = {identity: ()}
    order_found = [identity]
    frontier = [identity]
    while frontier:
        next_frontier = []
        for perm in frontier:
            for a in range(n):
                new_perm = compose_images(perm, q.table[a])
                new_value = values[perm] + log_values[a]
                if new_perm in values:
                    if values[new_perm] != new_value:
                        return RepresentationAudit(
                            well_defined=False,
                            conflict=(words[new_perm], words[perm] + (a,)),
                            group_order=len(values),
                            homomorphism=False,
                            pairs_checked=0,
                        )
                    continue
                if len(values) >= element_cap:
                    raise CapExceeded(element_cap)
                values[new_perm] = new_value
                words[new_perm] = words[perm] + (a,)
                order_found.append(new_perm)
                next_frontier.append(new_perm)
        frontier = next_frontier

    pairs_checked = 0
    homomorphism = True
    for g in order_found:
        for h in order_found:
            if pairs_checked >= pair_budget:
                break
            if values[compose_images(g, h)] != values[g] + values[h]:
                homomorphism = False
                break
            pairs_checked += 1
        if not homomorphism or pairs_checked >= pair_budget:
            break
    return RepresentationAudit(
        well_defined=homomorphism,
        conflict=None,
        group_order=len(values),
        homomorphism=homomorphism,
        pairs_checked=pairs_checked,
    )


def _outcome(audit, q, chi, **kwargs):
    try:
        return audit(q, chi, **kwargs)
    except CapExceeded as exc:
        return ("cap", exc.cap)


def _assert_audits_agree(q, chi, **kwargs):
    fast = _outcome(representation_well_defined, q, chi, **kwargs)
    assert fast == _outcome(_fraction_audit, q, chi, **kwargs)
    return fast


def _rational_characters(n):
    # small denominators, and values that make some word conflict
    steps = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2), Fraction(1), Fraction(0)]
    return [
        trivial_character(n),
        Character([steps[i % len(steps)] for i in range(n)]),
        Character([Fraction(0)] * (n - 1) + [Fraction(-2, 5)]),
        # chi(a) = a/2 in lowest terms mixes denominators 1 and 2, and on a
        # cyclic group no word conflicts before the first wrap-around
        Character([Fraction(a, 2) for a in range(n)]),
    ]


def test_character_values_exponentiate_log_values():
    chi = Character([0, 1, -1])
    assert chi.log(1) == Fraction(1)
    assert trivial_character(3).is_trivial()
    assert not chi.is_trivial()


def test_solver_finds_no_characters_on_groups():
    assert solve_characters(cyclic_group(3)) == []
    assert solve_characters(subtraction_mod(3)) == []


def test_solver_exhaustive_small_orders():
    for n in (1, 2, 3, 4):
        squares = []
        enumerate_latin_squares(n, squares.append)
        for square in squares:
            q = FiniteQuasigroup(tuple(square))
            assert solve_characters(q) == []
            assert solve_characters(q) == nullspace(character_equation_rows(q), ncols=n)
            assert positive_sum_certificate(q)


def test_solver_and_certificate_agree_on_samples():
    for n in (4, 5, 6):
        for square in sample_latin_squares(n, 10, seed=n):
            q = FiniteQuasigroup(square)
            basis = solve_characters(q)
            assert (len(basis) == 0) == positive_sum_certificate(q)
            assert basis == []


@st.composite
def magmas(draw):
    # any n x n table over 0..n-1, Latin or not: the theorem needs no more
    n = draw(st.integers(min_value=1, max_value=4))
    cells = st.integers(min_value=0, max_value=n - 1)
    rows = st.lists(cells, min_size=n, max_size=n).map(tuple)
    return FiniteQuasigroup(tuple(draw(st.lists(rows, min_size=n, max_size=n))))


@given(magmas())
def test_solver_matches_the_nullspace_on_every_magma(q):
    assert solve_characters(q) == nullspace(character_equation_rows(q), ncols=q.order)


@st.composite
def latin_squares_5_to_7(draw):
    n = draw(st.integers(min_value=5, max_value=7))
    if draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=10**6))
        return FiniteQuasigroup(sample_latin_squares(n, 1, seed=seed)[0])
    # Z_n relabelled by sigma: sigma(x) * sigma(y) = sigma(x + y)
    sigma = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[(x + y) % n]
    return FiniteQuasigroup(tuple(map(tuple, table)))


@given(latin_squares_5_to_7())
def test_solver_matches_the_nullspace_on_latin_squares(q):
    assert solve_characters(q) == nullspace(character_equation_rows(q), ncols=q.order)
    assert positive_sum_certificate(q)


class _UnreadableTable:
    def __len__(self):
        return 6

    def __getitem__(self, index):
        raise AssertionError(f"the solver read table[{index!r}]")


def test_solver_reads_no_table():
    # the answer is fixed by theorem, so no elimination may run
    assert solve_characters(FiniteQuasigroup(_UnreadableTable())) == []


def test_certificate_can_fail():
    # row 0 is not a permutation, so its equations do not sum to -2 e[0]
    magma = FiniteQuasigroup(((0, 0), (1, 1)))
    assert not positive_sum_certificate(magma)
    assert solve_characters(magma) == []


def test_nontrivial_character_is_never_multiplicative():
    chi = Character([0, 1, 0])
    assert not chi.is_multiplicative(cyclic_group(3))
    assert trivial_character(3).is_multiplicative(cyclic_group(3))


def test_a_character_of_another_degree_is_refused():
    for chi in (Character([0]), Character([0, 0, 5])):
        message = f"character of degree {chi.degree} on a quasigroup of order 2"
        with pytest.raises(ValueError, match=message):
            chi.is_multiplicative(cyclic_group(2))
        with pytest.raises(ValueError, match=message):
            check_normalization(cyclic_group(2), chi)


def test_normalization_on_loops():
    assert check_normalization(cyclic_group(4), trivial_character(4))
    # identity element 1, log-value 0 there but not at 0
    shifted = FiniteQuasigroup(((1, 0), (0, 1)))
    chi = Character([1, 0])
    assert check_normalization(shifted, chi)
    assert not check_normalization(shifted, Character([0, 1]))


def test_normalization_requires_a_loop():
    with pytest.raises(NotALoop):
        check_normalization(subtraction_mod(3), trivial_character(3))


def test_representation_audit_on_groups():
    audit = representation_well_defined(cyclic_group(3), trivial_character(3))
    assert audit.well_defined
    assert audit.conflict is None
    assert audit.group_order == 3
    assert audit.homomorphism

    audit = representation_well_defined(subtraction_mod(3), trivial_character(3))
    assert audit.well_defined
    assert audit.group_order == 6  # left translations generate all of S_3


def test_pair_budget_is_respected():
    audit = representation_well_defined(
        subtraction_mod(3), trivial_character(3), pair_budget=7
    )
    assert audit.pairs_checked == 7
    for budget in (-1, 0):
        audit = representation_well_defined(
            subtraction_mod(3), trivial_character(3), pair_budget=budget
        )
        assert audit.pairs_checked == 0
        assert audit.well_defined and audit.homomorphism
    audit = representation_well_defined(
        cyclic_group(3), trivial_character(3), pair_budget=10**6
    )
    assert audit.pairs_checked == 9  # all order^2 pairs


def test_fake_character_conflicts():
    # chi(1) = e on the order-2 group: L_1 o L_1 = id must get value 2,
    # but the empty word already assigned 0
    fake = Character([Fraction(0), Fraction(1)])
    audit = representation_well_defined(cyclic_group(2), fake)
    assert not audit.well_defined
    assert audit.conflict == ((), (1, 1))

    audit = representation_well_defined(cyclic_group(3), Character([0, 1, 2]))
    assert not audit.well_defined
    first, second = audit.conflict
    assert first != second

    # L_1 o L_1 = L_2 agrees (1/2 + 1/2 = 1); L_1 o L_2 = id is the first clash
    half_steps = Character([0, Fraction(1, 2), 1])
    audit = representation_well_defined(cyclic_group(3), half_steps)
    assert audit.conflict == ((), (1, 2))


def test_element_cap():
    with pytest.raises(CapExceeded) as info:
        representation_well_defined(
            subtraction_mod(3), trivial_character(3), element_cap=3
        )
    assert info.value.cap == 3


def test_audit_on_samples():
    for square in sample_latin_squares(6, 10, seed=12):
        q = FiniteQuasigroup(square)
        audit = representation_well_defined(q, trivial_character(6), pair_budget=100)
        assert audit.well_defined
        assert audit.group_order <= 720


def test_audit_matches_the_fraction_oracle_on_small_orders():
    for n in (1, 2, 3, 4):
        squares = []
        enumerate_latin_squares(n, squares.append)
        for square in squares:
            q = FiniteQuasigroup(tuple(square))
            for chi in _rational_characters(n):
                # the oracle then checks every pair the closure certifies
                _assert_audits_agree(q, chi, pair_budget=10**6)


def test_audit_matches_the_fraction_oracle_on_samples():
    for n, seed in ((5, 51), (6, 61)):
        for square in sample_latin_squares(n, 12, seed=seed):
            q = FiniteQuasigroup(square)
            for chi in _rational_characters(n):
                _assert_audits_agree(q, chi, pair_budget=100)


def test_audit_caps_match_the_fraction_oracle():
    z2_conflict = Character([0, 1])
    fast = _assert_audits_agree(cyclic_group(2), z2_conflict)
    assert fast.conflict == ((), (1, 1))
    for q in (cyclic_group(2), cyclic_group(3), subtraction_mod(3), cyclic_group(4)):
        for chi in _rational_characters(q.order) + [Character([Fraction(1, 3)] * q.order)]:
            for cap in range(-1, 8):
                _assert_audits_agree(q, chi, element_cap=cap)


def _theorem_squares():
    for n in (1, 2, 3, 4):
        squares = []
        enumerate_latin_squares(n, squares.append)
        yield from squares
    yield from sample_latin_squares(5, 30, seed=55)
    yield from sample_latin_squares(6, 30, seed=66)


def test_audit_is_well_defined_exactly_for_the_trivial_character():
    # the theorem the audit reads off: a conflict-free closure is a
    # homomorphism from the finite LMlt into (Q, +), hence zero
    for square in _theorem_squares():
        n = len(square)
        for chi in _rational_characters(n):
            audit = representation_well_defined(FiniteQuasigroup(tuple(square)), chi)
            if chi.is_trivial():
                # the elements() closure shares no code with the chain
                members = lmlt(FiniteQuasigroup(tuple(square))).elements()
                assert audit.well_defined
                assert audit.group_order == len(members)
            else:
                assert not audit.well_defined
                assert audit.conflict is not None


def test_audit_does_not_depend_on_a_prior_lmlt():
    for square in sample_latin_squares(4, 4, seed=44) + sample_latin_squares(6, 4, seed=64):
        for chi in _rational_characters(len(square)):
            for cap in (0, 5, 10**6):
                warmed = FiniteQuasigroup(square)
                group = lmlt(warmed)
                before = _outcome(representation_well_defined, warmed, chi, element_cap=cap)
                fresh = _outcome(
                    representation_well_defined, FiniteQuasigroup(square), chi, element_cap=cap
                )
                assert before == fresh
                assert lmlt(warmed) is group  # the audit reused the chain


def test_audit_rejects_a_character_of_another_degree():
    for chi in (trivial_character(2), Character([0, 0, 0, 1])):
        with pytest.raises(ValueError, match="degree"):
            representation_well_defined(cyclic_group(3), chi)


def test_audit_rejects_a_conflict_free_nontrivial_closure(monkeypatch):
    # the theorem rules this out, so an audit that meets it has a bug
    monkeypatch.setattr(Character, "is_trivial", lambda self: False)
    for q in (cyclic_group(1), cyclic_group(3), subtraction_mod(3)):
        with pytest.raises(RuntimeError, match="internal error"):
            representation_well_defined(q, trivial_character(q.order))


@st.composite
def audit_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    q = FiniteQuasigroup(sample_latin_squares(n, 1, seed=seed)[0])
    fractions = st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    kind = draw(st.sampled_from(["trivial", "sparse", "dense", "linear"]))
    if kind == "trivial":
        chi = trivial_character(n)
    elif kind == "linear":
        step = draw(fractions)
        chi = Character([a * step for a in range(n)])
    elif kind == "sparse":
        log_values = [Fraction(0)] * n
        log_values[draw(st.integers(min_value=0, max_value=n - 1))] = draw(fractions)
        chi = Character(log_values)
    else:
        chi = Character(draw(st.lists(fractions, min_size=n, max_size=n)))
    cap = draw(st.one_of(st.just(10**6), st.integers(min_value=1, max_value=30)))
    edges = [-5, -1, 0]
    if n <= 4:
        # around the certified count |LMlt|^2, and far past it
        pairs = lmlt(q).order ** 2
        edges = [10**6, pairs + 1, pairs, pairs - 1] + edges
    budget = draw(st.one_of(st.sampled_from(edges), st.integers(min_value=-5, max_value=150)))
    return q, chi, cap, budget


@given(audit_cases())
def test_audit_matches_the_fraction_oracle(case):
    q, chi, cap, budget = case
    _assert_audits_agree(q, chi, element_cap=cap, pair_budget=budget)
