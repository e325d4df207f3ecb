"""Identity parsing, term evaluation, and the two routes to (N1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab.cayley import (
    FiniteQuasigroup,
    cyclic_group,
    subtraction_mod,
    validate_cayley,
)
from quasilab import identities
from quasilab.identities import (
    N1_TEXT,
    EmptySide,
    Identity,
    Multiply,
    ParseError,
    UnknownIdentityError,
    Variable,
    VariableLimitExceeded,
    builtin_identities,
    builtin_identity,
    check_identity,
    n1_equivalence_report,
    parse_identity,
    pretty,
)
from quasilab.latin import enumerate_latin_squares, sample_latin_squares


def evaluate_term(q: FiniteQuasigroup, term, assignment: dict) -> int:
    """Evaluate one term under a {name: element} assignment.

    Runs the compiled code that check_identity runs, so the tests below
    pin its division orientation one term at a time.
    """
    names = []
    identities._collect_variables(term, names)
    code = identities._compile(term, tuple(names))
    left_div, right_div = q._division_tables()
    values = tuple(assignment[name] for name in names)
    return identities._evaluate(code, values, q.table, left_div, right_div)


def test_parse_simple_identity():
    ident = parse_identity("(x*y) = (y*x)")
    assert ident.variables == ("x", "y")
    assert isinstance(ident.lhs, Multiply)
    assert ident.lhs.left == Variable("x")


def test_parse_collects_variables_in_first_appearance_order():
    ident = parse_identity(N1_TEXT)
    assert ident.variables == ("x", "y", "z")


def test_whitespace_is_ignored():
    a = parse_identity("(x * (y \\ z))\t=\n (x / y)")
    b = parse_identity("(x*(y\\z)) = (x/y)")
    assert a == b


def test_alphanumeric_variable_names():
    ident = parse_identity("(a1*b_2) = (b_2*a1)")
    assert ident.variables == ("a1", "b_2")


def test_parse_errors():
    with pytest.raises(EmptySide) as info:
        parse_identity("= x")
    assert info.value.side == "left"

    with pytest.raises(EmptySide) as info:
        parse_identity("x =")
    assert info.value.side == "right"

    with pytest.raises(ParseError):
        parse_identity("")

    # bare operator application: the grammar requires parentheses
    with pytest.raises(ParseError) as info:
        parse_identity("x*y = z")
    assert info.value.found == "*"

    with pytest.raises(ParseError):
        parse_identity("(x*y = z")  # missing close paren
    with pytest.raises(ParseError):
        parse_identity("(x%y) = z")  # unknown operator
    with pytest.raises(ParseError):
        parse_identity("(x*y) = z)")  # trailing junk

    err = pytest.raises(ParseError, parse_identity, "(x*").value
    assert isinstance(err.position, int)
    assert err.expected


def test_pretty_round_trips_the_builtin():
    assert pretty(parse_identity(N1_TEXT)) == N1_TEXT


_names = st.sampled_from(["x", "y", "z", "w1"])
_terms = st.deferred(
    lambda: st.one_of(
        _names,
        st.tuples(_terms, st.sampled_from(["*", "\\", "/"]), _terms).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"
        ),
    )
)


@given(_terms, _terms)
def test_parse_pretty_parse_is_stable(lhs, rhs):
    ident = parse_identity(f"{lhs} = {rhs}")
    assert parse_identity(pretty(ident)) == ident


def test_evaluate_term_with_divisions():
    q = subtraction_mod(3)
    term = parse_identity("((x*y)\\z) = w").lhs
    # direct solve as the oracle: u with (x*y)*u = z
    for x in range(3):
        for y in range(3):
            for z in range(3):
                got = evaluate_term(q, term, {"x": x, "y": y, "z": z})
                head = q.multiply(x, y)
                (expected,) = [u for u in range(3) if q.multiply(head, u) == z]
                assert got == expected


def test_right_division_orientation():
    # a/b is the y with y*b = a; on subtraction mod 5, y = a + b
    q = subtraction_mod(5)
    term = parse_identity("(a/b) = c").lhs
    for a in range(5):
        for b in range(5):
            assert evaluate_term(q, term, {"a": a, "b": b}) == (a + b) % 5


DIVISION_LAWS = [
    "(x\\(x*y)) = y",
    "(x*(x\\y)) = y",
    "((x*y)/y) = x",
    "((x/y)*y) = x",
]


def test_division_laws_hold_on_every_quasigroup():
    squares = []
    enumerate_latin_squares(3, squares.append)
    squares += sample_latin_squares(5, 8, seed=1)
    squares += sample_latin_squares(6, 4, seed=2)
    for square in squares:
        q = FiniteQuasigroup(tuple(square))
        for text in DIVISION_LAWS:
            assert check_identity(q, parse_identity(text)).holds


def test_n1_holds_on_cyclic_groups():
    for n in (1, 2, 3, 4, 5, 7):
        result = check_identity(cyclic_group(n), builtin_identity("N1"))
        assert result.holds
        assert result.counterexample is None


def test_n1_counterexample_on_subtraction_mod_3():
    result = check_identity(subtraction_mod(3), builtin_identity("N1"))
    assert not result.holds
    # lexicographically first failure
    assert result.counterexample == {"x": 0, "y": 0, "z": 1}
    assert result.lhs_value == 2
    assert result.rhs_value == 1


def test_associativity_counterexample_on_subtraction_mod_3():
    result = check_identity(subtraction_mod(3), builtin_identity("associativity"))
    assert not result.holds
    assert result.counterexample == {"x": 0, "y": 0, "z": 1}
    # (0-0)-1 = 2 and 0-(0-1) = 1 mod 3
    assert result.lhs_value == 2
    assert result.rhs_value == 1


def test_counterexamples_are_lexicographically_first():
    ident = parse_identity("(x*y) = (y*x)")
    # subtraction mod 3 is non-commutative everywhere off the diagonal
    result = check_identity(subtraction_mod(3), ident)
    assert result.counterexample == {"x": 0, "y": 1}


def test_variable_cap():
    ident = parse_identity("((((a*b)*c)*d)*e) = a")
    with pytest.raises(VariableLimitExceeded) as info:
        check_identity(cyclic_group(2), ident)
    assert info.value.count == 5
    assert info.value.cap == 4
    with pytest.raises(VariableLimitExceeded):
        check_identity(cyclic_group(2), parse_identity("(x*y) = x"), cap=1)
    # raising the cap admits a 5-variable identity (reassociation on a group)
    reassoc = parse_identity("((((a*b)*c)*d)*e) = (a*(b*(c*(d*e))))")
    assert check_identity(cyclic_group(2), reassoc, cap=5).holds


def test_operator_n1_concrete_pairs():
    assert n1_equivalence_report(cyclic_group(3))["operator"]
    # the pointwise counterexample (x=0, y=0, z=1) shows up as a failing pair
    assert not n1_equivalence_report(subtraction_mod(3))["operator"]


def test_equivalence_report_structure():
    rep = n1_equivalence_report(cyclic_group(4))
    assert rep == {"pointwise": True, "operator": True, "agree": True}
    rep = n1_equivalence_report(subtraction_mod(3))
    assert rep == {"pointwise": False, "operator": False, "agree": True}


def test_equivalence_exhaustive_small_orders():
    for n in (1, 2, 3):
        squares = []
        enumerate_latin_squares(n, squares.append)
        for square in squares:
            rep = n1_equivalence_report(FiniteQuasigroup(tuple(square)))
            assert rep["pointwise"] == rep["operator"]


def test_builtin_catalog():
    catalog = builtin_identities()
    assert set(catalog) == {"N1", "moufang_left", "associativity", "commutativity"}
    assert catalog["N1"] == parse_identity(N1_TEXT)
    assert isinstance(builtin_identity("commutativity"), Identity)


def test_builtins_are_parsed_once_and_the_catalog_is_fresh():
    assert builtin_identity("N1") is builtin_identity("N1")
    catalog = builtin_identities()
    del catalog["N1"]
    catalog["extra"] = builtin_identity("N1")
    assert builtin_identities() is not catalog
    assert set(builtin_identities()) == {"N1", "moufang_left", "associativity", "commutativity"}


def test_unknown_builtin_message_is_not_repr_quoted():
    with pytest.raises(UnknownIdentityError) as info:
        builtin_identity("nope")
    assert str(info.value) == "no builtin identity named 'nope'"


def test_moufang_left_fails_off_groups():
    result = check_identity(subtraction_mod(3), builtin_identity("moufang_left"))
    assert not result.holds
    # re-evaluate the reported assignment through the term evaluator
    ident = builtin_identity("moufang_left")
    lhs = evaluate_term(subtraction_mod(3), ident.lhs, result.counterexample)
    rhs = evaluate_term(subtraction_mod(3), ident.rhs, result.counterexample)
    assert (lhs, rhs) == (result.lhs_value, result.rhs_value)
    assert lhs != rhs


def test_trivial_identity_always_holds():
    for square in sample_latin_squares(4, 5, seed=9):
        q = FiniteQuasigroup(square)
        assert check_identity(q, parse_identity("x = x")).holds
